"""Parallel sweep runner determinism and worker metrics merge."""

import json

import pytest

from repro.core import (
    e14_reliability,
    resolve_workers,
    run_chaos_sweep,
    run_experiment,
    run_tasks,
)
from repro.obs import Collector
from repro.obs.metrics import Histogram, MetricsRegistry

def _square(value):
    return value * value


class TestRunTasks:
    def test_results_positional_sequential(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5], workers=1) == [9, 1, 16, 1, 25]

    def test_results_positional_parallel(self):
        assert run_tasks(_square, list(range(20)), workers=2) == [
            value * value for value in range(20)
        ]

    def test_empty_task_list(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1


class TestParallelParity:
    """workers=N must reproduce the sequential results bit for bit."""

    def test_entropy_sweep_parallel_matches_sequential(self):
        # Two runs per point: each row's median and range pin both
        # attempt counts.
        params = {"runs_per_point": 2}
        sequential = run_experiment("E15", params=params, workers=1)
        parallel = run_experiment("E15", params=params, workers=2)
        assert parallel.result.rows == sequential.result.rows

    def test_chaos_sweep_parallel_matches_sequential(self):
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        sequential = run_chaos_sweep((0.0, 0.4), workers=1, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2, **kwargs)
        assert parallel.cells == sequential.cells

    def test_chaos_sweep_parallel_merges_worker_metrics(self):
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector, par_collector = Collector(), Collector()
        sequential = run_chaos_sweep((0.0, 0.4), workers=1,
                                     observer=seq_collector, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2,
                                   observer=par_collector, **kwargs)
        assert parallel.cells == sequential.cells
        assert par_collector.metrics.counters() == seq_collector.metrics.counters()

    def test_chaos_sweep_parallel_merges_worker_spans(self):
        """Span-tree integrity under workers=2: ids, parent links, and
        durations all match the sequential sweep (deterministic adopt)."""
        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector, par_collector = Collector(), Collector()
        run_chaos_sweep((0.0, 0.4), workers=1, observer=seq_collector, **kwargs)
        run_chaos_sweep((0.0, 0.4), workers=2, observer=par_collector, **kwargs)
        assert par_collector.tracer.spans  # the sweep actually traced
        assert par_collector.tracer.signature() == seq_collector.tracer.signature()

        def links(tracer):
            return [(s.span_id, s.parent_id, s.name, s.duration)
                    for s in tracer.spans]

        assert links(par_collector.tracer) == links(seq_collector.tracer)

    def test_chaos_sweep_parallel_merges_worker_series(self):
        """Time-series parity under workers=2: the adopted worker stores
        reproduce the sequential sweep's sampled series bit for bit."""
        from repro.obs import TimeSeriesStore

        kwargs = dict(queries_per_rate=6, attack_budget=6)
        seq_collector = Collector(series=TimeSeriesStore())
        par_collector = Collector(series=TimeSeriesStore())
        run_chaos_sweep((0.0, 0.2, 0.5), workers=1,
                        observer=seq_collector, **kwargs)
        run_chaos_sweep((0.0, 0.2, 0.5), workers=2,
                        observer=par_collector, **kwargs)
        assert par_collector.series.timeline  # the sweep actually sampled
        assert par_collector.clock == seq_collector.clock
        seq_dict = seq_collector.series.to_dict()
        par_dict = par_collector.series.to_dict()
        assert json.dumps(par_dict, sort_keys=True) == \
               json.dumps(seq_dict, sort_keys=True)

    def test_reliability_study_parallel_matches_sequential(self):
        sequential = run_experiment("E14", params={"trials": 2}, workers=1)
        parallel = run_experiment("E14", params={"trials": 2}, workers=2)
        assert parallel.result.rows == sequential.result.rows
        assert sequential.result.rows == e14_reliability(trials=2).rows

    def test_e10_parallel_matches_sequential(self):
        sequential = run_experiment("E10", params={"max_attempts": 512}, workers=1)
        parallel = run_experiment("E10", params={"max_attempts": 512}, workers=2)
        assert parallel.result.rows == sequential.result.rows


class TestMetricsMerge:
    def test_counter_merge_adds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("a", 3)
        right.inc("a", 4)
        right.inc("b", 1)
        left.merge(right)
        assert left.counters() == {"a": 7, "b": 1}

    def test_histogram_merge_sums_observations(self):
        left = Histogram("lat", (1.0, 10.0))
        right = Histogram("lat", (1.0, 10.0))
        left.observe(0.5)
        right.observe(5.0)
        right.observe(50.0)
        left.merge(right)
        assert left.count == 3
        assert left.total == 55.5
        assert left.min == 0.5
        assert left.max == 50.0
        assert left.bucket_counts == [1, 1, 1]

    def test_histogram_merge_rejects_mismatched_buckets(self):
        left = Histogram("lat", (1.0, 10.0))
        right = Histogram("lat", (1.0, 5.0))
        with pytest.raises(ValueError, match="mismatched"):
            left.merge(right)

    def test_registry_merge_is_order_independent(self):
        def worker_registry(seed):
            registry = MetricsRegistry()
            registry.inc("events", seed)
            registry.observe("lat", float(seed))
            return registry

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for seed in (1, 2, 3):
            forward.merge(worker_registry(seed))
        for seed in (3, 2, 1):
            backward.merge(worker_registry(seed))
        assert forward.to_dict() == backward.to_dict()
