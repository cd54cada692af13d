"""Tests of the benchmark's own logic; none of them runs the program.

    python3 -m pytest perfbench/tests -q
"""

import ipaddress
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from perfbench import metrics, workloads
from perfbench.run import Loop, as_json, prefix_failures, replay_failures
from perfbench.tracing import Tracer


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize("q, needed", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert metrics.min_samples(q) == needed
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(list(range(needed - 1)), q)
    assert metrics.percentile(list(range(needed)), q) == pytest.approx((needed - 1) * q / 100)


def test_percentile_interpolates_between_order_statistics():
    values = list(range(100, 0, -1))  # unsorted input
    assert metrics.percentile(values, 90) == pytest.approx(90.1)
    assert metrics.percentile(values, 50) == pytest.approx(50.5)


def test_geometric_quantile_matches_the_law():
    assert metrics.geometric_quantile(64, 0.5) == 45
    assert metrics.geometric_quantile(64, 0.9) == 147
    assert metrics.geometric_quantile(1, 0.9) == 1
    k = metrics.geometric_quantile(64, 0.9)
    assert 1 - (63 / 64) ** k >= 0.9 > 1 - (63 / 64) ** (k - 1)


def test_attempt_law_band_catches_a_guess_that_hits_less_often():
    trials = 80
    assert metrics.attempts_follow_law(trials, trials * 64, 64)
    assert metrics.attempts_follow_law(trials, trials * 64 + 2800, 64)
    assert not metrics.attempts_follow_law(trials, trials * 128, 64)  # half the hit rate
    assert not metrics.attempts_follow_law(trials, trials * 16, 64)  # four times it
    with pytest.raises(ValueError):
        metrics.attempts_follow_law(0, 10, 64)


def test_bruteforce_checks_and_summary_use_the_measured_costs():
    workload = workloads.BruteForce()
    extras = [{"attempts": 64, "probe_s": 0.02}] * 10
    assert workload.checks(extras) == [True]
    assert workload.checks([{"attempts": 200, "probe_s": 0.02}] * 10) == [False]
    summary = workload.summarize([0.02 + 64 * 0.0025] * 10, extras)
    assert summary["ops_per_s"] == pytest.approx(400)
    assert summary["latency_ms_p50"] == pytest.approx(20.0)  # the set-up itself
    assert summary["latency_ms_tail"] == pytest.approx(20.0 + 147 * 2.5)
    assert summary["time_to_root_ms_p50"] == pytest.approx(20.0 + 45 * 2.5)


def test_registry_tail_is_the_slowest_experiment():
    seconds = [1.0, 0.1, 0.2, 3.0, 0.1, 0.2]
    extras = [{"id": "E1"}, {"id": "E2"}, {"id": "E3"}] * 2
    summary = workloads.Registry("unused").summarize(seconds, extras)
    assert summary["registry_s"] == pytest.approx(2.0 + 0.1 + 0.2)
    assert summary["ops_per_s"] == pytest.approx(3 / 2.3)
    assert summary["latency_ms_tail"] == pytest.approx(2000.0)
    assert summary["latency_ms_p50"] == pytest.approx(200.0)


def test_dns_summary_reports_the_miss_share():
    seconds = [0.001] * 60 + [0.003] * 40
    extras = [{"miss": False}] * 60 + [{"miss": True}] * 40
    summary = workloads.DnsService().summarize(seconds * 10, extras * 10)
    assert summary["miss_share"] == pytest.approx(0.4)
    assert summary["hit_ms_p50"] == pytest.approx(1.0)
    assert summary["miss_ms_p50"] == pytest.approx(3.0)


def test_weighted_median_and_chunk_rate():
    assert metrics.weighted_median([1.0, 2.0, 3.0], [1, 1, 10]) == 3.0
    assert metrics.weighted_median([3.0, 1.0], [1, 1]) == 1.0
    # Four chunks of two operations; one slow spell does not move the median.
    seconds = [0.5, 0.5, 0.5, 0.5, 5.0, 5.0, 0.4, 0.6, 0.9]
    assert metrics.chunk_rate(seconds, 2) == pytest.approx(2.0)


def test_local_speed_factors_use_the_samples_around_each_operation():
    reference = metrics.CALIBRATION_REFERENCE_S
    marks = [2, 4]  # samples taken after operations 2 and 4
    samples = [reference, 2 * reference]
    factors = metrics.local_speed_factors(marks, samples, 5)
    assert factors[0] == factors[1] == pytest.approx(1.0)
    assert factors[2] == factors[3] == pytest.approx(1 / 1.5)
    assert factors[4] == pytest.approx(0.5)  # after the last sample
    with pytest.raises(metrics.TooFewSamples):
        metrics.local_speed_factors([], [], 1)


def test_digest_is_order_and_count_sensitive():
    base = metrics.digest([["a", 1], ["b", 2]], {"upstream": 3})
    assert base == metrics.digest([["a", 1], ["b", 2]], {"upstream": 3})
    assert base != metrics.digest([["b", 2], ["a", 1]], {"upstream": 3})
    assert base != metrics.digest([["a", 1], ["b", 2]], {"upstream": 4})


# -- self time --------------------------------------------------------------------


def span(sid, name, start, end, parent=0, busy=0.0):
    return (sid, name, start, end, parent, 1, busy)


def test_self_time_subtracts_nested_children_and_counter_time():
    spans = [
        span(1, "op", 0.0, 10.0, busy=0.5),
        span(2, "exploit.plan", 1.0, 3.0, parent=1),
        span(3, "connman.reply", 4.0, 8.0, parent=1),
        span(4, "cpu.run", 5.0, 6.0, parent=3),
    ]
    own = metrics.self_times(spans)
    assert own == {1: pytest.approx(3.5), 2: pytest.approx(2.0),
                   3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    assert sum(own.values()) + 0.5 == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, "op", 0.0, 10.0), span(2, "a", 1.0, 4.0, parent=1),
             span(3, "b", 2.0, 6.0, parent=1), span(4, "c", 9.0, 12.0, parent=1)]
    assert metrics.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_where_time_goes_adds_up_to_the_wall():
    self_s = {"exploit.plan": 2.0, "mem.read": 1.0, "op": 0.5, "trial": 0.25}
    rows = metrics.where_time_goes(self_s, 5.0, {"exploit": {"exploit.plan.calls": 3}})
    assert [row[0] for row in rows] == list(metrics.LAYERS) + ["unattributed"]
    assert sum(row[1] for row in rows) == pytest.approx(5.0)
    assert rows[-1][1] == pytest.approx(2.0)  # op + trial + untraced time
    assert rows[0][3] == "exploit.plan.calls=3"


def test_tracer_nests_spans_and_counts_memory_once():
    tracer = Tracer()
    read = tracer.counter("mem.read", lambda length: bytes(length),
                          lambda result, *_args: len(result))
    read_u32 = tracer.counter("mem.read", lambda: read(4), lambda *_args: 4)
    inner = tracer.span("cpu.run", lambda: read_u32(),
                        lambda t, _result: t.count("cpu.steps", 7))
    outer = tracer.span("connman.reply", lambda: (inner(), read(10)))
    frame = tracer.open("op")
    outer()
    tracer.close(frame)
    assert tracer.counts["mem.read.calls"] == 2  # read_u32 -> read counted once
    assert tracer.counts["mem.read.bytes"] == 14
    assert tracer.counts["cpu.steps"] == 7
    assert tracer.counts["cpu.run.calls"] == tracer.counts["connman.reply.calls"] == 1
    by_id = {record[0]: record for record in tracer.spans}
    names = {record[1]: record for record in tracer.spans}
    assert by_id[names["cpu.run"][4]][1] == "connman.reply"
    assert by_id[names["connman.reply"][4]][1] == "op"
    own = metrics.self_times(tracer.spans)
    wall = names["op"][3] - names["op"][2]
    assert sum(own.values()) + tracer.busy["mem.read"] == pytest.approx(wall)


# -- seeded inputs ------------------------------------------------------------------


def take(iterator, count):
    return list(itertools.islice(iterator, count))


def test_bruteforce_trials_are_seeded():
    assert take(workloads.bruteforce_trials(1), 5) == take(workloads.bruteforce_trials(1), 5)
    assert take(workloads.bruteforce_trials(1), 5) != take(workloads.bruteforce_trials(2), 5)
    assert all(0 <= value < 2 ** 32 for pair in take(workloads.bruteforce_trials(3), 20)
               for value in pair)


def test_matrix_order_runs_whole_seeded_rounds():
    cells = len(workloads.CELLS)
    order = take(workloads.matrix_order(7), 5 * cells)
    assert order == take(workloads.matrix_order(7), 5 * cells)
    assert order != take(workloads.matrix_order(8), 5 * cells)
    rounds = [sorted(index for index, _seed in order[start:start + cells])
              for start in range(0, len(order), cells)]
    assert all(indices == list(range(cells)) for indices in rounds)
    assert [cell[3] for cell in workloads.CELLS].count("dropped") == 1
    assert workloads.CELLS[-1][2] == "1.35"


def test_name_pool_and_zone_are_seeded_and_well_formed():
    names = workloads.name_pool(5)
    assert names == workloads.name_pool(5) and names != workloads.name_pool(6)
    assert len(names) == len(set(names)) == workloads.POOL_SIZE
    assert all(name == name.lower() and len(name) <= 30 for name in names)
    zone = workloads.zone_for(5, names)
    assert zone == workloads.zone_for(5, names) and set(zone) == set(names)
    assert all(ipaddress.IPv4Address(address) for address in zone.values())


def test_query_stream_is_seeded_and_zipf_popular():
    names = workloads.name_pool(5)
    stream = take(workloads.query_stream(9, names), 5000)
    assert stream == take(workloads.query_stream(9, names), 5000)
    assert all(1 <= query_id < 65536 and name in names for query_id, name in stream)
    counts = Counter(name for _id, name in stream)
    assert counts[names[0]] > counts[names[1]] > counts[names[50]]
    # More distinct names than the ~70-entry guest cache holds.
    assert len(counts) > 150


def test_registry_order_is_seeded_whole_passes():
    ids = workloads.REGISTRY_IDS
    order = take(workloads.registry_order(3), 3 * len(ids))
    assert order == take(workloads.registry_order(3), 3 * len(ids))
    for number in range(3):
        assert sorted(i for n, i in order if n == number) == sorted(ids)
    assert "E15" not in ids


# -- correctness checks -----------------------------------------------------------


def test_check_trial_rejects_a_trial_without_root():
    good = SimpleNamespace(succeeded=True, attempts=40, winning_slide_pages=3)
    assert workloads.check_trial(good)
    assert not workloads.check_trial(SimpleNamespace(succeeded=False, attempts=2048,
                                                     winning_slide_pages=None))
    assert not workloads.check_trial(SimpleNamespace(succeeded=True, attempts=3000,
                                                     winning_slide_pages=3))


def test_check_attack_rejects_the_wrong_outcome():
    assert workloads.check_attack("root", "root shell")
    assert not workloads.check_attack("root", "crashed: SIGSEGV")
    assert workloads.check_attack("dropped", "dropped: uncompressed name too long")
    assert not workloads.check_attack("dropped", "root shell")


def fake_answer(query_id=7, name="a.lan", address="10.0.0.1", response=True, rtype=1):
    record = SimpleNamespace(rtype=rtype, name=name, address=address)
    return SimpleNamespace(id=query_id, is_response=response, answers=(record,))


def test_check_answer_rejects_a_wrong_answer():
    zone = {"a.lan": "10.0.0.1"}
    assert workloads.check_answer(fake_answer(), 7, "a.lan", zone)
    assert workloads.check_answer(fake_answer(name="A.LAN"), 7, "a.lan", zone)
    assert not workloads.check_answer(None, 7, "a.lan", zone)
    assert not workloads.check_answer(fake_answer(address="10.0.0.2"), 7, "a.lan", zone)
    assert not workloads.check_answer(fake_answer(query_id=8), 7, "a.lan", zone)
    assert not workloads.check_answer(fake_answer(response=False), 7, "a.lan", zone)
    assert not workloads.check_answer(fake_answer(rtype=28), 7, "a.lan", zone)


def test_check_experiment_rejects_a_failed_run_or_row():
    rows = [{"outcome": "pass", "expected": True}]
    assert workloads.check_experiment(True, rows)
    assert not workloads.check_experiment(False, rows)
    assert not workloads.check_experiment(True, [])
    assert not workloads.check_experiment(True, rows + [{"outcome": "fail", "expected": True}])
    assert not workloads.check_experiment(True, [{"outcome": "pass", "expected": False}])


# -- the loop's determinism checks --------------------------------------------------


class FakeWorkload(workloads.Workload):
    """Operations keyed by ``spec % 3``; ``wobble`` changes one record."""

    name = "fake"
    trace_ops = 4
    replay = 2

    def __init__(self, wobble_at=None, correct=True):
        self.wobble_at = wobble_at
        self.correct = correct

    def setup(self, seed):
        return {"calls": 0}

    def fresh(self, state):
        return {"calls": 0}

    def specs(self, state):
        return itertools.count()

    def run_op(self, state, spec):
        state["calls"] += 1
        value = spec % 3 + (100 if spec == self.wobble_at else 0)
        return 0.001, [value], self.correct, {}

    def key(self, spec):
        return spec % 3

    def counts(self, state):
        return {"calls": state["calls"]}


def run_loop(workload, operations=6):
    loop = Loop(workload, workload.setup(0))
    for _ in range(operations):
        loop.step()
    return loop


def test_loop_fails_an_operation_whose_repeat_differs():
    assert run_loop(FakeWorkload()).failed == 0
    assert run_loop(FakeWorkload(wobble_at=4)).failed == 1
    assert run_loop(FakeWorkload(correct=False)).failed == 6


def test_replay_catches_a_result_that_does_not_repeat():
    workload = FakeWorkload()
    loop = run_loop(workload)
    assert replay_failures(workload, workload.setup(0), loop) == 0
    loop.records[1] = ["tampered"]
    assert replay_failures(workload, workload.setup(0), loop) == 1


def prefix_of(loop):
    return {"records": as_json(loop.records[:loop.workload.trace_ops]),
            "counts": as_json(loop.digest_counts), "failed": loop.failed}


def test_prefix_from_another_process_must_match():
    loop = run_loop(FakeWorkload())
    assert prefix_failures(loop, prefix_of(run_loop(FakeWorkload(), 4))) == 0
    assert prefix_failures(loop, prefix_of(run_loop(FakeWorkload(wobble_at=1), 4))) == 1
    assert prefix_failures(loop, prefix_of(run_loop(FakeWorkload(correct=False), 4))) == 4
    other = prefix_of(run_loop(FakeWorkload(), 4))
    other["counts"] = {"calls": 5}
    assert prefix_failures(loop, other) == 1
    other["records"] = other["records"][:3]
    assert prefix_failures(loop, other) == 2


def test_digest_covers_the_traced_prefix_only():
    short, long = run_loop(FakeWorkload(), 4), run_loop(FakeWorkload(), 9)
    assert short.digest() == long.digest()
    assert short.digest() != run_loop(FakeWorkload(wobble_at=3), 4).digest()


def test_memory_probe_runs_a_fixed_number_of_operations():
    workload = FakeWorkload()
    state = workload.setup(0)
    workload.memory_probe(state)
    assert state["calls"] == 0
    workload.probe_ops = 5
    workload.memory_probe(state)
    assert state["calls"] == 5
