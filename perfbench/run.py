"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bruteforce --seed 11 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the workload's fixed traced work with each operation once untraced and
once traced, and prints the per-layer metrics and the "where time goes"
table.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything runs in this
process; set-up is also sampled in a few sequential child processes,
because imports happen once per process.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402
from perfbench.workloads import REGISTRY_IDS, all_workloads  # noqa: E402

#: The seed the traced tables and digests in README.md come from.
DEFAULT_SEED = 11
#: Kept out of tuning: re-check a claimed gain on this seed.
HELD_OUT_SEED = 4242
#: Set-ups per run: one in this process, the rest in sequential children.
SETUP_SAMPLES = 5
OUT_DIR = os.path.join(ROOT, "perfbench", ".out")
#: A calibration follows the first operation to end this long after the
#: previous one.  Speed swings within seconds, so calibrations are dense.
CALIBRATE_EVERY_S = 0.01
#: Share of the time since the last calibration spent on the next one; a
#: long operation is followed by several samples, whose median is kept.
CALIBRATE_SHARE = 0.05
CALIBRATE_MAX_SAMPLES = 25

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"))

#: Workload-specific metric names, and the reported metric each one reads.
ALIASES = {
    "bruteforce": (("attempts_per_s", "ops_per_s", 1.0, "1/s"),
                   ("trial_setup_ms", "latency_ms_p50", 1.0, "ms"),
                   ("time_to_root_s_p50", "time_to_root_ms_p50", 1e-3, "s"),
                   ("time_to_root_s_p90", "latency_ms_tail", 1e-3, "s")),
    "attack_matrix": (("attack_ms_p50", "latency_ms_p50", 1.0, "ms"),
                      ("attack_ms_p90", "latency_ms_tail", 1.0, "ms")),
    "dns_service": (("queries_per_s", "ops_per_s", 1.0, "1/s"),
                    ("query_ms_p50", "latency_ms_p50", 1.0, "ms"),
                    ("query_ms_p90", "latency_ms_tail", 1.0, "ms"),
                    ("query_ms_p99", "query_ms_p99", 1.0, "ms")),
    "registry": (("registry_s", "registry_s", 1.0, "s"),
                 ("slowest_experiment_ms", "latency_ms_tail", 1.0, "ms")),
}

#: Per-layer metrics read straight from the trace: self time of these
#: spans and counters, and these counts.
PER_LAYER_SELF = ("exploit.plan", "exploit.build", "exploit.gadgets", "exploit.recon",
                  "binfmt.image", "binfmt.load", "connman.reply", "connman.cache",
                  "mem.write", "mem.read", "cpu.run", "dns.codec", "net.deliver",
                  "core.dispatch", "core.artifact")
PER_LAYER_COUNTS = ("exploit.plan.calls", "binfmt.image.calls", "binfmt.load.calls",
                    "connman.reply.calls", "connman.cache.lookups", "mem.write.calls",
                    "mem.write.bytes", "mem.read.calls", "mem.read.bytes", "cpu.run.calls",
                    "cpu.steps", "dns.codec.calls", "net.deliver.calls")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bruteforce", "attack_matrix", "dns_service", "registry"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, run the memory probe, print both as JSON")
    parser.add_argument("--check-prefix", action="store_true",
                        help="with --setup-only, also run the digest prefix and print its records")
    return parser.parse_args(argv)


def other_hash_seed() -> str:
    """A PYTHONHASHSEED that differs from this process's."""
    return "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"


def child_setups(args, count: int):
    """(set-up seconds, peak RSS MB) of ``count`` fresh processes, one after
    another, and the first one's digest prefix.

    Each child runs the workload's memory probe after set-up.  The first
    then runs the operations the digest covers, under another string-hash
    seed, so that an outcome which depends on the process (set or dict
    order, say) fails the run instead of only changing the printed digest."""
    samples, prefix = [], None
    for index in range(count):
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only"]
        env = os.environ
        if index == 0:
            command.append("--check-prefix")
            env = dict(os.environ, PYTHONHASHSEED=other_hash_seed())
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["peak_rss_mb"]))
        prefix = prefix or sample.get("prefix")
    return samples, prefix


def time_calibration(samples: int = 1) -> float:
    """Median time of ``samples`` calibration loops."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        metrics.calibration()
        times.append(perf_counter() - start)
    return metrics.median(times)


def peak_rss_mb() -> float:
    """This process's peak resident set.

    Read from VmHWM: ``ru_maxrss`` of a child survives ``exec`` and would
    report the parent's peak instead of the child's own."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """Runs operations in order and keeps what the checks need."""

    def __init__(self, workload, state, calibrate: bool = False):
        self.workload = workload
        self.state = state
        self.calibrate = calibrate
        self.specs = workload.specs(state)
        self.seconds, self.extras, self.records = [], [], []
        self.failed = 0
        self.digest_counts = {}
        self.replay_counts = {}
        self.calibrations = []
        self.calibration_marks = []
        self._seen = {}
        self._calibrated = perf_counter()

    def step(self, tracer=None):
        spec = next(self.specs)
        if tracer is None:
            elapsed, record, ok, extra = self.workload.run_op(self.state, spec)
        else:
            tracer.op_id += 1
            frame = tracer.open(self.workload.op_span(spec))
            try:
                elapsed, record, ok, extra = self.workload.run_op(self.state, spec)
            finally:
                tracer.close(frame)
        key = self.workload.key(spec)
        if key is not None:
            first = self._seen.setdefault(key, record)
            ok = ok and first == record
        self.failed += not ok
        self.seconds.append(elapsed)
        self.extras.append(extra)
        self.records.append(record)
        done = len(self.records)
        if done == self.workload.trace_ops:
            self.digest_counts = self.workload.counts(self.state)
        if done == self.workload.replay:
            self.replay_counts = self.workload.counts(self.state)
        since = perf_counter() - self._calibrated
        if self.calibrate and since >= CALIBRATE_EVERY_S:
            samples = round(CALIBRATE_SHARE * since / metrics.CALIBRATION_REFERENCE_S)
            self.calibrations.append(
                time_calibration(min(max(samples, 1), CALIBRATE_MAX_SAMPLES)))
            self.calibration_marks.append(done)
            self._calibrated = perf_counter()

    def digest(self) -> str:
        return metrics.digest(self.records[:self.workload.trace_ops], self.digest_counts)


def replay_failures(workload, state, loop: Loop) -> int:
    """Re-run the first operations on fresh state; each differing record fails."""
    if not workload.replay:
        return 0
    again = Loop(workload, workload.fresh(state))
    for _ in range(workload.replay):
        again.step()
    failed = again.failed + sum(
        1 for old, new in zip(loop.records, again.records) if old != new)
    return failed + (again.replay_counts != loop.replay_counts)


def as_json(value):
    """``value`` as it reads back from a child's JSON output."""
    return json.loads(json.dumps(value, default=repr))


def prefix_failures(loop: Loop, prefix) -> int:
    """Compare the digest prefix with the one a fresh process ran: its own
    failures, each differing or missing record, and differing counts fail."""
    mine = as_json(loop.records[:loop.workload.trace_ops])
    theirs = prefix["records"]
    failed = prefix["failed"] + abs(len(mine) - len(theirs)) + sum(
        1 for old, new in zip(mine, theirs) if old != new)
    return failed + (as_json(loop.digest_counts) != prefix["counts"])


def timed_run(args, workload, state, setup_s: float):
    loop = Loop(workload, state, calibrate=True)
    started = perf_counter()
    while True:
        loop.step()
        done = len(loop.records)
        if (done >= workload.min_ops and done % workload.batch == 0
                and perf_counter() - started >= args.seconds):
            break
    checks = workload.checks(loop.extras)
    children, prefix = child_setups(args, SETUP_SAMPLES - 1)
    attempted = len(loop.records) + workload.replay + workload.trace_ops + len(checks)
    failed = (loop.failed + replay_failures(workload, state, loop)
              + prefix_failures(loop, prefix) + checks.count(False))
    factor = metrics.speed_factor(loop.calibrations)
    local = metrics.local_speed_factors(loop.calibration_marks, loop.calibrations,
                                        len(loop.seconds))
    setups = [setup_s * factor] + [child[0] for child in children]
    summary = workload.summarize(
        [elapsed * scale for elapsed, scale in zip(loop.seconds, local)],
        [{key: value * scale if key.endswith("_s") else value
          for key, value in extra.items()} for extra, scale in zip(loop.extras, local)])
    summary["setup_s"] = metrics.median(setups)
    summary["peak_rss_mb"] = (metrics.median([child[1] for child in children])
                              if workload.probe_ops else peak_rss_mb())
    print(f"operations: {len(loop.records)} timed + {workload.replay} replayed + "
          f"{workload.trace_ops} in a fresh process; whole-run checks passed: "
          f"{checks.count(True)}/{len(checks)}; "
          f"set-ups: {', '.join(f'{value:.3f}' for value in setups)} s")
    print(f"speed factor: {factor:.4f} (calibration median "
          f"{metrics.median(loop.calibrations) * 1e6:.1f} us over {len(loop.calibrations)} "
          f"samples; times below are scaled to the reference machine)")
    print(f"digest: {loop.digest()}  (first {workload.trace_ops} outcomes"
          f"{' + ' + json.dumps(loop.digest_counts) if loop.digest_counts else ''}); "
          f"fresh process with PYTHONHASHSEED={other_hash_seed()}: "
          f"{metrics.digest(prefix['records'], prefix['counts'])}")
    for name, value in summary.items():
        if name not in dict(END_TO_END):
            print(f"  {name:<34} {value:.6g}")
    print("end-to-end metrics:")
    for name, unit in END_TO_END:
        print(f"  {name:<34} {summary[name]:<14.6g} {unit}")
    print("workload-specific names:")
    print(f"  {'failed_share':<34} {failed / attempted:<14.6g} share")
    for alias, source, scale, unit in ALIASES[workload.name]:
        print(f"  {alias:<34} {summary[source] * scale:<14.6g} {unit}")
    result = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, result


def traced_run(workload, state, spans_path: str):
    from perfbench.tracing import Instrumentation, Tracer

    untraced = Loop(workload, workload.fresh(state))
    traced = Loop(workload, workload.fresh(state))
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    # Each operation runs untraced and traced back to back, in alternating
    # order, so both see the same machine speed and warm-up.
    untraced_wall = wall = 0.0
    for index in range(workload.trace_ops):
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                instrumentation.apply()
                try:
                    started = perf_counter()
                    traced.step(tracer)
                    wall += perf_counter() - started
                finally:
                    instrumentation.remove()
            else:
                started = perf_counter()
                untraced.step()
                untraced_wall += perf_counter() - started
    slowdown = wall / untraced_wall

    mismatched = sum(1 for a, b in zip(untraced.records, traced.records) if a != b)
    attempted = 2 * workload.trace_ops
    failed = untraced.failed + traced.failed + mismatched

    self_s = metrics.self_by_name(tracer.spans)
    self_s.update(tracer.busy)
    counts = tracer.counts
    values = {}
    for name in PER_LAYER_SELF:
        values[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in PER_LAYER_COUNTS:
        values[name] = (counts.get(name, 0), "count")
    delivered = counts.get("exploit.deliver.calls", 0)
    values["exploit.success_ratio"] = (
        counts.get("exploit.roots", 0) / delivered if delivered else 0.0, "ratio")
    gets = counts.get("connman.cache.get", 0)
    values["connman.cache.hit_ratio"] = (
        counts.get("connman.cache.hits", 0) / gets if gets else 0.0, "ratio")
    inclusive = {}
    for _sid, name, start, end, *_rest in tracer.spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    for experiment_id in REGISTRY_IDS:
        name = f"registry.{experiment_id}"
        values[f"{name}.s"] = (inclusive.get(name, 0.0), "s")
    rows = metrics.where_time_goes(self_s, wall, {
        layer: {key: value for key, value in counts.items()
                if key.startswith(layer + ".") and not key.endswith((".hits", ".get", ".roots"))}
        for layer in metrics.LAYERS})
    values["trace.wall_s"] = (wall, "s")
    values["trace.untraced_wall_s"] = (untraced_wall, "s")
    values["trace.unattributed_s"] = (rows[-1][1], "s")
    values["trace.slowdown"] = (slowdown, "ratio")

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as out:
        for sid, name, start, end, parent, op_id, counter_busy in tracer.spans:
            out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                  "parent": parent, "op": op_id,
                                  "counter_busy": counter_busy}) + "\n")

    print(f"traced work: {workload.trace_ops} operations, twice; digest "
          f"{untraced.digest()} untraced, {traced.digest()} traced")
    print(f"count digest: {metrics.digest([], counts)}  ({len(tracer.spans)} spans "
          f"in {os.path.relpath(spans_path, ROOT)})")
    print(f"where time goes (traced wall {wall:.3f} s; untraced {untraced_wall:.3f} s; "
          f"tracing overhead x{slowdown:.2f}):")
    for layer, seconds, share, work in rows:
        print(f"  {layer:<13} {seconds:>9.4f} s {share:>7.1%}  {work}")
    print(f"  {'total':<13} {sum(row[1] for row in rows):>9.4f} s")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return attempted, failed, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        before = time_calibration(9)
    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's source (src/repro) is not here", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = all_workloads(OUT_DIR)[args.workload]
    state = workload.setup(args.seed)
    setup_s = perf_counter() - started
    if args.setup_only:
        factor = metrics.speed_factor([before, time_calibration(9)])
        workload.memory_probe(state)
        sample = {"setup_s": setup_s * factor, "peak_rss_mb": peak_rss_mb()}
        if args.check_prefix:
            loop = Loop(workload, workload.fresh(state))
            for _ in range(workload.trace_ops):
                loop.step()
            sample["prefix"] = {"records": as_json(loop.records), "failed": loop.failed,
                                "counts": as_json(loop.digest_counts)}
        print(json.dumps(sample))
        return 0
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: {workload.why}")
    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
        attempted, failed, result = traced_run(workload, state, spans_path)
    else:
        attempted, failed, result = timed_run(args, workload, state, setup_s)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
