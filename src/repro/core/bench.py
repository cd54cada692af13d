"""Microbenchmark harness for the emulation core.

One benchmark per architecture, ``<arch>-tight-loop`` (kind
``decode-cache``): the emulator steps a tight self-branching loop (9
distinct instructions executed tens of thousands of times) with the decode
cache off vs on — every uncached step pays a ``decode()`` call, steady
cached state is all cache hits.

Deterministic quantities (decode-call counts) come straight from the
cache's own counters and are asserted hard; wall-clock numbers are
environment-dependent and recorded for trend tracking, compared only via
machine-normalized ratios.

``collect_baseline`` emits the ``repro-bench/v2`` JSON payload committed
under ``benchmarks/``; ``validate_baseline`` is the CI smoke check, and
``compare_baseline`` is the regression gate: a fresh payload is compared
against the committed one with noise-tolerant thresholds (deterministic
quantities exactly; throughput via the cached/uncached ratio so a slower CI
runner cannot fake a regression).  Every gated run appends one line to the
``benchmarks/trajectory.jsonl`` perf history.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..cpu import Process, make_emulator
from ..cpu.arm.asm import add_imm, b as arm_b
from ..mem import AddressSpace, Perm, Segment
from ..obs.metrics import Histogram

#: v2 added the per-entry ``kind`` discriminator; v1 payloads no longer
#: validate.
BENCH_SCHEMA = "repro-bench/v2"

#: Step-latency histogram bounds, in microseconds.
STEP_US_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0)

_CODE_BASE = 0x0804_8000

#: The committed-baseline acceptance floor: caching must cut decode() calls
#: by at least this factor on the tight loop.
MIN_DECODE_CALL_RATIO = 3.0


def _loop_code(arch: str) -> bytes:
    """A 9-instruction infinite loop (8 increments + a back branch).

    The x86 loop is eight ``inc eax`` one-byte opcodes and a ``jmp rel8``
    back to the top; the ARM loop is eight ``add r1, r1, #1`` words and an
    unconditional ``b`` (the emulated ARM subset has no conditional
    branches, so the loop never terminates — the harness bounds it by step
    count, not by control flow).
    """
    if arch == "x86":
        return b"\x40" * 8 + b"\xeb\xf6"  # jmp rel8 back to _CODE_BASE
    body = b"".join(add_imm("r1", "r1", 1) for _ in range(8))
    return body + arm_b(_CODE_BASE + len(body), _CODE_BASE)


def _build_loop_emulator(arch: str):
    """A minimal process whose pc sits on the benchmark loop (R|X text)."""
    memory = AddressSpace()
    code = _loop_code(arch)
    memory.map(Segment(".text", _CODE_BASE, 0x1000, Perm.R | Perm.X))
    memory.write(_CODE_BASE, code, check=False)  # loader-style text install
    process = Process(arch, memory, name=f"bench-{arch}")
    process.pc = _CODE_BASE
    return make_emulator(process)


def run_microbench(arch: str = "x86", steps: int = 12_000, *,
                   cache_enabled: bool = True) -> Dict[str, object]:
    """Run ``steps`` emulated instructions; report decode/wall counters.

    Steps the emulator directly (no run-loop budget, no native dispatch)
    so the numbers isolate the fetch-decode-execute path.  The per-step
    latency histogram uses the opt-in ``step_timer`` hook — the same one
    the normal (deterministic) paths leave unset.
    """
    emulator = _build_loop_emulator(arch)
    process = emulator.process
    cache = process.decode_cache
    cache.enabled = cache_enabled
    timer = Histogram("step_us", STEP_US_BUCKETS)
    started = perf_counter()
    for _ in range(steps):
        step_started = perf_counter()
        emulator.step()
        timer.observe((perf_counter() - step_started) * 1e6)
    wall_s = max(perf_counter() - started, 1e-9)
    return {
        "arch": arch,
        "steps": steps,
        "cache_enabled": cache_enabled,
        "decode_calls": cache.misses,
        "cache_hits": cache.hits,
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "step_us": {
            "mean": timer.mean,
            "min": timer.min,
            "max": timer.max,
            "count": timer.count,
        },
    }


def collect_baseline(steps: int = 12_000,
                     arches: Sequence[str] = ("x86", "arm")) -> Dict[str, object]:
    """Decode cache off-vs-on comparison per arch (the BENCH payload)."""
    benchmarks = []
    for arch in arches:
        baseline = run_microbench(arch, steps, cache_enabled=False)
        cached = run_microbench(arch, steps, cache_enabled=True)
        benchmarks.append({
            "name": f"{arch}-tight-loop",
            "kind": "decode-cache",
            "arch": arch,
            "steps": steps,
            "baseline": baseline,
            "cached": cached,
            "decode_call_ratio": baseline["decode_calls"] / max(cached["decode_calls"], 1),
            "wall_speedup": baseline["wall_s"] / cached["wall_s"],
        })
    return {"schema": BENCH_SCHEMA, "steps": steps, "benchmarks": benchmarks}


def _require_number(value, where: str) -> None:
    """ValueError unless ``value`` is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")


def validate_baseline(payload: Dict[str, object]) -> Dict[str, object]:
    """Structural + invariant checks for a BENCH payload; raises ValueError.

    Only deterministic quantities are asserted hard (decode-call counts and
    their ratio); wall-clock fields just have to be positive numbers, so
    the check never flakes on a loaded CI runner.  Any malformed payload —
    a non-object entry, a missing or non-numeric field — is a ValueError,
    never a crash further down the gate.
    """
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"bench payload schema must be {BENCH_SCHEMA!r}")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError("bench payload has no benchmarks")
    for index, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            raise ValueError(f"benchmark #{index} must be an object, "
                             f"got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValueError(f"benchmark #{index}: name must be a string, "
                             f"got {name!r}")
        kind = entry.get("kind")
        if kind != "decode-cache":
            raise ValueError(f"{name}: unknown benchmark kind {kind!r}")
        for key in ("arch", "steps", "baseline", "cached", "wall_speedup",
                    "decode_call_ratio"):
            if key not in entry:
                raise ValueError(f"{name}: missing {key!r}")
        for key in ("wall_speedup", "decode_call_ratio"):
            _require_number(entry[key], f"{name}.{key}")
        for side in ("baseline", "cached"):
            run = entry[side]
            if not isinstance(run, dict):
                raise ValueError(f"{name}.{side} must be an object, "
                                 f"got {run!r}")
            for key in ("steps", "decode_calls", "cache_hits", "wall_s",
                        "steps_per_s"):
                if key not in run:
                    raise ValueError(f"{name}.{side}: missing {key!r}")
                _require_number(run[key], f"{name}.{side}.{key}")
            if run["wall_s"] <= 0 or run["steps_per_s"] <= 0:
                raise ValueError(f"{name}.{side}: non-positive wall fields")
        if entry["baseline"]["decode_calls"] != entry["baseline"]["steps"]:
            raise ValueError(
                f"{name}: uncached run must decode every step "
                f"({entry['baseline']['decode_calls']} != {entry['baseline']['steps']})"
            )
        if entry["decode_call_ratio"] < MIN_DECODE_CALL_RATIO:
            raise ValueError(
                f"{name}: decode_call_ratio {entry['decode_call_ratio']:.2f} "
                f"below the {MIN_DECODE_CALL_RATIO}x acceptance floor"
            )
    return payload


# -- profiled attribution --------------------------------------------------------

ATTRIBUTION_SCHEMA = "repro-bench-attribution/v1"


def profile_attribution(steps: int = 12_000,
                        arches: Sequence[str] = ("x86", "arm"),
                        *, top: int = 8) -> Dict[str, object]:
    """Per-opcode attribution of the benchmark loop.

    Runs the same loop through ``Emulator.run`` (the path every experiment
    takes) with a :class:`~repro.obs.profiler.DeterministicProfiler`
    attached (stack sampling off — this is pure cost attribution), so a
    perf PR can show *which* opcodes it sped up, not just the aggregate
    ratio.
    The wall-clock correlation rides the separate opt-in
    :class:`~repro.obs.profiler.WallClockProfiler` layer: deterministic
    attribution and machine-dependent steps/second never mix.
    """
    from ..obs.profiler import DeterministicProfiler, WallClockProfiler

    wall = WallClockProfiler()
    entries: List[Dict[str, object]] = []
    for arch in arches:
        emulator = _build_loop_emulator(arch)
        process = emulator.process
        profiler = DeterministicProfiler(sample_interval=0)
        process.profiler = profiler
        with wall.section(f"{arch}-tight-loop") as section:
            result = emulator.run(max_steps=steps)
        section.steps = result.steps
        data = profiler.data
        entries.append({
            "arch": arch,
            "steps": result.steps,
            "top_opcodes": [
                {"opcode": name, "steps": count}
                for name, count in data.opcode_table(top)
            ],
            "cache": dict(sorted(data.cache.items())),
        })
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "steps": steps,
        "benchmarks": entries,
        "wall": wall.to_dict(),
    }


def describe_attribution(payload: Dict[str, object]) -> str:
    """Text rendering of a :func:`profile_attribution` payload."""
    lines = []
    wall_by_label = {
        section["label"]: section
        for section in payload.get("wall", {}).get("sections", [])
    }
    for entry in payload["benchmarks"]:
        arch = entry["arch"]
        lines.append(f"ATTRIBUTION {arch}: {entry['steps']} steps")
        total = max(entry["steps"], 1)
        for row in entry["top_opcodes"]:
            lines.append(
                f"  {row['opcode']:<10} {row['steps']:>8} "
                f"{100.0 * row['steps'] / total:5.1f}%")
        wall = wall_by_label.get(f"{arch}-tight-loop")
        if wall is not None and wall.get("steps_per_second"):
            lines.append(
                f"  wall correlation: {wall['wall_seconds']:.4f}s "
                f"({wall['steps_per_second']:.0f} steps/s, "
                f"machine-dependent)")
    return "\n".join(lines)


# -- regression gate -------------------------------------------------------------

COMPARE_SCHEMA = "repro-bench-compare/v1"
TRAJECTORY_SCHEMA = "repro-bench-trajectory/v1"

#: Cached throughput may lose at most this fraction (machine-normalized)
#: before the gate trips — wall-clock noise tolerance, not a free pass.
MAX_CACHED_DROP = 0.25


def _speedup(entry: Dict[str, object]) -> float:
    """Cached-vs-uncached throughput ratio within one payload.

    Both runs execute on the same machine in the same process, so their
    ratio cancels machine speed out — it is the noise-tolerant form of
    "cached ``steps_per_s``" that survives a loaded CI runner.
    """
    return (entry["cached"]["steps_per_s"] /
            entry["baseline"]["steps_per_s"])


def compare_baseline(old: Dict[str, object], new: Dict[str, object], *,
                     max_drop: float = MAX_CACHED_DROP) -> Dict[str, object]:
    """Regression verdict for ``new`` measured against baseline ``old``.

    Per-benchmark checks, deterministic ones asserted exactly:

    - the benchmark must still exist (a silently dropped benchmark is a
      regression, not a cleanup);
    - the decode-call floor must not regress — steady-state
      ``decode_calls`` with the cache enabled may not exceed the
      baseline's;
    - normalized cached throughput (cached/uncached
      ``steps_per_s`` ratio) may not drop more than ``max_drop`` below the
      baseline's ratio.

    Returns a report dict (never raises on a regression — the caller
    decides the exit code); raises ``ValueError`` only when either
    payload fails :func:`validate_baseline`.
    """
    validate_baseline(old)
    validate_baseline(new)
    new_by_name = {entry["name"]: entry for entry in new["benchmarks"]}
    checks: List[Dict[str, object]] = []
    for entry in old["benchmarks"]:
        name = entry["name"]
        fresh = new_by_name.get(name)
        if fresh is None:
            checks.append({
                "name": name, "check": "present", "old": True, "new": False,
                "ok": False, "detail": "benchmark missing from fresh payload",
            })
            continue
        old_calls = entry["cached"]["decode_calls"]
        new_calls = fresh["cached"]["decode_calls"]
        checks.append({
            "name": name, "check": "decode_call_floor",
            "old": old_calls, "new": new_calls, "ok": new_calls <= old_calls,
            "detail": f"cached decode() calls {old_calls} -> {new_calls}",
        })
        old_speedup = _speedup(entry)
        new_speedup = _speedup(fresh)
        floor = (1.0 - max_drop) * old_speedup
        checks.append({
            "name": name, "check": "cached_throughput",
            "old": round(old_speedup, 4), "new": round(new_speedup, 4),
            "ok": new_speedup >= floor,
            "detail": (f"normalized cached throughput "
                       f"{old_speedup:.2f}x -> {new_speedup:.2f}x "
                       f"(floor {floor:.2f}x)"),
        })
    return {
        "schema": COMPARE_SCHEMA,
        "ok": all(check["ok"] for check in checks),
        "max_drop": max_drop,
        "checks": checks,
    }


def describe_comparison(result: Dict[str, object]) -> str:
    lines = []
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        lines.append(f"GATE {status} {check['name']}.{check['check']}: "
                     f"{check['detail']}")
    verdict = "pass" if result["ok"] else "REGRESSION"
    lines.append(f"GATE verdict: {verdict} "
                 f"(throughput tolerance {result['max_drop']:.0%})")
    return "\n".join(lines)


def trajectory_entry(payload: Dict[str, object],
                     compare_ok: Optional[bool] = None,
                     when: Optional[str] = None,
                     attribution: Optional[Dict[str, object]] = None
                     ) -> Dict[str, object]:
    """One compact perf-history line for ``benchmarks/trajectory.jsonl``.

    ``attribution`` (a :func:`profile_attribution` payload) rides along
    so future perf PRs can show *which* opcodes they sped up; the
    wall section is dropped — history lines stay machine-comparable.
    """
    entry = {
        "schema": TRAJECTORY_SCHEMA,
        "when": when or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "steps": payload["steps"],
        "compare_ok": compare_ok,
        "benchmarks": [_trajectory_benchmark(entry)
                       for entry in payload["benchmarks"]],
    }
    if attribution is not None:
        entry["attribution"] = {
            "schema": attribution["schema"],
            "steps": attribution["steps"],
            "benchmarks": attribution["benchmarks"],
        }
    return entry


def _trajectory_benchmark(entry: Dict[str, object]) -> Dict[str, object]:
    return {
        "name": entry["name"],
        "kind": entry["kind"],
        "cached_steps_per_s": round(entry["cached"]["steps_per_s"], 1),
        "baseline_steps_per_s": round(entry["baseline"]["steps_per_s"], 1),
        "wall_speedup": round(entry["wall_speedup"], 3),
        "decode_call_ratio": round(entry["decode_call_ratio"], 2),
    }


def append_trajectory(path: str, entry: Dict[str, object]) -> None:
    """Append one JSON line; creates the history file on first use."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
