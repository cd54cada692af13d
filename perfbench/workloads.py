"""The four workloads: seeded inputs, one operation each, correctness checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns, as an attacker waits for each crash and a
client waits for its answer.  Input generators and checkers are pure (no
import of the program), so the benchmark's tests run them on their own;
``setup`` and ``run_op`` drive the program only through public entry points.

Each ``run_op`` times exactly the program call a user waits for and
returns ``(seconds, record, ok, extra)``.  ``record`` is the deterministic
outcome that goes into the digest; two operations with the same ``key``
must produce the same record.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import random
from time import perf_counter
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from . import metrics

# -- bruteforce -----------------------------------------------------------------

#: Victim randomisation span (pages) — fixed, so the expected attempt count is too.
SPAN = 64
#: Per-trial budget; P(no root in 2048 guesses at 1/64) is about 1e-14.
MAX_ATTEMPTS = 2048


def bruteforce_trials(seed: int) -> Iterator[Tuple[int, int]]:
    """(victim_seed, attacker_seed) for each trial, forever."""
    rng = random.Random(f"bruteforce:{seed}")
    while True:
        yield rng.getrandbits(32), rng.getrandbits(32)


def check_trial(result, max_attempts: int = MAX_ATTEMPTS) -> bool:
    """A trial passes only with a root shell within its budget."""
    return (bool(result.succeeded) and 1 <= result.attempts <= max_attempts
            and result.winning_slide_pages is not None)


# -- attack_matrix ------------------------------------------------------------------

#: (arch, protection level, connman version, expected outcome): the six §III
#: cells, then the patched 1.35 control that must drop the overflow.
CELLS: Tuple[Tuple[str, str, str, str], ...] = tuple(
    (arch, level, "1.34", "root")
    for arch in ("x86", "arm") for level in ("none", "W^X", "W^X+ASLR")
) + (("x86", "none", "1.35", "dropped"),)


def matrix_order(seed: int) -> Iterator[Tuple[int, int]]:
    """(cell index, attack rng seed): rounds of all cells, each round in a
    seeded order, forever."""
    rng = random.Random(f"matrix:{seed}")
    while True:
        order = list(range(len(CELLS)))
        rng.shuffle(order)
        for index in order:
            yield index, rng.getrandbits(32)


def check_attack(expect: str, outcome: str) -> bool:
    """``outcome`` is ``ScenarioResult.outcome``: 'root shell' or the event."""
    if expect == "root":
        return outcome == "root shell"
    return outcome.startswith("dropped")


# -- dns_service ------------------------------------------------------------------------

#: More names than the 2 KiB guest cache holds (~70 entries of this length).
#: An assumption, not a measurement: a household of IoT devices asking for
#: a few hundred names.
POOL_SIZE = 256
#: Name popularity is Zipf-like; Jung, Sit, Balakrishnan and Morris, "DNS
#: performance and the effectiveness of caching" (IEEE/ACM Trans.
#: Networking 10(5), 2002), fit an exponent of about 0.91 to their MIT trace.
ZIPF_EXPONENT = 0.91
#: Simulated seconds per query, an assumption: with the 300 s TTL, entries
#: expire while popular names are still being asked for.  The run prints
#: the resulting miss share, against which a claimed gain can be checked.
CLOCK_STEP = 1
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_SUFFIXES = ("lan", "home.arpa", "iot.example", "cdn.example.net")
A_RECORD = 1


def name_pool(seed: int, size: int = POOL_SIZE) -> List[str]:
    """``size`` distinct short names, most popular first."""
    rng = random.Random(f"names:{seed}")
    names = set()
    while len(names) < size:
        label = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(4, 10)))
        names.add(f"{label}.{rng.choice(_SUFFIXES)}")
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


def zone_for(seed: int, names: Sequence[str]) -> Dict[str, str]:
    rng = random.Random(f"zone:{seed}")
    return {name: f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            for name in names}


def query_stream(seed: int, names: Sequence[str],
                 exponent: float = ZIPF_EXPONENT) -> Iterator[Tuple[int, str]]:
    """(query id, name), names Zipf-popular by their pool rank, forever."""
    rng = random.Random(f"queries:{seed}")
    cumulative, total = [], 0.0
    for rank in range(len(names)):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    while True:
        pick = bisect.bisect_left(cumulative, rng.random() * total)
        yield rng.randrange(1, 65536), names[min(pick, len(names) - 1)]


def check_answer(message, query_id: int, name: str, zone: Mapping[str, str]) -> bool:
    """The decoded answer must echo the query and carry the zone's A record."""
    if message is None or message.id != query_id or not message.is_response:
        return False
    return any(record.rtype == A_RECORD and record.name.lower() == name
               and record.address == zone[name] for record in message.answers)


# -- registry ------------------------------------------------------------------------------

#: Every registered experiment except E15 (~28 s, and its mechanism is the
#: bruteforce workload).
REGISTRY_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                "E10", "E11", "E12", "E13", "E14", "E16")


def registry_order(seed: int, ids: Sequence[str] = REGISTRY_IDS) -> Iterator[Tuple[int, str]]:
    """(pass number, experiment id): whole passes, each in a seeded order."""
    rng = random.Random(f"registry:{seed}")
    number = 0
    while True:
        order = list(ids)
        rng.shuffle(order)
        for experiment_id in order:
            yield number, experiment_id
        number += 1


def check_experiment(run_ok: bool, rows: Sequence[Mapping[str, Any]]) -> bool:
    """The run is ``ok`` and every artifact row passed as expected."""
    return bool(run_ok) and bool(rows) and all(
        row.get("outcome") == "pass" and row.get("expected") is True for row in rows)


# -- the workloads -------------------------------------------------------------------


class Workload:
    """One named workload; subclasses fill in set-up and the operation."""

    name = ""
    why = ""
    #: Fixed work of the traced run, and the prefix the digest covers.
    trace_ops = 1
    #: Operations one timed run covers at least: the digest prefix and
    #: enough samples for ``tail_q``.
    min_ops = 1
    #: Runs stop on a multiple of this (a whole round or pass).
    batch = 1
    #: Operations re-run on fresh state after the timed loop to check that
    #: they repeat (workloads whose operations never repeat by key).
    replay = 0
    tail_q = 90.0
    #: Operations a fresh process runs after set-up so that its peak RSS is
    #: the workload's memory figure; 0 takes this process's own peak.  A
    #: timed run's peak grows with the operations it keeps records of, so
    #: it would move with the machine's speed.
    probe_ops = 0

    def setup(self, seed: int):
        raise NotImplementedError

    def specs(self, state) -> Iterator[Any]:
        raise NotImplementedError

    def fresh(self, state):
        """State for replaying the first operations again."""
        return state

    def memory_probe(self, state):
        """The fixed work behind ``peak_rss_mb``: the first ``probe_ops``
        operations, their records dropped."""
        specs = self.specs(state)
        for _ in range(self.probe_ops):
            self.run_op(state, next(specs))

    def run_op(self, state, spec) -> Tuple[float, Any, bool, Dict[str, float]]:
        raise NotImplementedError

    def key(self, spec) -> Any:
        """Operations with equal keys must produce equal records."""
        return None

    def op_span(self, spec) -> str:
        """Name of the traced span around one operation."""
        return "op"

    def counts(self, state) -> Dict[str, int]:
        """Deterministic work counts that join the digest."""
        return {}

    def checks(self, extras: List[Dict[str, float]]) -> List[bool]:
        """Whole-run checks; each counts as one more attempted operation."""
        return []

    def summarize(self, seconds: List[float], extras: List[Dict[str, float]]) -> Dict[str, float]:
        """ops_per_s, latency_ms_p50, latency_ms_tail and printed extras."""
        return {
            "ops_per_s": metrics.chunk_rate(seconds, self.batch),
            "latency_ms_p50": metrics.percentile(seconds, 50) * 1e3,
            "latency_ms_tail": metrics.percentile(seconds, self.tail_q) * 1e3,
        }


class BruteForce(Workload):
    name = "bruteforce"
    why = "ret2libc guesses against a respawning x86 W^X+ASLR victim at a 64-page span"
    trace_ops = min_ops = 12
    replay = 1
    probe_ops = 1

    def setup(self, seed: int):
        from repro.exploit.bruteforce import BruteForceTrial, run_bruteforce_trial

        # First boot, recon and one attempt, so no timed trial pays for
        # lazy imports.
        run_bruteforce_trial(BruteForceTrial(0, 0, 1, entropy_pages=SPAN))
        return {"seed": seed, "trial": BruteForceTrial, "run": run_bruteforce_trial}

    def specs(self, state):
        return bruteforce_trials(state["seed"])

    def memory_probe(self, state):
        """One trial held to the p90 attempt count.

        The victim keeps every crashed attempt's event (~0.35 MB each) for
        the life of a trial, so the main loop's peak is set by its longest
        trial — luck that spreads it by ~30% between seeds.  With the
        return-address guard on every guess crashes, so the trial runs
        exactly that many attempts whatever the seed.
        """
        attempts = metrics.geometric_quantile(SPAN, 0.9)
        state["run"](state["trial"](state["seed"], state["seed"], attempts,
                                    entropy_pages=SPAN, ret_guard=True))

    def run_op(self, state, spec):
        trial = state["trial"](spec[0], spec[1], MAX_ATTEMPTS, entropy_pages=SPAN)
        probe = state["trial"](spec[0], spec[1], 0, entropy_pages=SPAN)
        start = perf_counter()
        state["run"](probe)  # boot + bench copy + recon, no attempt
        middle = perf_counter()
        result = state["run"](trial)
        end = perf_counter()
        record = [result.attempts, result.winning_slide_pages, result.daemon_boots]
        extra = {"attempts": result.attempts, "probe_s": middle - start}
        return end - middle, record, check_trial(result), extra

    def checks(self, extras):
        """The run's trials must spend the attempts the law predicts, or
        the time to root below (which assumes it) is not the real one."""
        return [metrics.attempts_follow_law(
            len(extras), sum(extra["attempts"] for extra in extras), SPAN)]

    def summarize(self, seconds, extras):
        """The two measured costs, and time to root from the law.

        The attempts a trial needs are geometric (p = 1/SPAN), so measured
        per-trial times spread by ~30% between seeds even over 60 trials.
        What is gated is therefore the cost of one attempt (``ops_per_s``,
        the median over attempts of their trial's mean attempt cost), the
        per-trial set-up (``latency_ms_p50``, the median zero-attempt probe:
        boot, bench copy and recon), and the p90 time to root they give by
        the law (``latency_ms_tail``); ``checks`` holds the law to the run's
        own attempt counts.
        """
        setup = metrics.median([extra["probe_s"] for extra in extras])
        attempts = [extra["attempts"] for extra in extras]
        per_attempt = metrics.weighted_median(
            [(elapsed - setup) / count for elapsed, count in zip(seconds, attempts)],
            attempts)
        k50 = metrics.geometric_quantile(SPAN, 0.5)
        k90 = metrics.geometric_quantile(SPAN, 0.9)
        return {
            "ops_per_s": 1 / per_attempt,
            "latency_ms_p50": setup * 1e3,
            "latency_ms_tail": (setup + k90 * per_attempt) * 1e3,
            "time_to_root_ms_p50": (setup + k50 * per_attempt) * 1e3,
            "trials": len(seconds),
            "attempts": sum(attempts),
            "attempts_per_root": sum(attempts) / len(seconds),
            "attempt_ms": per_attempt * 1e3,
            "measured_time_to_root_ms_p50": metrics.median(seconds) * 1e3,
        }


class AttackMatrix(Workload):
    name = "attack_matrix"
    why = "the six paper cells plus a 1.35 control, each from scratch"
    trace_ops = 5 * len(CELLS)
    min_ops = metrics.min_samples(90)
    batch = len(CELLS)
    probe_ops = len(CELLS)

    def setup(self, seed: int):
        from repro.core.scenarios import AttackScenario, run_scenario
        from repro.defenses import PAPER_LEVELS

        profiles = dict(PAPER_LEVELS)
        scenarios = [AttackScenario(arch, level, profiles[level], version)
                     for arch, level, version, _expect in CELLS]
        for scenario in scenarios:  # first boot and recon of every cell
            run_scenario(scenario, random.Random(0))
        return {"seed": seed, "scenarios": scenarios, "run": run_scenario}

    def specs(self, state):
        return matrix_order(state["seed"])

    def memory_probe(self, state):
        """Every cell once in table order, so that the figure does not move
        with the seeded order of the timed run."""
        for index in range(self.probe_ops):
            self.run_op(state, (index, 0))

    def run_op(self, state, spec):
        index, rng_seed = spec
        scenario = state["scenarios"][index]
        start = perf_counter()
        result = state["run"](scenario, random.Random(rng_seed))
        elapsed = perf_counter() - start
        blob = result.exploit.blob if result.exploit is not None else b""
        record = [scenario.key, scenario.version, result.outcome,
                  result.exploit.strategy if result.exploit is not None else "-",
                  hashlib.sha256(blob).hexdigest()[:16]]
        return elapsed, record, check_attack(CELLS[index][3], result.outcome), {}

    def key(self, spec):
        return spec[0]


class DnsService(Workload):
    name = "dns_service"
    why = "benign Zipf-popular queries through the guest-memory cache to an upstream"
    trace_ops = min_ops = 2000
    batch = 200
    replay = 500
    tail_q = 90.0
    probe_ops = 1000

    def setup(self, seed: int):
        from repro.connman import ConnmanDaemon
        from repro.dns import Message, make_query
        from repro.dns.server import SimpleDnsServer

        names = name_pool(seed)
        state = {
            "seed": seed, "names": names, "zone": zone_for(seed, names),
            "daemon_class": ConnmanDaemon, "server_class": SimpleDnsServer,
            "make_query": make_query,
            # The client's own codec calls are bound here, before any
            # tracing, so they are not counted as the daemon's work.
            "encode": Message.encode, "decode": Message.decode,
        }
        return self.fresh(state)

    def fresh(self, state):
        state = dict(state)
        state["server"] = state["server_class"](zone=dict(state["zone"]))
        state["daemon"] = state["daemon_class"](
            arch="x86", rng=random.Random(state["seed"]))
        return state

    def specs(self, state):
        return query_stream(state["seed"], state["names"])

    def run_op(self, state, spec):
        query_id, name = spec
        packet = state["encode"](state["make_query"](query_id, name))
        daemon, server = state["daemon"], state["server"]
        upstream = len(server.log)
        start = perf_counter()
        answer = daemon.handle_client_query(packet, server.handle_query)
        elapsed = perf_counter() - start
        daemon.cache.advance(CLOCK_STEP)
        miss = len(server.log) > upstream
        message = state["decode"](answer) if answer is not None else None
        ok = check_answer(message, query_id, name, state["zone"])
        address = next((record.address for record in message.answers
                        if record.rtype == A_RECORD), None) if message else None
        return elapsed, [name, address], ok, {"miss": miss}

    def counts(self, state):
        return {"upstream_queries": len(state["server"].log)}

    def summarize(self, seconds, extras):
        """The gated tail is p90: misses (the upstream round trip and the
        guest parse) start near p60, while p99 lands on the rare table
        compactions and spreads by ~15% between seeds.  p99 is printed, and
        so are the miss share and the hit and miss medians, the mix that
        decides which layer dominates."""
        summary = super().summarize(seconds, extras)
        summary["query_ms_p99"] = metrics.percentile(seconds, 99) * 1e3
        hits = [elapsed for elapsed, extra in zip(seconds, extras) if not extra["miss"]]
        misses = [elapsed for elapsed, extra in zip(seconds, extras) if extra["miss"]]
        summary["miss_share"] = len(misses) / len(seconds)
        summary["hit_ms_p50"] = metrics.median(hits) * 1e3
        summary["miss_ms_p50"] = metrics.median(misses) * 1e3
        return summary


class Registry(Workload):
    name = "registry"
    why = "every registered experiment but E15, with artifacts written and validated"
    trace_ops = len(REGISTRY_IDS)
    min_ops = 4 * len(REGISTRY_IDS)
    batch = len(REGISTRY_IDS)

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def setup(self, seed: int):
        from repro.core import registry, resume

        registered = set(registry.experiment_ids()) - {"E15"}
        if registered != set(REGISTRY_IDS):
            raise RuntimeError(
                f"registry holds {sorted(registered)}, benchmark expects {list(REGISTRY_IDS)}")
        os.makedirs(self.out_dir, exist_ok=True)
        return {"seed": seed, "registry": registry, "resume": resume}

    def specs(self, state):
        return registry_order(state["seed"])

    def run_op(self, state, spec):
        _pass, experiment_id = spec
        registry, resume = state["registry"], state["resume"]
        path = os.path.join(self.out_dir, f"{experiment_id}.jsonl")
        # Each `repro run` starts in a fresh process; collecting first keeps
        # one experiment's garbage from being charged to the next one.
        gc.collect()
        start = perf_counter()
        run = registry.run_experiment(experiment_id, workers=1)
        document = run.to_artifact()
        resume.write_results(path, document["header"], document["rows"])
        _header, rows = resume.load_results(path)
        elapsed = perf_counter() - start
        with open(path, "rb") as handle:
            record = [experiment_id, hashlib.sha256(handle.read()).hexdigest()[:16]]
        return elapsed, record, check_experiment(run.ok, rows), {"id": experiment_id}

    def key(self, spec):
        return spec[1]

    def op_span(self, spec):
        return f"registry.{spec[1]}"

    def summarize(self, seconds, extras):
        """Per-experiment medians first: passes are too few (about six in
        twenty seconds) for a median over passes, and a percentile over the pooled
        samples would fall between two experiments' extremes.  ``ops_per_s``
        is experiments per second of a whole pass (``registry_s``, the sum
        of the medians); the tail is the slowest experiment's median."""
        by_id: Dict[str, List[float]] = {}
        for elapsed, extra in zip(seconds, extras):
            by_id.setdefault(extra["id"], []).append(elapsed)
        typical = {experiment_id: metrics.median(times) for experiment_id, times in by_id.items()}
        registry_s = sum(typical.values())
        slowest = max(typical, key=typical.get)
        return {
            "ops_per_s": len(typical) / registry_s,
            "latency_ms_p50": metrics.median(list(typical.values())) * 1e3,
            "latency_ms_tail": typical[slowest] * 1e3,
            "registry_s": registry_s,
            "passes": len(seconds) // len(typical),
        }


def all_workloads(out_dir: str) -> Dict[str, Workload]:
    return {workload.name: workload for workload in
            (BruteForce(), AttackMatrix(), DnsService(), Registry(out_dir))}
