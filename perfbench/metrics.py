"""Pure measurement logic: percentiles, geometric quantiles, digests, self time.

Nothing here imports the program under test, so the benchmark's own tests
exercise it without a checkout of ``src/``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: The layers of the program, named after its top-level packages.
LAYERS = ("exploit", "binfmt", "connman", "mem", "cpu", "dns", "net", "core")


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond percentile ``q``."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} is outside (0, 100)")
    return math.ceil(MIN_BEYOND * 100 / (100 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``values`` (linear interpolation between order
    statistics), refused when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    if len(values) < min_samples(q):
        raise TooFewSamples(
            f"p{q:g} needs {min_samples(q)} samples, got {len(values)}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def weighted_median(values: Sequence[float], weights: Sequence[float]) -> float:
    """The value below which half of the total weight lies."""
    pairs = sorted(zip(values, weights))
    half = sum(weights) / 2
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= half:
            return value
    raise TooFewSamples("weighted median of no weight")


def chunk_rate(seconds: Sequence[float], size: int) -> float:
    """Operations per second: the median over consecutive chunks of ``size``
    operations.  Slow spells on a shared machine hit a few chunks and leave
    the median alone, where they would drag a plain total."""
    rates = [size / sum(seconds[start:start + size])
             for start in range(0, len(seconds) - size + 1, size)]
    return median(rates)


def geometric_quantile(span: int, q: float) -> int:
    """Attempts needed to succeed with probability ``q`` when each attempt
    independently hits one slide out of ``span``."""
    if span < 1 or not 0 < q < 1:
        raise ValueError(f"bad span {span} or probability {q}")
    if span == 1:
        return 1
    return math.ceil(math.log(1 - q) / math.log(1 - 1 / span) - 1e-9)


#: Standard deviations the pooled attempt count may stray from the law.
LAW_Z = 5.0


def attempts_follow_law(trials: int, attempts: int, span: int) -> bool:
    """Whether ``attempts`` spent on ``trials`` roots fits one hit per
    ``span`` independent guesses.

    The total is a sum of geometric counts: mean ``trials * span`` and
    variance ``trials * (1 - p) / p**2``.  Within ``LAW_Z`` deviations of the
    mean passes; at 80 trials and a 64-page span that is ±2 840 around
    5 120, so a guess that hits half as often (10 240) fails.
    """
    if trials < 1 or span < 1:
        raise ValueError(f"bad trial count {trials} or span {span}")
    p = 1 / span
    spread = math.sqrt(trials * (1 - p)) / p
    return abs(attempts - trials * span) <= LAW_Z * spread


# -- machine-speed calibration ----------------------------------------------------

#: Median time of :func:`calibration` on the reference machine (a 2-core
#: Xeon VM).  Reported times are scaled to that speed: a run on a machine
#: (or in a spell) where the loop takes twice as long reports its times
#: halved.  Neighbours on a shared host swing raw times by up to 50%
#: between runs; the scaled times move by a fraction of that.
CALIBRATION_REFERENCE_S = 500e-6


class _Pair:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: bytes):
        self.number = number
        self.text = text


def calibration() -> int:
    """A fixed slice of interpreter work shaped like the program's own:
    small objects, dict and attribute access, byte packing, buffer
    allocation and copies, sorting."""
    table = {}
    for index in range(300):
        key = "n%d" % index
        table[key] = _Pair(index, key.encode())
    total = 0
    for pair in table.values():
        total += pair.number + len(pair.text)
    buffer = bytearray(1024)
    for offset in range(0, 1024, 4):
        buffer[offset:offset + 4] = offset.to_bytes(4, "little")
    for offset in range(0, 1024, 4):
        total += int.from_bytes(bytes(buffer[offset:offset + 4]), "little")
    for _ in range(40):
        page = bytearray(16384)
        page[100:200] = bytes(100)
        total += len(bytes(page))
    return total + sorted(range(1500, 0, -1))[0]


def speed_factor(calibration_s: Sequence[float]) -> float:
    """Multiply measured seconds by this to get reference-machine seconds."""
    return CALIBRATION_REFERENCE_S / median(calibration_s)


def local_speed_factors(marks: Sequence[int], calibration_s: Sequence[float],
                        operations: int) -> List[float]:
    """One speed factor per operation, from the calibration samples taken
    just before and just after it.

    ``marks[j]`` is how many operations had finished when sample ``j`` was
    taken.  The machine's speed swings within seconds (a neighbour on a
    shared core), so each operation is scaled by the speed measured around
    it rather than by a run-wide figure.
    """
    if not calibration_s:
        raise TooFewSamples("no calibration samples")
    factors = []
    for index in range(operations):
        after = bisect.bisect_left(marks, index + 1)
        around = calibration_s[max(0, after - 1):after + 1]  # before and after
        factors.append(CALIBRATION_REFERENCE_S * len(around) / sum(around))
    return factors


def digest(records: Iterable[object], counts: Mapping[str, int]) -> str:
    """Order-sensitive fingerprint of operation outcomes and work counts."""
    payload = json.dumps({"records": list(records), "counts": dict(counts)},
                         sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- spans -----------------------------------------------------------------------

#: One closed span: (span_id, name, start, end, parent_id, op_id, counter_busy).
#: ``counter_busy`` is time spent directly inside the span at counter-only
#: boundaries (guest memory), which covers the span like a child does.
Span = Tuple[int, str, float, float, int, int, float]


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span_id -> duration minus the part covered by its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _op, _busy in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ())) - busy
        for sid, _name, start, end, _parent, _op, busy in spans
    }


def layer_of(name: str) -> str:
    """The layer a span or counter name belongs to ('' when none)."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else ""


def self_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    own = self_times(spans)
    for sid, name, *_rest in spans:
        totals[name] = totals.get(name, 0.0) + own[sid]
    return totals


def where_time_goes(self_s: Mapping[str, float], wall: float,
                    work: Mapping[str, Mapping[str, int]]) -> List[Tuple[str, float, float, str]]:
    """Rows (layer, self_s, share of wall, work) plus the unattributed rest.

    ``self_s`` maps span/counter names to self time; names outside the
    layers (operation spans, trial wrappers) fall into the remainder, so
    the rows always add up to ``wall``.
    """
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer = layer_of(name)
        if layer:
            per_layer[layer] += seconds
    rows = []
    for layer in LAYERS:
        shown = ", ".join(f"{key}={value}" for key, value in sorted(work.get(layer, {}).items()))
        rows.append((layer, per_layer[layer], per_layer[layer] / wall, shown))
    rest = wall - sum(per_layer.values())
    rows.append(("unattributed", rest, rest / wall, ""))
    return rows
