"""Parameter sweeps — the figure-series experiments.

E15 sweeps ASLR entropy against the brute-force attack: the defining
weakness of 32-bit randomization is that attempts scale *linearly* with
the randomization span, and IoT-class devices cannot afford wide spans.
The series regenerates the classic "expected attempts ≈ entropy" curve and
shows the medians tracking the span as it grows 16 → 1024 pages.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Sequence

from ..exploit import BruteForceResult, BruteForceTrial, run_bruteforce_trial
from .registry import derive_seed

DEFAULT_ENTROPY_SERIES = (16, 64, 256, 1024)

#: Seed namespace of the series' victim/attacker streams.
ENTROPY_SEED_KEY = "E15.entropy"


@dataclass(frozen=True)
class EntropyPoint:
    entropy_pages: int
    attempts: List[int]

    @property
    def median_attempts(self) -> float:
        return statistics.median(self.attempts)

    @property
    def expected_attempts(self) -> float:
        """The randomization span — the order-of-magnitude yardstick (the
        geometric distribution's median is ~0.69x this)."""
        return float(self.entropy_pages)

    @property
    def plausible(self) -> bool:
        """Per-point sanity: every run succeeded, and the median did not
        exceed the span by more than the heavy geometric tail allows.

        (A lower bound is deliberately not checked per point — small
        samples of a geometric distribution routinely draw lucky tiny
        values; the cross-point scaling check carries the real claim.)
        """
        if not self.attempts:
            return False
        return self.median_attempts <= self.expected_attempts * 16

    def row(self):
        return (
            self.entropy_pages,
            f"{self.median_attempts:.0f}",
            f"{min(self.attempts)}..{max(self.attempts)}",
        )


def entropy_trials(entropy_series: Sequence[int] = DEFAULT_ENTROPY_SERIES,
                   runs_per_point: int = 5,
                   seed: int = 0xE15) -> List[BruteForceTrial]:
    """Every (entropy, run) brute-force trial, each with its own seeds.

    Seeds come from :func:`~repro.core.registry.derive_seed` (crc32 over
    ``namespace/entropy/run/role``).  The old XOR-plus-one stacking made
    run N's attacker share run N+1's victim stream (``(base^run)+1 ==
    base^(run+1)`` whenever ``run`` is even), quietly correlating
    adjacent trials of the very independence this series measures.
    """
    return [
        BruteForceTrial(
            victim_seed=seed ^ derive_seed(
                ENTROPY_SEED_KEY, entropy, run, "victim"),
            attacker_seed=seed ^ derive_seed(
                ENTROPY_SEED_KEY, entropy, run, "attacker"),
            max_attempts=entropy * 16,
            entropy_pages=entropy,
        )
        for entropy in entropy_series
        for run in range(runs_per_point)
    ]


def entropy_points(entropy_series: Sequence[int], runs_per_point: int,
                   results: Sequence[BruteForceResult]) -> List[EntropyPoint]:
    """Fold :func:`entropy_trials`' positional results into the series.

    The medians need every trial, so a trial that did not succeed is an
    error, not a data point.
    """
    points: List[EntropyPoint] = []
    for index, entropy in enumerate(entropy_series):
        slice_ = results[index * runs_per_point : (index + 1) * runs_per_point]
        for run, result in enumerate(slice_):
            assert result.succeeded, (entropy, run)
        points.append(
            EntropyPoint(entropy_pages=entropy,
                         attempts=[result.attempts for result in slice_])
        )
    return points


def sweep_bruteforce_entropy(
    entropy_series: Sequence[int] = DEFAULT_ENTROPY_SERIES,
    runs_per_point: int = 5,
    seed: int = 0xE15,
) -> List[EntropyPoint]:
    """Median brute-force attempts as the randomization span grows.

    One trial after the other, in process; ``repro run E15`` runs the same
    trials through the registry's supervised, journaled fan-out.
    """
    trials = entropy_trials(entropy_series, runs_per_point, seed)
    return entropy_points(entropy_series, runs_per_point,
                          [run_bruteforce_trial(trial) for trial in trials])
