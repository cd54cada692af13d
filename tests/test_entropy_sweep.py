"""E15 entropy sweep and the parameterizable ASLR span."""

import random

import pytest

from repro.connman import ConnmanDaemon
from repro.core import e15_entropy_sweep
from repro.core.sweeps import EntropyPoint, sweep_bruteforce_entropy
from repro.defenses import WX_ASLR
from repro.exploit import AslrBruteForcer


class TestParameterizedEntropy:
    def test_profile_carries_entropy(self):
        profile = WX_ASLR.with_(aslr_entropy_pages=32)
        assert profile.aslr_entropy_pages == 32
        assert WX_ASLR.aslr_entropy_pages == 256  # default unchanged

    def test_daemon_layout_respects_span(self):
        profile = WX_ASLR.with_(aslr_entropy_pages=4)
        bases = set()
        daemon = ConnmanDaemon(arch="x86", profile=profile, rng=random.Random(1))
        for _ in range(32):
            daemon.restart()
            bases.add(daemon.loaded.layout.libc_base)
        # At most 4 distinct slides possible.
        assert len(bases) <= 4

    def test_bruteforcer_uses_victim_span(self):
        victim = ConnmanDaemon(
            arch="x86", profile=WX_ASLR.with_(aslr_entropy_pages=8),
            rng=random.Random(5),
        )
        forcer = AslrBruteForcer(victim, max_attempts=256, rng=random.Random(6))
        assert forcer.entropy_pages == 8
        result = forcer.run()
        # Tiny span: the attack lands almost immediately.
        assert result.succeeded
        assert result.attempts <= 64


class TestSweep:
    def test_points_cover_series(self):
        points = sweep_bruteforce_entropy(entropy_series=(8, 32), runs_per_point=2)
        assert [p.entropy_pages for p in points] == [8, 32]
        assert all(len(p.attempts) == 2 for p in points)

    def test_point_statistics(self):
        point = EntropyPoint(entropy_pages=64, attempts=[10, 50, 90])
        assert point.median_attempts == 50
        assert point.plausible

    def test_implausibly_slow_point_flagged(self):
        point = EntropyPoint(entropy_pages=16, attempts=[4000, 5000, 6000])
        assert not point.plausible

    def test_e15_experiment(self):
        result = e15_entropy_sweep(runs_per_point=3)
        assert result.all_pass
        assert result.rows[-1][0] == "(scaling)"


class TestTrialSeedIndependence:
    """Regression: ``attacker_seed = victim_seed + 1`` correlated trials.

    With XOR-stacked victim seeds, ``(base ^ run) + 1 == base ^ (run + 1)``
    whenever ``run`` is even — run N's attacker replayed run N+1's victim
    RNG stream.  The crc32 derivation keys every (entropy, run, role)
    independently.
    """

    def _trial_seeds(self, entropy_series=(16, 64), runs_per_point=6, seed=0xE15):
        from repro.core.registry import derive_seed
        from repro.core.sweeps import ENTROPY_SEED_KEY

        return [
            (entropy, run,
             seed ^ derive_seed(ENTROPY_SEED_KEY, entropy, run, "victim"),
             seed ^ derive_seed(ENTROPY_SEED_KEY, entropy, run, "attacker"))
            for entropy in entropy_series
            for run in range(runs_per_point)
        ]

    def test_no_seed_shared_between_any_two_roles(self):
        seeds = [s for *_ignored, victim, attacker in self._trial_seeds()
                 for s in (victim, attacker)]
        assert len(set(seeds)) == len(seeds)

    def test_attacker_never_replays_adjacent_victim(self):
        trials = self._trial_seeds()
        for (_, _, _, attacker), (_, _, next_victim, _) in zip(trials, trials[1:]):
            assert attacker != next_victim

    def test_sweep_consumes_the_derived_seeds(self):
        """The fix lives in the trials E15 dispatches, not just the helper."""
        import repro.core.registry as registry
        from repro.core.sweeps import DEFAULT_ENTROPY_SERIES
        from repro.exploit import BruteForceTrial

        captured = []
        original = registry.run_supervised

        def _spy(task_fn, tasks, **kwargs):
            captured.extend(tasks)
            return original(task_fn, tasks, **kwargs)

        registry.run_supervised = _spy
        try:
            registry.run_experiment("E15", params={"runs_per_point": 2})
        finally:
            registry.run_supervised = original
        expected = self._trial_seeds(entropy_series=DEFAULT_ENTROPY_SERIES,
                                     runs_per_point=2)
        assert [(t.victim_seed, t.attacker_seed) for t in captured] == [
            (victim, attacker) for _, _, victim, attacker in expected]
        assert all(isinstance(t, BruteForceTrial) for t in captured)
