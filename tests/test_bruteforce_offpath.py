"""ASLR brute force and off-path spoofing."""

import gc
import random
import weakref

import pytest

from repro.connman import ConnmanDaemon, EventKind
from repro.defenses import WX_ASLR, ProtectionProfile
from repro.dns import SimpleDnsServer
from repro.core import AttackScenario, attacker_knowledge
from repro.exploit import (
    AslrBruteForcer,
    OffPathSpoofer,
    builder_for,
)


def arm_rop_exploit():
    knowledge = attacker_knowledge(AttackScenario("arm", "W^X+ASLR", WX_ASLR))
    return builder_for("arm", WX_ASLR).build(knowledge)


class TestBruteForce:
    def test_succeeds_against_plain_aslr(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(99))
        result = AslrBruteForcer(victim, rng=random.Random(5)).run()
        assert result.succeeded
        assert result.winning_slide_pages is not None
        assert victim.compromised

    def test_attempt_count_reflects_entropy(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(99))
        result = AslrBruteForcer(victim, rng=random.Random(5)).run()
        # Geometric with p = 1/256: overwhelmingly within [1, 2048].
        assert 1 <= result.attempts <= 2048

    def test_every_failed_attempt_respawns(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(99))
        result = AslrBruteForcer(victim, rng=random.Random(5)).run()
        assert result.daemon_boots == result.attempts  # last one succeeded

    def test_ret_guard_stops_brute_force(self):
        guarded = ConnmanDaemon(
            arch="x86",
            profile=ProtectionProfile(wx=True, aslr=True, ret_guard=True),
            rng=random.Random(7),
        )
        result = AslrBruteForcer(guarded, max_attempts=128, rng=random.Random(5)).run()
        assert not result.succeeded
        assert not guarded.compromised

    def test_canary_stops_brute_force(self):
        guarded = ConnmanDaemon(
            arch="x86",
            profile=ProtectionProfile(wx=True, aslr=True, canary=True),
            rng=random.Random(7),
        )
        result = AslrBruteForcer(guarded, max_attempts=128, rng=random.Random(5)).run()
        assert not result.succeeded
        # Every attempt died at the canary, visibly.
        assert set(result.outcomes) == {"crashed"}

    def test_crashed_boots_are_released(self):
        """A crash's recorded fault must not pin its dead boot: after the
        respawns, every earlier address space is garbage."""
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(5))
        dead = []
        respawn = victim.restart

        def restart():
            dead.append(weakref.ref(victim.loaded.process.memory))
            respawn()

        victim.restart = restart
        result = AslrBruteForcer(victim, max_attempts=12, rng=random.Random(7)).run()
        assert not result.succeeded and set(result.outcomes) == {"crashed"}
        assert len(dead) == 11
        assert all(event.execution.fault is not None for event in victim.events)
        gc.collect()
        assert [ref() for ref in dead] == [None] * len(dead)

    def test_arm_victim_rejected(self):
        with pytest.raises(ValueError):
            AslrBruteForcer(ConnmanDaemon(arch="arm", profile=WX_ASLR))

    def test_negative_budget_rejected(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR)
        with pytest.raises(ValueError, match="max_attempts"):
            AslrBruteForcer(victim, max_attempts=-3)

    def test_zero_budget_makes_no_attempt(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR, rng=random.Random(5))
        result = AslrBruteForcer(victim, max_attempts=0).run()
        assert (result.succeeded, result.attempts, result.daemon_boots) == (False, 0, 1)
        assert result.describe() == "gave up after 0 attempts; daemon respawned 0 times"

    def test_guessed_knowledge_shifts_libc_only(self):
        victim = ConnmanDaemon(arch="x86", profile=WX_ASLR)
        forcer = AslrBruteForcer(victim)
        zero = forcer.knowledge_for_slide(0)
        shifted = forcer.knowledge_for_slide(3)
        assert shifted.libc["system"] == zero.libc["system"] - 3 * 0x1000
        assert shifted.plt == zero.plt


class TestOffPath:
    def test_large_burst_eventually_wins(self):
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(3))
        spoofer = OffPathSpoofer(arm_rop_exploit(), burst=2048, rng=random.Random(11))
        legit = SimpleDnsServer(default_address="1.1.1.1")
        result = spoofer.attack(victim, legit.handle_query, max_queries=512)
        assert result.succeeded
        assert victim.compromised

    def test_tiny_burst_loses_race(self):
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(4))
        spoofer = OffPathSpoofer(arm_rop_exploit(), burst=2, rng=random.Random(12))
        legit = SimpleDnsServer(default_address="1.1.1.1")
        result = spoofer.attack(victim, legit.handle_query, max_queries=32)
        assert not result.succeeded
        assert result.queries_observed == 32
        assert victim.alive  # legitimate replies kept winning

    def test_spoof_accounting(self):
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(4))
        spoofer = OffPathSpoofer(arm_rop_exploit(), burst=16, rng=random.Random(12))
        legit = SimpleDnsServer(default_address="1.1.1.1")
        result = spoofer.attack(victim, legit.handle_query, max_queries=10)
        assert result.spoofs_sent == 16 * 10

    def test_losing_race_still_resolves(self):
        """When the spoof misses, the victim gets the legitimate answer."""
        victim = ConnmanDaemon(arch="arm", profile=WX_ASLR, rng=random.Random(4))
        spoofer = OffPathSpoofer(arm_rop_exploit(), burst=1, rng=random.Random(12))
        legit = SimpleDnsServer(default_address="9.9.9.9")
        transport = spoofer.race_transport(legit.handle_query)
        from repro.dns import make_query

        response = victim.handle_client_query(make_query(77, "ok.example").encode(), transport)
        assert response is not None
        assert victim.last_event.kind == EventKind.RESPONDED
