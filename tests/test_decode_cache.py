"""Decode cache, fetch-window, reg8 aliasing, unmap semantics, and outcome
parity across cache settings and worker counts."""

import json

import pytest

from repro.cpu import DecodeCache, Process, make_emulator
from repro.cpu.events import IllegalInstruction
from repro.cpu.registers import X86_REG8, X86_REGISTERS
from repro.cpu.x86.emu import X86Emulator
from repro.mem import AddressSpace, Perm, Segment, UnmappedAddressError, WxViolation


def x86_process(segments, code_at=None):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    if code_at:
        for address, code in code_at.items():
            space.write(address, code, check=False)
    return Process("x86", space, name="cache-test")


class TestReg8Aliasing:
    """al/cl/dl/bl write the low byte; ah/ch/dh/bh the second byte."""

    @pytest.mark.parametrize("name", X86_REG8)
    def test_write_reg8_touches_exactly_one_byte(self, name):
        process = x86_process([Segment(".text", 0x1000, 0x100, Perm.RX)])
        emulator = X86Emulator(process)
        for parent in X86_REGISTERS:
            process.registers[parent] = 0x11223344
        emulator._write_reg8(name, 0xAB)
        index = X86_REG8.index(name)
        parent = X86_REGISTERS[index & 3]
        expected = 0x112233AB if index < 4 else 0x1122AB44
        assert process.registers[parent] == expected, name
        for other in X86_REGISTERS:
            if other != parent:
                assert process.registers[other] == 0x11223344, (name, other)

    def test_mov_r8_imm8_executes_into_high_byte(self):
        # mov ah, 0x99 (0xB0+reg encoding, reg index 4 = ah)
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\xb4\x99"},
        )
        process.registers["eax"] = 0x11223344
        process.pc = 0x1000
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11229944


class TestFetchWindow:
    """Instruction fetch spans contiguous segments; gaps still truncate."""

    def test_x86_insn_straddling_contiguous_segments_decodes(self):
        # mov eax, 0x11223344 starts 2 bytes before the segment boundary.
        process = x86_process(
            [
                Segment("lo", 0x400000, 0x1000, Perm.RX),
                Segment("hi", 0x401000, 0x1000, Perm.RX),
            ],
            code_at={0x400FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x400FFE
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11223344
        assert process.pc == 0x400FFE + 5

    def test_x86_insn_truncated_at_genuine_gap_faults(self):
        process = x86_process(
            [Segment("lo", 0x400000, 0x1000, Perm.RX)],
            code_at={0x400FFE: b"\xb8\x44"},
        )
        process.pc = 0x400FFE
        with pytest.raises(IllegalInstruction):
            X86Emulator(process).step()

    def test_arm_word_straddling_contiguous_segments_decodes(self):
        from repro.cpu.arm.asm import add_imm

        space = AddressSpace()
        space.map(Segment("lo", 0x10000, 2, Perm.RX))
        space.map(Segment("hi", 0x10002, 0x1000, Perm.RX))
        space.write(0x10000, add_imm("r1", "r1", 1), check=False)
        process = Process("arm", space, name="cache-test")
        process.pc = 0x10000
        make_emulator(process).step()
        assert process.registers["r1"] == 1

    def test_contiguous_span_stops_at_gap(self):
        space = AddressSpace()
        space.map(Segment("a", 0x1000, 0x100, Perm.RX))
        space.map(Segment("b", 0x1100, 0x100, Perm.RX))
        space.map(Segment("c", 0x2000, 0x100, Perm.RX))
        assert space.contiguous_span(0x10F0, 64) == 64  # spans a→b
        assert space.contiguous_span(0x11F0, 64) == 16  # gap after b
        with pytest.raises(UnmappedAddressError):
            space.contiguous_span(0x3000, 4)


class TestDecodeCacheSemantics:
    def test_steady_state_is_all_hits(self):
        # 8x inc eax + jmp back: 9 distinct instructions.
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40" * 8 + b"\xeb\xf6"},
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        for _ in range(30):
            emulator.step()
        cache = process.decode_cache
        assert cache.misses == 9
        assert cache.hits == 21

    def test_disabled_cache_decodes_every_step(self):
        process = x86_process(
            [Segment(".text", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40" * 8 + b"\xeb\xf6"},
        )
        process.decode_cache.enabled = False
        process.pc = 0x1000
        emulator = X86Emulator(process)
        for _ in range(30):
            emulator.step()
        assert process.decode_cache.misses == 30
        assert process.decode_cache.hits == 0

    def test_self_modifying_code_executes_new_bytes(self):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x100, Perm.RWX)],
            code_at={0x1000: b"\x40"},  # inc eax
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 1
        assert len(process.decode_cache) == 1
        process.memory.write(0x1000, b"\x41")  # overwrite with inc ecx
        process.pc = 0x1000
        emulator.step()
        assert process.registers["ecx"] == 1
        assert process.registers["eax"] == 1
        assert process.decode_cache.invalidations >= 1

    def test_remap_at_same_base_invalidates_via_epoch(self):
        process = x86_process(
            [Segment("old", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40"},  # inc eax
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        space = process.memory
        space.unmap("old")
        space.map(Segment("new", 0x1000, 0x100, Perm.RX))
        space.write(0x1000, b"\x41", check=False)  # inc ecx
        process.pc = 0x1000
        emulator.step()
        assert process.registers["ecx"] == 1

    def test_wx_still_enforced_with_cache_on(self):
        process = x86_process([Segment("data", 0x1000, 0x100, Perm.RW)])
        process.memory.write(0x1000, b"\x40")
        process.pc = 0x1000
        with pytest.raises(WxViolation):
            X86Emulator(process).step()
        assert len(process.decode_cache) == 0


class TestCrossPageEntries:
    """Entries whose bytes straddle a page boundary track every page."""

    def test_second_page_write_invalidates_cross_page_entry(self):
        # mov eax, imm32 at 0x1FFE: opcode on page 1, the immediate's last
        # three bytes on page 2.  A write that touches only the second page
        # must still drop the cached decode.
        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x1FFE
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 0x11223344
        process.memory.write(0x2001, b"\x55")  # the 0x22 immediate byte
        process.pc = 0x1FFE
        emulator.step()
        assert process.registers["eax"] == 0x11553344
        assert process.decode_cache.invalidations >= 1

    def test_first_page_write_also_invalidates_cross_page_entry(self):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x1FFE
        emulator = X86Emulator(process)
        emulator.step()
        process.memory.write(0x1FFF, b"\x99")  # low immediate byte, page 1
        process.pc = 0x1FFE
        emulator.step()
        assert process.registers["eax"] == 0x11223399


class TestInvalidationAccounting:
    """Epoch flushes and per-entry drops are distinct events and counters."""

    def test_self_modify_counts_invalidation_not_epoch_flush(self):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x100, Perm.RWX)],
            code_at={0x1000: b"\x40"},
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        process.memory.write(0x1000, b"\x41")
        process.pc = 0x1000
        emulator.step()
        cache = process.decode_cache
        assert cache.invalidations == 1
        assert cache.epoch_flushes == 0

    def test_remap_counts_epoch_flush_not_invalidation(self):
        process = x86_process(
            [Segment("old", 0x1000, 0x100, Perm.RX)],
            code_at={0x1000: b"\x40"},
        )
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        space = process.memory
        space.unmap("old")
        space.map(Segment("new", 0x1000, 0x100, Perm.RX))
        space.write(0x1000, b"\x41", check=False)
        process.pc = 0x1000
        emulator.step()
        cache = process.decode_cache
        assert cache.epoch_flushes == 1
        assert cache.invalidations == 0

    def test_repeated_unmap_remap_never_serves_stale_decodes(self):
        # Three map/write/execute/unmap rounds at the same base: each round
        # must execute its own fresh bytes, never a prior round's decode.
        targets = ("eax", "ecx", "edx")
        opcodes = (b"\x40", b"\x41", b"\x42")
        process = x86_process([Segment("seed", 0x2000, 0x100, Perm.RX)])
        emulator = X86Emulator(process)
        for round_index, (target, opcode) in enumerate(zip(targets, opcodes)):
            name = f"round{round_index}"
            process.memory.map(Segment(name, 0x1000, 0x100, Perm.RX))
            process.memory.write(0x1000, opcode, check=False)
            process.pc = 0x1000
            emulator.step()
            process.memory.unmap(name)
        for target in targets:
            assert process.registers[target] == 1, target
        assert process.decode_cache.epoch_flushes >= 2


class TestUnmapSemantics:
    def test_unmap_ambiguous_duplicate_name_raises(self):
        space = AddressSpace()
        space.map(Segment("dup", 0x1000, 0x100, Perm.RW))
        space.map(Segment("dup", 0x2000, 0x100, Perm.RW))
        with pytest.raises(ValueError, match="ambiguous"):
            space.unmap("dup")
        assert space.segment_at(0x1000).base == 0x1000
        assert space.segment_at(0x2000).base == 0x2000

    def test_unmap_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            AddressSpace().unmap("ghost")

    def test_map_unmap_remap_same_base_resolves_new_segment(self):
        space = AddressSpace()
        space.map(Segment("old", 0x1000, 0x100, Perm.RW))
        space.write_u32(0x1000, 0xAAAAAAAA)  # warm the resolution memo
        assert space.segment_at(0x1000).name == "old"
        space.unmap("old")
        with pytest.raises(UnmappedAddressError):
            space.segment_at(0x1000)
        space.map(Segment("new", 0x1000, 0x100, Perm.RW))
        assert space.segment_at(0x1000).name == "new"
        assert space.read_u32(0x1000) == 0  # fresh zeroed backing


class TestOutcomeParity:
    """The cache is a pure optimization: no experiment outcome may change."""

    def _scenario_outcomes(self):
        from repro.core import PAPER_MATRIX, run_scenario

        return [run_scenario(scenario).row() for scenario in PAPER_MATRIX[:3]]

    def test_scenarios_identical_cache_on_and_off(self, monkeypatch):
        monkeypatch.setattr(DecodeCache, "enabled_by_default", True)
        with_cache = self._scenario_outcomes()
        monkeypatch.setattr(DecodeCache, "enabled_by_default", False)
        without_cache = self._scenario_outcomes()
        assert with_cache == without_cache

    def test_bruteforce_identical_cache_on_and_off(self, monkeypatch):
        from repro.exploit import BruteForceTrial, run_bruteforce_trial

        trial = BruteForceTrial(victim_seed=7, attacker_seed=8,
                                max_attempts=256, entropy_pages=16)
        monkeypatch.setattr(DecodeCache, "enabled_by_default", True)
        with_cache = run_bruteforce_trial(trial)
        monkeypatch.setattr(DecodeCache, "enabled_by_default", False)
        without_cache = run_bruteforce_trial(trial)
        assert with_cache == without_cache
        assert with_cache.succeeded

    def test_scenarios_match_at_two_workers(self):
        from repro.core import PAPER_MATRIX, run_tasks

        scenarios = PAPER_MATRIX[:3]
        sequential = run_tasks(_scenario_row, scenarios, workers=1)
        parallel = run_tasks(_scenario_row, scenarios, workers=2)
        assert parallel == sequential
        assert sequential == self._scenario_outcomes()

    def test_bruteforce_match_at_two_workers(self):
        from repro.core import run_tasks
        from repro.exploit import BruteForceTrial, run_bruteforce_trial

        trials = [BruteForceTrial(victim_seed=seed, attacker_seed=seed + 1,
                                  max_attempts=256, entropy_pages=16)
                  for seed in (7, 9)]
        sequential = run_tasks(run_bruteforce_trial, trials, workers=1)
        parallel = run_tasks(run_bruteforce_trial, trials, workers=2)
        assert parallel == sequential
        assert sequential[0].succeeded

    def test_chaos_sweep_byte_identical_at_two_workers(self):
        from repro.core import run_chaos_sweep

        kwargs = dict(queries_per_rate=6, attack_budget=6)
        sequential = run_chaos_sweep((0.0, 0.4), workers=1, **kwargs)
        parallel = run_chaos_sweep((0.0, 0.4), workers=2, **kwargs)
        assert json.dumps(parallel.to_dict(), sort_keys=True) == \
            json.dumps(sequential.to_dict(), sort_keys=True)


def _scenario_row(scenario):
    """Worker for the parity test: one scenario's table row."""
    from repro.core import run_scenario

    return run_scenario(scenario).row()
