"""Code invalidation through the run loop.

Guest code can change under a running process: an external write, a remap at
the same base, or a write to the second page of an instruction that straddles
a page boundary.  Each case below runs a multi-instruction program through
``make_emulator(...).run()``, rewrites its code, and runs it again; the second
run must execute the new bytes, and the decode cache must record why its
stale entries went away.
"""

from repro.cpu import Process, make_emulator
from repro.cpu.x86 import asm as x86
from repro.mem import AddressSpace, Perm, Segment


def x86_process(segments, code_at=None):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    if code_at:
        for address, code in code_at.items():
            space.write(address, code, check=False)
    return Process("x86", space, name="block-test")


class TestBlockInvalidation:
    def test_stale_block_dropped_on_reentry_after_external_write(self):
        process = x86_process(
            [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
            code_at={0x1000: b"\x40\x40" + x86.hlt()},
        )
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 2
        process.memory.write(0x1000, b"\x41\x41")  # now inc ecx twice
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["ecx"] == 2
        assert process.registers["eax"] == 2
        assert process.decode_cache.invalidations >= 1
        assert process.decode_cache.epoch_flushes == 0

    def test_remap_at_same_base_flushes_whole_cache(self):
        process = x86_process(
            [Segment("old", 0x1000, 0x1000, Perm.RX)],
            code_at={0x1000: b"\x40" + x86.hlt()},
        )
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 1
        space = process.memory
        space.unmap("old")
        space.map(Segment("new", 0x1000, 0x1000, Perm.RX))
        space.write(0x1000, b"\x41" + x86.hlt(), check=False)
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["ecx"] == 1
        assert process.registers["eax"] == 1
        assert process.decode_cache.epoch_flushes >= 1

    def test_cross_page_block_invalidated_by_second_page_write(self):
        """An instruction straddling a page boundary is tracked on *both*
        pages; writing only the second page must drop its cached decode."""
        # 5-byte mov eax, imm32 at 0x1FFE: bytes span pages 1 and 2.
        def code_for(value):
            return x86.mov_reg_imm32("eax", value) + x86.hlt()

        process = x86_process(
            [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            code_at={0x1FFE: code_for(0x11223344)},
        )
        process.pc = 0x1FFE
        emulator = make_emulator(process)
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11223344
        assert len(process.decode_cache) >= 1
        # Rewrite one immediate byte that lives on the *second* page
        # (0x2001 holds the 0x22 of the little-endian immediate).
        process.memory.write(0x2001, b"\x55")
        process.pc = 0x1FFE
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11553344
        assert process.decode_cache.invalidations >= 1
