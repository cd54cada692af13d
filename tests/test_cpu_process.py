"""Process model, syscall layer, native-function ABI, and the run loop."""

import json

import pytest

from repro.cpu import NativeFunction, Process, TraceRecorder, make_emulator
from repro.cpu.events import IllegalInstruction
from repro.cpu.registers import X86_REG8, X86_REGISTERS
from repro.cpu.x86.emu import X86Emulator
from repro.cpu.native import NativeCallContext
from repro.cpu.syscalls import ENOSYS, dispatch
from repro.cpu.events import _EmulationStop
from repro.cpu.x86 import asm as x86
from repro.cpu.arm import asm as arm
from repro.mem import AddressSpace, Perm, Segment, UnmappedAddressError, WxViolation


def make_process(arch="x86"):
    space = AddressSpace()
    space.map_new("code", 0x1000, 0x1000, Perm.RWX)
    space.map_new("stack", 0x20000, 0x10000, Perm.RW | Perm.X)
    process = Process(arch, space)
    process.pc = 0x1000
    process.sp = 0x2F000
    return process


class TestProcess:
    def test_pids_are_unique(self):
        assert make_process().pid != make_process().pid

    def test_push_pop_u32(self):
        process = make_process()
        process.push_u32(0xAABBCCDD)
        assert process.pop_u32() == 0xAABBCCDD
        assert process.sp == 0x2F000

    def test_push_bytes_unaligned(self):
        process = make_process()
        process.push_bytes(b"abc")
        assert process.sp == 0x2F000 - 3
        assert process.memory.read(process.sp, 3) == b"abc"

    def test_spawn_record_shell_detection(self):
        process = make_process()
        record = process.record_spawn("/bin/sh", ())
        assert record.is_shell and record.is_root_shell
        assert process.spawned_root_shell

    def test_non_root_shell_not_root(self):
        space = AddressSpace()
        space.map_new("stack", 0x20000, 0x1000, Perm.RW)
        process = Process("x86", space, uid=1000)
        record = process.record_spawn("/bin/sh", ())
        assert record.is_shell and not record.is_root_shell

    def test_non_shell_spawn(self):
        process = make_process()
        assert not process.record_spawn("/usr/bin/id", ()).is_shell

    def test_exit_state(self):
        process = make_process()
        assert process.alive
        process.record_exit(code=1, signal="SIGSEGV")
        assert not process.alive
        assert process.exit.signal == "SIGSEGV"

    def test_pc_sp_aliases_per_arch(self):
        x = make_process("x86")
        x.pc = 0x1234
        assert x.registers["eip"] == 0x1234
        a = make_process("arm")
        a.sp = 0x2000
        assert a.registers["r13"] == 0x2000

    def test_register_masking(self):
        process = make_process()
        process.registers["eax"] = 0x1_2345_6789
        assert process.registers["eax"] == 0x23456789

    def test_unknown_register_rejected(self):
        with pytest.raises(KeyError):
            make_process().registers["xmm0"]

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            Process("riscv", AddressSpace())


class TestSyscalls:
    def test_unknown_syscall_returns_enosys(self):
        process = make_process()
        assert dispatch(process, 999, (0, 0, 0)) == (-ENOSYS) & 0xFFFFFFFF

    def test_exit_stops(self):
        process = make_process()
        with pytest.raises(_EmulationStop) as stop:
            dispatch(process, 1, (7, 0, 0))
        assert stop.value.reason == "exit"
        assert process.exit.code == 7

    def test_execve_reads_argv_array(self):
        process = make_process()
        memory = process.memory
        memory.write_cstring(0x20000, b"/bin/sh")
        memory.write_cstring(0x20010, b"-i")
        memory.write_u32(0x20100, 0x20000)
        memory.write_u32(0x20104, 0x20010)
        memory.write_u32(0x20108, 0)
        with pytest.raises(_EmulationStop) as stop:
            dispatch(process, 11, (0x20000, 0x20100, 0))
        assert stop.value.reason == "execve"
        assert process.spawns[0].argv == ("/bin/sh", "-i")

    def test_execve_null_argv_accepted(self):
        process = make_process()
        process.memory.write_cstring(0x20000, b"/bin/sh")
        with pytest.raises(_EmulationStop):
            dispatch(process, 11, (0x20000, 0, 0))
        assert process.spawns[0].argv == ()

    def test_write_returns_length(self):
        assert dispatch(make_process(), 4, (1, 0x20000, 17)) == 17


class TestNativeAbi:
    def test_x86_args_read_from_stack(self):
        process = make_process("x86")
        process.push_u32(3)           # arg1
        process.push_u32(2)           # arg0
        process.push_u32(0x4444)      # return-address slot
        ctx = NativeCallContext(process)
        assert ctx.arg(0) == 2
        assert ctx.arg(1) == 3

    def test_arm_args_in_registers_then_stack(self):
        process = make_process("arm")
        for index in range(4):
            process.registers[f"r{index}"] = 10 + index
        process.push_u32(99)  # fifth argument
        ctx = NativeCallContext(process)
        assert [ctx.arg(i) for i in range(5)] == [10, 11, 12, 13, 99]

    def test_x86_return_pops_eip(self):
        process = make_process("x86")
        process.push_u32(0x1100)
        ctx = NativeCallContext(process)
        ctx.return_from_call(42)
        assert process.pc == 0x1100
        assert process.registers["eax"] == 42

    def test_arm_return_uses_lr(self):
        process = make_process("arm")
        process.registers["r14"] = 0x1200
        NativeCallContext(process).return_from_call(7)
        assert process.pc == 0x1200
        assert process.registers["r0"] == 7

    def test_native_invoked_at_registered_address(self):
        process = make_process("x86")
        calls = []

        def handler(ctx):
            calls.append(ctx.arg(0))
            return 123

        process.register_native(0x1000, NativeFunction("probe", handler))
        process.push_u32(55)          # arg0
        process.push_u32(0x1100)      # return address
        process.memory.write(0x1100, x86.hlt(), check=False)
        result = make_emulator(process).run()
        assert calls == [55]
        assert process.registers["eax"] == 123
        assert result.crashed  # ended at hlt after the native returned

    def test_native_redirecting_pc_skips_default_return(self):
        process = make_process("arm")

        def handler(ctx):
            ctx.process.pc = 0x1200
            return None

        process.register_native(0x1000, NativeFunction("jump", handler))
        process.memory.write(0x1200, arm.svc(0), check=False)
        process.registers["r7"] = 1  # exit(r0)
        result = make_emulator(process).run()
        assert result.reason == "exit"


def loaded_process(arch, segments, code_at):
    space = AddressSpace()
    for segment in segments:
        space.map(segment)
    for address, code in code_at.items():
        space.write(address, code, check=False)
    return Process(arch, space, name="run-loop-test")


TIGHT_LOOP = b"\x40" * 8 + b"\xeb\xf6"  # 8x inc eax; jmp -10


def tight_loop_process():
    process = loaded_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                             {0x1000: TIGHT_LOOP})
    process.pc = 0x1000
    return process


class TestRunLoop:
    """Run-loop behaviour every guest run depends on."""

    def test_budget_exceeded_at_exactly_max_steps(self):
        process = tight_loop_process()
        result = make_emulator(process).run(max_steps=30)
        assert result.reason == "fault"
        assert result.signal == "SIGKILL"
        assert result.steps == 30
        # 30 = 3 loop iterations (8 inc + jmp) + 3 more incs.
        assert process.registers["eax"] == 27
        assert process.pc == 0x1003

    @pytest.mark.parametrize("max_steps", [1, 8, 9, 10, 17, 27, 100])
    def test_budget_state_at_any_step_count(self, max_steps):
        process = tight_loop_process()
        result = make_emulator(process).run(max_steps=max_steps)
        laps, rest = divmod(max_steps, 9)
        assert (result.reason, result.signal, result.steps) == \
            ("fault", "SIGKILL", max_steps)
        assert process.registers["eax"] == laps * 8 + rest
        assert process.pc == 0x1000 + rest

    def test_arm_tight_loop_runs_to_exactly_max_steps(self):
        code = (
            arm.add_imm("r0", "r0", 1)
            + arm.add_imm("r1", "r1", 2)
            + arm.eor_reg("r2", "r2", "r0")
            + arm.b(0x1000C, 0x10000)
        )
        process = loaded_process("arm", [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                                 {0x10000: code})
        process.pc = 0x10000
        result = make_emulator(process).run(max_steps=101)
        assert (result.signal, result.steps) == ("SIGKILL", 101)
        # 25 laps of 4 instructions, then the add r0 of lap 26.
        assert process.registers["r0"] == 26
        assert process.registers["r1"] == 50
        assert process.pc == 0x10004

    def test_trace_recorder_records_every_step(self):
        process = tight_loop_process()
        process.trace = TraceRecorder()
        make_emulator(process).run(max_steps=40)
        assert len(process.trace.entries) == 40

    def test_native_registered_mid_run_is_dispatched(self):
        code = x86.nop() * 4 + x86.hlt()
        process = loaded_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                                 {0x1000: code})
        emulator = make_emulator(process)
        # Run every instruction once first.
        process.pc = 0x1000
        emulator.run(max_steps=20)
        calls = []

        def probe(context):
            calls.append("probe")
            context.process.pc = 0x1004  # jump straight to the hlt

        def installer(context):
            calls.append("installer")
            context.process.register_native(0x1002, NativeFunction("probe", probe))
            context.process.pc = 0x1001

        process.register_native(0x1000, NativeFunction("installer", installer))
        process.pc = 0x1000
        result = emulator.run(max_steps=20)
        # installer, nop at 0x1001, probe; the hlt then faults.
        assert calls == ["installer", "probe"]
        assert result.reason == "fault" and result.steps == 3

    def test_native_call_counts_as_one_step(self):
        """A native dispatch costs one step of the budget, like an insn."""
        calls = []

        def handler(context):
            calls.append(context.process.pc)
            return 0

        process = loaded_process(
            "x86",
            [Segment(".text", 0x1000, 0x100, Perm.RX),
             Segment("stack", 0x20000, 0x1000, Perm.RW)],
            {0x1000: x86.push_imm32(0x100A)      # return address: the nops
             + x86.jmp_rel32(0x1005, 0x5000)     # "call" the native
             + x86.nop() * 3
             + x86.hlt()},
        )
        process.register_native(0x5000, NativeFunction("stub", handler))
        process.registers["esp"] = 0x20800
        process.pc = 0x1000
        result = make_emulator(process).run(max_steps=50)
        assert calls == [0x5000]  # the native ran exactly once
        assert result.reason == "fault"
        # push, jmp, native invoke, 3 nops; the hlt fault ends the run.
        assert result.steps == 6

    @pytest.mark.parametrize("first,second,taken", [
        ("xor", "inc", False),  # inc eax leaves 1: ZF clear
        ("inc", "xor", True),   # xor eax, eax leaves 0: ZF set
    ], ids=["inc-last", "xor-last"])
    def test_jz_sees_flags_from_last_writer(self, first, second, taken):
        writers = {"xor": x86.xor_reg_reg("eax", "eax"), "inc": x86.inc_reg("eax")}
        body = writers[first] + writers[second]
        jz_at = 0x1000 + len(body)
        code = body + x86.jz_rel8(jz_at, 0x1020) + x86.inc_reg("edx") + x86.hlt()
        process = loaded_process(
            "x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
            {0x1000: code, 0x1020: x86.inc_reg("ecx") + x86.hlt()})
        process.pc = 0x1000
        make_emulator(process).run(max_steps=20)
        assert process.registers["ecx"] == int(taken)
        assert process.registers["edx"] == int(not taken)

    def test_flags_and_registers_at_fault(self):
        code = (
            x86.xor_reg_reg("eax", "eax")    # ZF=1
            + x86.inc_reg("eax")             # ZF=0
            + x86.mov_mem_reg("ebx", "eax")  # faults: ebx unmapped
            + x86.hlt()
        )
        process = loaded_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                                 {0x1000: code})
        process.registers["ebx"] = 0xDEAD0000
        process.pc = 0x1000
        result = make_emulator(process).run(max_steps=20)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 2)
        # pc is architectural at the fault: the store's own address.
        assert process.registers["eip"] == 0x1003
        assert process.registers["eax"] == 1
        assert not process.registers["eflags"] & (1 << 6)

    def test_arm_flags_and_registers_at_fault(self):
        code = (
            arm.mov_imm("r0", 0x44)
            + arm.cmp_imm("r0", 0x44)        # sets Z
            + arm.ldr("r5", "r6")            # faults: r6 unmapped
        )
        process = loaded_process("arm", [Segment(".text", 0x10000, 0x1000, Perm.RX)],
                                 {0x10000: code})
        process.registers["r6"] = 0xDEAD0000
        process.pc = 0x10000
        result = make_emulator(process).run(max_steps=10)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 2)
        assert process.registers["r15"] == 0x10008
        assert process.registers["cpsr"] & (1 << 30)

    def test_store_modifying_own_code_executes_new_bytes(self):
        target = 0x1000 + 5 + 2  # address of the inc edx
        code = (
            x86.mov_reg_imm32("eax", 0x41)   # inc ecx opcode in the low byte
            + x86.mov_mem_reg("ebx", "eax")  # overwrite the inc edx below
            + x86.inc_reg("edx")
            + x86.hlt()
        )
        process = loaded_process("x86", [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
                                 {0x1000: code})
        emulator = make_emulator(process)
        # First pass stores to scratch, so the inc edx runs as written.
        process.registers["ebx"] = 0x1800
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert (process.registers["ecx"], process.registers["edx"]) == (0, 1)
        process.registers["ebx"] = target
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert (process.registers["ecx"], process.registers["edx"]) == (1, 1)

    def test_arm_store_modifying_own_code_executes_new_bytes(self):
        # r0 holds the encoding of "add r2, r2, 1"; str r0, [r1] overwrites
        # the "add r3, r3, 1" two slots later.
        patch = int.from_bytes(arm.add_imm("r2", "r2", 1), "little")
        code = (
            arm.str_("r0", "r1")
            + arm.add_imm("r4", "r4", 1)
            + arm.add_imm("r3", "r3", 1)     # <- replaced before it executes
            + arm.mov_imm("r7", 1)
            + arm.svc()                      # exit
        )
        process = loaded_process("arm", [Segment("rwx", 0x10000, 0x1000, Perm.RWX)],
                                 {0x10000: code})
        emulator = make_emulator(process)
        process.registers["r0"] = patch
        # First pass stores to scratch, so the add r3 runs as written.
        process.registers["r1"] = 0x10800
        process.pc = 0x10000
        assert emulator.run(max_steps=10).reason == "exit"
        process.registers["r1"] = 0x10008
        process.pc = 0x10000
        assert emulator.run(max_steps=10).reason == "exit"
        assert process.registers["r2"] == 1
        assert process.registers["r3"] == 1  # from the first pass only
        assert process.registers["r4"] == 2

    def test_wx_enforced_by_run_loop(self):
        space = AddressSpace()
        space.map(Segment("data", 0x1000, 0x100, Perm.RW))
        space.write(0x1000, b"\x40")
        process = Process("x86", space)
        process.pc = 0x1000
        result = make_emulator(process).run(max_steps=10)
        assert (result.reason, result.signal, result.steps) == ("fault", "SIGSEGV", 0)
        assert isinstance(result.fault, WxViolation)
        assert process.registers["eax"] == 0

    # -- guest code changing under the process -------------------------------
    #
    # Every step fetches, W^X-checks and decodes the bytes in memory now:
    # a write, a remap at the same base, or a write to either page of a
    # page-straddling instruction is executed on the next step or run.

    def test_self_modifying_code_executes_new_bytes(self):
        process = loaded_process("x86", [Segment("rwx", 0x1000, 0x100, Perm.RWX)],
                                 {0x1000: b"\x40"})  # inc eax
        process.pc = 0x1000
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 1
        process.memory.write(0x1000, b"\x41")  # overwrite with inc ecx
        process.pc = 0x1000
        emulator.step()
        assert process.registers["ecx"] == 1
        assert process.registers["eax"] == 1

    def test_remap_at_same_base_executes_new_code(self):
        process = loaded_process("x86", [Segment("old", 0x1000, 0x100, Perm.RX)],
                                 {0x1000: b"\x40"})  # inc eax
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

    def test_repeated_remap_at_same_base_executes_each_rounds_code(self):
        # Three map/write/execute/unmap rounds at the same base: each round
        # must execute its own fresh bytes, never a prior round's.
        targets = ("eax", "ecx", "edx")
        opcodes = (b"\x40", b"\x41", b"\x42")
        process = loaded_process("x86", [Segment("seed", 0x2000, 0x100, Perm.RX)], {})
        emulator = X86Emulator(process)
        for round_index, opcode in enumerate(opcodes):
            name = f"round{round_index}"
            process.memory.map(Segment(name, 0x1000, 0x100, Perm.RX))
            process.memory.write(0x1000, opcode, check=False)
            process.pc = 0x1000
            emulator.step()
            process.memory.unmap(name)
        for target in targets:
            assert process.registers[target] == 1, target

    def test_step_enforces_wx(self):
        process = loaded_process("x86", [Segment("data", 0x1000, 0x100, Perm.RW)], {})
        process.memory.write(0x1000, b"\x40")
        process.pc = 0x1000
        with pytest.raises(WxViolation):
            X86Emulator(process).step()

    @pytest.mark.parametrize("written,expected", [
        (0x2001, 0x11553344),  # the 0x22 immediate byte, second page
        (0x1FFF, 0x11223355),  # the 0x44 immediate byte, first page
    ], ids=["second-page", "first-page"])
    def test_write_to_either_page_of_straddling_insn_is_seen(self, written, expected):
        # mov eax, imm32 at 0x1FFE: opcode and low immediate byte on the
        # first page, the immediate's last three bytes on the second.
        process = loaded_process("x86", [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
                                 {0x1FFE: b"\xb8\x44\x33\x22\x11"})
        process.pc = 0x1FFE
        emulator = X86Emulator(process)
        emulator.step()
        assert process.registers["eax"] == 0x11223344
        process.memory.write(written, b"\x55")
        process.pc = 0x1FFE
        emulator.step()
        assert process.registers["eax"] == expected

    def test_rerun_after_external_write_executes_new_bytes(self):
        process = loaded_process("x86", [Segment("rwx", 0x1000, 0x1000, Perm.RWX)],
                                 {0x1000: b"\x40\x40" + x86.hlt()})
        process.pc = 0x1000
        emulator = make_emulator(process)
        emulator.run(max_steps=20)
        assert process.registers["eax"] == 2
        process.memory.write(0x1000, b"\x41\x41")  # now inc ecx twice
        process.pc = 0x1000
        emulator.run(max_steps=20)
        assert process.registers["ecx"] == 2
        assert process.registers["eax"] == 2

    def test_rerun_after_remap_at_same_base_executes_new_code(self):
        process = loaded_process("x86", [Segment("old", 0x1000, 0x1000, Perm.RX)],
                                 {0x1000: b"\x40" + x86.hlt()})
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

    def test_rerun_after_second_page_write_executes_new_bytes(self):
        # 5-byte mov eax, imm32 at 0x1FFE: bytes span pages 1 and 2.
        process = loaded_process(
            "x86", [Segment("rwx", 0x1000, 0x2000, Perm.RWX)],
            {0x1FFE: x86.mov_reg_imm32("eax", 0x11223344) + x86.hlt()})
        process.pc = 0x1FFE
        emulator = make_emulator(process)
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11223344
        # Rewrite one immediate byte that lives on the *second* page
        # (0x2001 holds the 0x22 of the little-endian immediate).
        process.memory.write(0x2001, b"\x55")
        process.pc = 0x1FFE
        emulator.run(max_steps=10)
        assert process.registers["eax"] == 0x11553344

    # -- instruction fetch window ---------------------------------------------

    def test_x86_insn_straddling_contiguous_segments_decodes(self):
        # mov eax, 0x11223344 starts 2 bytes before the segment boundary.
        process = loaded_process(
            "x86",
            [Segment("lo", 0x400000, 0x1000, Perm.RX),
             Segment("hi", 0x401000, 0x1000, Perm.RX)],
            {0x400FFE: b"\xb8\x44\x33\x22\x11"},
        )
        process.pc = 0x400FFE
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11223344
        assert process.pc == 0x400FFE + 5

    def test_x86_insn_truncated_at_genuine_gap_faults(self):
        process = loaded_process("x86", [Segment("lo", 0x400000, 0x1000, Perm.RX)],
                                 {0x400FFE: b"\xb8\x44"})
        process.pc = 0x400FFE
        with pytest.raises(IllegalInstruction):
            X86Emulator(process).step()

    def test_arm_word_straddling_contiguous_segments_decodes(self):
        process = loaded_process(
            "arm",
            [Segment("lo", 0x10000, 2, Perm.RX),
             Segment("hi", 0x10002, 0x1000, Perm.RX)],
            {0x10000: arm.add_imm("r1", "r1", 1)},
        )
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

    # -- x86 8-bit register aliasing -------------------------------------------

    @pytest.mark.parametrize("name", X86_REG8)
    def test_write_reg8_touches_exactly_one_byte(self, name):
        """al/cl/dl/bl write the low byte; ah/ch/dh/bh the second byte."""
        process = loaded_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)], {})
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
        process = loaded_process("x86", [Segment(".text", 0x1000, 0x100, Perm.RX)],
                                 {0x1000: b"\xb4\x99"})
        process.registers["eax"] = 0x11223344
        process.pc = 0x1000
        X86Emulator(process).step()
        assert process.registers["eax"] == 0x11229944

    # -- unmap semantics -------------------------------------------------------

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

    # -- outcome parity across worker counts -----------------------------------

    def test_scenarios_match_at_two_workers(self):
        from repro.core import PAPER_MATRIX, run_scenario, run_tasks

        scenarios = PAPER_MATRIX[:3]
        sequential = run_tasks(_scenario_row, scenarios, workers=1)
        parallel = run_tasks(_scenario_row, scenarios, workers=2)
        assert parallel == sequential
        assert sequential == [run_scenario(scenario).row() for scenario in scenarios]

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
