"""Shared emulation loop for both architectures.

The loop has a single rule the whole reproduction depends on: *native
functions are address-triggered*.  When the program counter lands on a
registered libc/PLT entry, the host handler runs; anywhere else, bytes are
fetched (X-permission-checked — the W^X enforcement point) and executed.
All outcomes, including exploit failures, are returned as
:class:`ExecutionResult` rather than raised, so experiment code can tabulate
them like the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..mem import MemoryFault
from .events import CpuError, EmulationBudgetExceeded, _EmulationStop
from .process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.postmortem import CrashReport

DEFAULT_STEP_BUDGET = 200_000


@dataclass
class ExecutionResult:
    """How one emulation run ended."""

    reason: str
    steps: int
    detail: str = ""
    fault: Optional[BaseException] = None
    #: Structured crash forensics, captured at fault time when the process
    #: is observed (``process.observer`` set).  ``None`` on clean exits and
    #: on unobserved runs.
    postmortem: Optional["CrashReport"] = None

    @property
    def spawned(self) -> bool:
        """True when control flow reached an ``exec*`` image replacement."""
        return self.reason == "execve"

    @property
    def crashed(self) -> bool:
        return self.reason == "fault"

    @property
    def signal(self) -> Optional[str]:
        return getattr(self.fault, "signal", None) if self.fault is not None else None

    def describe(self) -> str:
        text = f"{self.reason} after {self.steps} steps"
        if self.detail:
            text += f": {self.detail}"
        if self.signal:
            text += f" [{self.signal}]"
        return text


class Emulator:
    """Architecture-neutral run loop; subclasses implement :meth:`step`."""

    def __init__(self, process: Process):
        self.process = process

    def step(self):  # pragma: no cover - abstract
        """Execute one instruction; returns the executed Instruction."""
        raise NotImplementedError

    def _peek_text(self, address: int) -> str:
        """Best-effort disassembly of the next instruction (tracing only)."""
        try:
            memory = self.process.memory
            if self.process.arch == "x86":
                from .x86.disasm import decode

                window = memory.read(
                    address, memory.contiguous_span(address, 5), check=False
                )
                return decode(window, address, strict=False).text()
            from .arm.disasm import decode

            window = memory.read(address, 4, check=False)
            return decode(window, address, strict=False).text()
        except Exception:
            return "(unreadable)"

    def run(self, max_steps: int = DEFAULT_STEP_BUDGET) -> ExecutionResult:
        """Execute until stop/fault/budget; observed runs get a ``cpu.run`` span.

        When the process carries an observer, the whole run nests under a
        ``cpu.run`` span (continuing whatever trace context the caller —
        network delivery, daemon parse — left open), and a faulting run
        captures a :class:`~repro.obs.postmortem.CrashReport` while the
        registers and memory map are still exactly as the fault left them.
        """
        observer = self.process.observer
        if observer is None:
            return self._run_loop(max_steps)
        tracer = observer.tracer
        span = tracer.start("cpu.run", arch=self.process.arch,
                            pc=f"{self.process.pc:#x}")
        try:
            result = self._run_loop(max_steps)
            span.attrs["outcome"] = result.reason
            span.attrs["steps"] = result.steps
            if result.crashed:
                span.attrs["signal"] = result.signal
                from ..obs.postmortem import capture_crash_report

                result.postmortem = capture_crash_report(
                    self.process,
                    signal=result.signal or "SIGSEGV",
                    reason=result.detail,
                    tracer=tracer,
                )
            return result
        finally:
            tracer.end(span)

    def _run_loop(self, max_steps: int = DEFAULT_STEP_BUDGET) -> ExecutionResult:
        process = self.process
        trace = getattr(process, "trace", None)
        profiler = getattr(process, "profiler", None)
        taint = getattr(process, "taint", None)
        if profiler is not None:
            # Run-scoped sampling phase: sample points become a pure
            # function of each run's completed-step count, so sweep
            # workers merge byte-identical to the sequential sweep.
            profiler.begin_run()
        steps = 0
        try:
            while steps < max_steps:
                native = process.native_at(process.pc)
                if native is not None:
                    pc = process.pc
                    if trace is not None:
                        trace.record(pc, "native", f"{native.name}(...)")
                    native.invoke(process)
                    steps += 1
                    if profiler is not None:
                        profiler.record_native(process, native, pc)
                    continue
                if trace is not None:
                    trace.record(process.pc, "insn", self._peek_text(process.pc))
                # Snapshot the register file the instruction will *read*
                # before stepping: propagation needs pre-step sp/base
                # values to locate memory operands.
                prev_regs = (dict(process.registers.values)
                             if taint is not None else None)
                insn = self.step()
                steps += 1
                if taint is not None:
                    taint.step(process, insn, prev_regs)
                if profiler is not None:
                    profiler.record_insn(process, insn)
            raise EmulationBudgetExceeded(max_steps)
        except _EmulationStop as stop:
            return ExecutionResult(stop.reason, steps, stop.detail)
        except (MemoryFault, CpuError) as fault:
            process.record_exit(code=139, signal=fault.signal)
            # Keep the fault, not its traceback: the frames would pin the
            # dead boot (process, segments) for as long as the result lives.
            return ExecutionResult("fault", steps, str(fault),
                                   fault=fault.with_traceback(None))
        finally:
            if profiler is not None:
                profiler.end_run(process)


def make_emulator(process: Process) -> Emulator:
    """Instantiate the right backend for the process architecture."""
    if process.arch == "x86":
        from .x86.emu import X86Emulator

        return X86Emulator(process)
    from .arm.emu import ArmEmulator

    return ArmEmulator(process)
