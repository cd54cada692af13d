"""Spans and counters recorded around the program's public layer functions.

The traced run wraps each layer boundary from the benchmark's side, so the
program itself carries no tracing code.  Spans are kept in memory as
tuples and summarised at the end.  Guest-memory calls (``AddressSpace``
reads and writes) are far too frequent for a span each — per-call spans
roughly doubled a brute-force attempt — so they are recorded as counts and
busy time at the boundary; that busy time still covers the enclosing span,
so self times and the remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import Span


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.op_id = 0
        self._stack: List[list] = []  # [span_id, name, start, counter_busy]
        self._next_id = 1
        self._in_counter = False

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans closed out of order"
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((frame[0], frame[1], frame[2], end, parent,
                           self.op_id, frame[3]))

    def span(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``note(tracer, result)`` records counts."""
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            self.count(calls)
            if note is not None:
                note(self, result)
            return result
        return traced

    def counter(self, name: str, fn: Callable, size: Callable[..., int]) -> Callable:
        """Wrap ``fn`` as a counter-only boundary; nested calls pass through,
        so ``read_u32`` -> ``read`` counts once."""
        calls, nbytes = f"{name}.calls", f"{name}.bytes"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_counter:
                return fn(*args, **kwargs)
            self._in_counter = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_counter = False
                self.busy[name] = self.busy.get(name, 0.0) + elapsed
                if self._stack:
                    self._stack[-1][3] += elapsed
            self.count(calls)
            self.count(nbytes, size(result, *args, **kwargs))
            return result
        return counted


# -- the layer boundaries ------------------------------------------------------------


def _note_steps(tracer: Tracer, result) -> None:
    tracer.count("cpu.steps", result.steps)


def _note_get(tracer: Tracer, result) -> None:
    tracer.count("connman.cache.lookups")
    tracer.count("connman.cache.get")
    if result is not None:
        tracer.count("connman.cache.hits")


def _note_stale(tracer: Tracer, _result) -> None:
    tracer.count("connman.cache.lookups")


def _note_delivery(tracer: Tracer, report) -> None:
    tracer.count("exploit.roots", int(report.got_root_shell))


def _read_size(result, *_args, **_kwargs) -> int:
    return len(result)


def _write_size(_result, _space, _address, payload, *_args, **_kwargs) -> int:
    return len(payload)


def _fixed(width: int) -> Callable[..., int]:
    return lambda *_args, **_kwargs: width


def _cstring_size(_result, _space, _address, value, *_args, **_kwargs) -> int:
    return len(value) + 1


def _builder_classes() -> List[type]:
    from repro.exploit.builders.base import ExploitBuilder

    found, pending = [], [ExploitBuilder]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in found if "build" in cls.__dict__ and cls is not ExploitBuilder]


def _boundaries():
    """(kind, owner, attribute, span name, note-or-size) for every boundary."""
    import repro.core.experiments  # noqa: F401  (loads every layer)
    from repro.binfmt import build_connman, build_libc, load_process
    from repro.connman.dnsproxy import DnsProxyCore
    from repro.connman.gueststore import GuestBackedDnsCache
    from repro.core import parallel, registry, resume
    from repro.cpu.emulator import Emulator
    from repro.dns.message import Message
    from repro.exploit import delivery, payload
    from repro.exploit.gadgets import GadgetFinder
    from repro.exploit.recon import Debugger
    from repro.mem.space import AddressSpace
    from repro.net.network import Network

    yield ("function", payload.plan_labels, None, "exploit.plan", None)
    for cls in _builder_classes():
        yield ("method", cls, "build", "exploit.build", None)
    for method in ("all_gadgets", "find_text", "pops_then_ret", "pop_regs",
                   "jmp_reg_gadgets", "blx_trampolines", "memstr", "char_sources"):
        yield ("method", GadgetFinder, method, "exploit.gadgets", None)
    for method in ("knowledge", "find_ret_offset", "find_ret_offset_taint"):
        yield ("method", Debugger, method, "exploit.recon", None)
    yield ("function", delivery.deliver, None, "exploit.deliver", _note_delivery)
    yield ("function", build_connman, None, "binfmt.image", None)
    yield ("function", build_libc, None, "binfmt.image", None)
    yield ("function", load_process, None, "binfmt.load", None)
    yield ("method", DnsProxyCore, "handle_reply", "connman.reply", None)
    yield ("method", GuestBackedDnsCache, "get", "connman.cache", _note_get)
    yield ("method", GuestBackedDnsCache, "get_stale", "connman.cache", _note_stale)
    yield ("method", GuestBackedDnsCache, "put", "connman.cache", None)
    yield ("method", Emulator, "run", "cpu.run", _note_steps)
    yield ("method", Message, "encode", "dns.codec", None)
    yield ("classmethod", Message, "decode", "dns.codec", None)
    yield ("method", Network, "deliver", "net.deliver", None)
    yield ("function", parallel.run_supervised, None, "core.dispatch", None)
    yield ("function", parallel.run_tasks, None, "core.dispatch", None)
    yield ("method", registry.ExperimentRun, "to_artifact", "core.artifact", None)
    yield ("function", resume.write_results, None, "core.artifact", None)
    yield ("function", resume.load_results, None, "core.artifact", None)
    yield ("counter", AddressSpace, "read", "mem.read", _read_size)
    yield ("counter", AddressSpace, "read_cstring", "mem.read", _read_size)
    for width, suffix in ((1, "u8"), (2, "u16"), (4, "u32")):
        yield ("counter", AddressSpace, f"read_{suffix}", "mem.read", _fixed(width))
        yield ("counter", AddressSpace, f"write_{suffix}", "mem.write", _fixed(width))
    yield ("counter", AddressSpace, "write", "mem.write", _write_size)
    yield ("counter", AddressSpace, "write_cstring", "mem.write", _cstring_size)


def _trial_dispatch(tracer: Tracer, dispatch: Callable) -> Callable:
    """``run_supervised``/``run_tasks`` with each trial in its own span, so
    dispatch self time excludes the trials it runs (workers=1: in-process)."""
    @functools.wraps(dispatch)
    def dispatched(worker, tasks, *args, **kwargs):
        return dispatch(tracer.span("trial", worker), tasks, *args, **kwargs)
    return dispatched


class Instrumentation:
    """Every boundary's wrapper, switched on and off as a whole.

    Building it walks the loaded modules once; ``apply`` and ``remove``
    then only swap attributes, so traced and untraced operations can
    alternate and run at the same machine speed.
    """

    def __init__(self, tracer: Tracer):
        #: (owner, attribute, original, wrapped)
        self.swaps: List[Tuple[Any, str, Any, Any]] = []
        for kind, owner, attribute, name, extra in list(_boundaries()):
            if kind == "function":
                original = owner
                if name == "core.dispatch":
                    wrapped = tracer.span(name, _trial_dispatch(tracer, original))
                else:
                    wrapped = tracer.span(name, original, extra)
                # Rebind every module-level reference: callers import these by name.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self.swaps.append((module, key, original, wrapped))
                continue
            original = owner.__dict__[attribute]
            if kind == "method":
                wrapped = tracer.span(name, original, extra)
            elif kind == "classmethod":
                wrapped = classmethod(tracer.span(name, original.__func__, extra))
            else:
                wrapped = tracer.counter(name, original, extra)
            self.swaps.append((owner, attribute, original, wrapped))

    def apply(self) -> None:
        for owner, attribute, _original, wrapped in self.swaps:
            setattr(owner, attribute, wrapped)

    def remove(self) -> None:
        for owner, attribute, original, _wrapped in reversed(self.swaps):
            setattr(owner, attribute, original)
