"""Maps a binary + libc into a fresh process, applying the protection model.

This is where the two OS defenses the paper bypasses are applied:

* **W^X** — when enabled, stack and heap are mapped RW; when disabled
  (pre-NX, or ``execstack``-style builds), they are RWX and injected
  shellcode can run from the stack;
* **ASLR** — when enabled, the libc and stack bases come pre-randomized in
  the :class:`~repro.mem.MemoryLayout`; the non-PIE main image stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cpu import Process
from ..mem import AddressSpace, MemoryLayout, Perm, Segment
from .binary import Binary
from .libc import LibcImage
from .section import Symbol

#: Bytes left above the initial stack pointer for env/argv furniture.
STACK_ENVIRONMENT_RESERVE = 0x200


@dataclass
class LoadedProcess:
    """A process plus the images it was built from."""

    process: Process
    binary: Binary
    #: libc relocated to this boot's base; shared, read-only, by every boot
    #: of the image at that base (:meth:`LibcImage.at`).
    libc: Binary
    layout: MemoryLayout
    wx_enabled: bool

    def symbol(self, name: str) -> Symbol:
        """Look up a symbol in the main binary, then in the mapped libc."""
        found = self.binary.symbols.get(name)
        if found is None:
            found = self.libc.symbols.get(name)
        if found is None:
            raise KeyError(f"symbol {name!r} not found in {self.binary.name} or libc")
        return found

    def address_of(self, name: str) -> int:
        return self.symbol(name).address

    def plt_address(self, name: str) -> int:
        try:
            return self.binary.plt[name]
        except KeyError:
            raise KeyError(f"{self.binary.name} has no PLT entry for {name!r}") from None


def _map_image(space: AddressSpace, image: Binary, prefix: str) -> None:
    for section in image.sections.values():
        segment = Segment(
            name=f"{prefix}{section.name}",
            base=section.address,
            size=max(section.size, 1),
            perm=section.perm,
        )
        if section.data:
            segment.data[: len(section.data)] = section.data
        space.map(segment)


def load_process(
    binary: Binary,
    libc_image: LibcImage,
    layout: MemoryLayout,
    *,
    wx_enabled: bool,
    uid: int = 0,
    name: Optional[str] = None,
) -> LoadedProcess:
    """Instantiate one run of ``binary`` under the given protection set."""
    if binary.arch != layout.arch:
        raise ValueError(f"binary arch {binary.arch!r} != layout arch {layout.arch!r}")
    space = AddressSpace()
    _map_image(space, binary, prefix=f"{binary.name}:")

    libc = libc_image.at(layout.libc_base)
    _map_image(space, libc.binary, prefix="libc:")

    dynamic_perm = Perm.RW if wx_enabled else Perm.RWX
    space.map_new("stack", layout.stack_base, layout.stack_size, dynamic_perm)
    # Inaccessible guard page below the stack: runaway descending writes
    # (deep recursion, wild push loops) fault instead of silently landing
    # in whatever happens to be mapped beneath.
    space.map_new("stack-guard", layout.stack_base - 0x1000, 0x1000, Perm.NONE)
    space.map_new("heap", layout.heap_base, layout.heap_size, dynamic_perm)

    process = Process(binary.arch, space, uid=uid, name=name or binary.name)
    process.sp = layout.stack_top - STACK_ENVIRONMENT_RESERVE
    process.pc = binary.symbols.address_of("_start")

    # Bind libc exports at their mapped libc addresses...
    process.native.update(libc.natives)
    # ...and bind the binary's PLT entries straight to the same handlers
    # (eager-binding model of PLT -> GOT -> libc indirection).
    for external, plt_address in binary.plt.items():
        function = libc_image.plt.get(external)
        if function is not None:
            process.register_native(plt_address, function)

    return LoadedProcess(
        process=process, binary=binary, libc=libc.binary, layout=layout,
        wx_enabled=wx_enabled,
    )
