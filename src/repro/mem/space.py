"""The simulated 32-bit address space of a victim process."""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import UnmappedAddressError
from .perms import Perm
from .segment import Segment

ADDRESS_MASK = 0xFFFFFFFF

#: log2(PAGE_SIZE); page indices key the write-generation table consumed by
#: the decoded-instruction cache (:mod:`repro.cpu.cache`).
PAGE_SHIFT = 12

#: Safety valve: the address->segment memo resets past this many entries so
#: a pathological scan over the whole 32-bit space cannot hold memory.
_MEMO_LIMIT = 1 << 16


class AddressSpace:
    """A flat 32-bit address space built from non-overlapping segments.

    This is the single source of truth for process memory: the Connman
    simulation writes its stack frames here, the CPU emulators fetch
    instructions from here, and libc stubs (``memcpy``) copy bytes here.
    Accesses that cross segment boundaries or touch unmapped addresses fault
    exactly like the real process would.
    """

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        #: Sorted segment bases, kept in lockstep with ``_segments`` for
        #: bisect-based resolution.
        self._bases: List[int] = []
        #: address -> segment memo for :meth:`segment_at`; cleared whenever
        #: the mapping table changes.
        self._lookup_memo: Dict[int, Segment] = {}
        #: Bumped on every map/unmap.  Consumers holding derived state (the
        #: decode cache, the lookup memo) treat an epoch change as a flush.
        self.mapping_epoch = 0
        #: page index -> write generation; bumped by :meth:`write` so cached
        #: decodes of self-modified code are detected and dropped.
        self._page_gens: Dict[int, int] = {}
        #: Optional :class:`~repro.obs.taint.ShadowMemory` attached by a
        #: taint engine.  When set, every :meth:`write` updates the shadow:
        #: the ``taint=`` per-byte labels when given, a *clear* of the
        #: covered range otherwise (untainted data scrubs stale labels).
        self.taint = None

    def _mappings_changed(self) -> None:
        self._bases = [seg.base for seg in self._segments]
        self._lookup_memo.clear()
        self.mapping_epoch += 1

    # -- mapping -------------------------------------------------------------

    def map(self, segment: Segment) -> Segment:
        """Map a segment, refusing overlaps."""
        for existing in self._segments:
            if existing.overlaps(segment):
                raise ValueError(
                    f"segment {segment.name!r} overlaps {existing.name!r} "
                    f"({existing.describe()})"
                )
        self._segments.append(segment)
        self._segments.sort(key=lambda seg: seg.base)
        self._mappings_changed()
        return segment

    def map_new(self, name: str, base: int, size: int, perm: Perm) -> Segment:
        """Create and map a segment in one call."""
        return self.map(Segment(name, base, size, perm))

    def unmap(self, name: str) -> None:
        """Unmap the segment named ``name``.

        Raises :class:`KeyError` when no segment matches, and refuses to
        guess when several segments share the name — callers that mapped
        duplicates must unmap by a disambiguated handle, not silently lose
        every mapping at once.
        """
        matches = [seg for seg in self._segments if seg.name == name]
        if not matches:
            raise KeyError(f"no segment named {name!r}")
        if len(matches) > 1:
            spans = ", ".join(seg.describe() for seg in matches)
            raise ValueError(
                f"segment name {name!r} is ambiguous ({len(matches)} mappings: {spans})"
            )
        self._segments.remove(matches[0])
        self._mappings_changed()

    def segments(self) -> Iterator[Segment]:
        return iter(self._segments)

    def segment(self, name: str) -> Segment:
        for seg in self._segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    def has_segment(self, name: str) -> bool:
        return any(seg.name == name for seg in self._segments)

    def segment_at(self, address: int) -> Segment:
        """Return the segment covering ``address`` or fault.

        Resolution is a bisect over the sorted base list plus a memo of
        previously resolved addresses (the emulator's fetch stream revisits
        the same handful of addresses millions of times); both are
        invalidated whenever the mapping table changes.
        """
        seg = self._lookup_memo.get(address)
        if seg is not None:
            return seg
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            seg = self._segments[index]
            if seg.contains(address):
                if len(self._lookup_memo) >= _MEMO_LIMIT:
                    self._lookup_memo.clear()
                self._lookup_memo[address] = seg
                return seg
        raise UnmappedAddressError(address & ADDRESS_MASK)

    def contiguous_span(self, address: int, limit: int) -> int:
        """Mapped bytes reachable from ``address`` without a gap, capped at ``limit``.

        Instruction fetches use this to size their decode window: an
        instruction may straddle two *adjacent* segments (e.g. two
        back-to-back executable mappings) but must never read across a hole.
        Faults when ``address`` itself is unmapped.
        """
        address &= ADDRESS_MASK
        seg = self.segment_at(address)
        span = seg.end - address
        while span < limit:
            try:
                seg = self.segment_at(seg.end)
            except UnmappedAddressError:
                break
            span += seg.size
        return min(span, limit)

    def accessible_span(self, address: int, perm: Perm) -> int:
        """Bytes from ``address`` that one checked access needing ``perm``
        can cover without faulting: contiguous mappings, each granting
        ``perm``.  Zero when ``address`` itself would fault."""
        address &= ADDRESS_MASK
        segments = self._segments
        index = bisect_right(self._bases, address) - 1
        cursor = address
        while 0 <= index < len(segments):
            seg = segments[index]
            if not seg.contains(cursor) or perm not in seg.perm:
                break
            cursor = seg.end
            index += 1
        return cursor - address

    def page_generation(self, page: int) -> int:
        """Write generation of one page (``address >> PAGE_SHIFT``)."""
        return self._page_gens.get(page, 0)

    def page_generation_span(self, address: int, length: int) -> Tuple[Tuple[int, int], ...]:
        """Snapshot ``(page, generation)`` for every page a byte range spans.

        The validation stamp used by the decode and block caches: cheap
        (one dict probe per page, no segment resolution) and taken over the
        exact bytes a cached decode was derived from.
        """
        if length <= 0:
            length = 1
        page_gens = self._page_gens
        first = address >> PAGE_SHIFT
        last = (address + length - 1) >> PAGE_SHIFT
        return tuple((page, page_gens.get(page, 0)) for page in range(first, last + 1))

    def _note_write(self, address: int, length: int) -> None:
        """Bump the write generation of every page the write touched."""
        if length <= 0:
            return
        page_gens = self._page_gens
        for page in range(address >> PAGE_SHIFT, ((address + length - 1) >> PAGE_SHIFT) + 1):
            page_gens[page] = page_gens.get(page, 0) + 1

    def is_mapped(self, address: int, length: int = 1) -> bool:
        """True if the whole ``[address, address+length)`` range is mapped."""
        try:
            self._resolve(address, length)
        except UnmappedAddressError:
            return False
        return True

    def _resolve(self, address: int, length: int) -> List[Segment]:
        """Return the segments covering a range, faulting on any gap."""
        if length <= 0:
            return []
        address &= ADDRESS_MASK
        covering: List[Segment] = []
        cursor = address
        end = address + length
        while cursor < end:
            seg = self.segment_at(cursor)
            covering.append(seg)
            cursor = seg.end
        return covering

    # -- byte access ----------------------------------------------------------

    def read(self, address: int, length: int, *, check: bool = True) -> bytes:
        """Read bytes, spanning segment boundaries if mappings are contiguous."""
        address &= ADDRESS_MASK
        chunks = []
        cursor = address
        remaining = length
        for seg in self._resolve(address, length):
            take = min(remaining, seg.end - cursor)
            chunks.append(seg.read(cursor, take, check=check))
            cursor += take
            remaining -= take
        return b"".join(chunks)

    def write(self, address: int, payload: bytes, *, check: bool = True,
              taint=None) -> None:
        """Write bytes, spanning contiguous segments; faults on gaps/permissions.

        ``taint`` is an optional per-byte label sequence (one label set per
        payload byte) consumed by an attached shadow map; when omitted the
        write clears any shadow labels it covers.
        """
        address &= ADDRESS_MASK
        cursor = address
        offset = 0
        covering = self._resolve(address, len(payload))
        # Bump generations before writing: a permission fault mid-span may
        # leave earlier segments modified, and a spurious invalidation is
        # harmless while a missed one would execute stale decodes.
        self._note_write(address, len(payload))
        if self.taint is not None:
            # Same ordering rationale as the generation bump above: a
            # spurious label after a mid-span fault is harmless over-taint,
            # a missed one would hide real attacker data flow.
            if taint is None:
                self.taint.clear_range(address, len(payload))
            else:
                if len(taint) != len(payload):
                    raise ValueError(
                        f"taint labels cover {len(taint)} bytes but the "
                        f"write covers {len(payload)}")
                self.taint.set_range(address, taint)
        for seg in covering:
            take = min(len(payload) - offset, seg.end - cursor)
            seg.write(cursor, payload[offset : offset + take], check=check)
            cursor += take
            offset += take

    def fetch(self, address: int, length: int) -> bytes:
        """Instruction fetch (X-checked) — the W^X enforcement point."""
        address &= ADDRESS_MASK
        chunks = []
        cursor = address
        remaining = length
        for seg in self._resolve(address, length):
            take = min(remaining, seg.end - cursor)
            chunks.append(seg.fetch(cursor, take))
            cursor += take
            remaining -= take
        return b"".join(chunks)

    # -- typed helpers ---------------------------------------------------------

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return struct.unpack("<H", self.read(address, 2))[0]

    def read_u32(self, address: int) -> int:
        return struct.unpack("<I", self.read(address, 4))[0]

    def write_u8(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, bytes([value & 0xFF]), taint=taint)

    def write_u16(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, struct.pack("<H", value & 0xFFFF), taint=taint)

    def write_u32(self, address: int, value: int, *, taint=None) -> None:
        self.write(address, struct.pack("<I", value & ADDRESS_MASK), taint=taint)

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (used by execve/system stubs)."""
        out = bytearray()
        cursor = address
        while len(out) < limit:
            byte = self.read_u8(cursor)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        return bytes(out)

    def write_cstring(self, address: int, value: bytes) -> None:
        self.write(address, value + b"\x00")

    # -- search / introspection -------------------------------------------------

    def find(self, needle: bytes, *, segment_names: Optional[Iterable[str]] = None) -> List[int]:
        """Find every occurrence of ``needle`` (the ``-memstr`` primitive)."""
        wanted = set(segment_names) if segment_names is not None else None
        hits: List[int] = []
        for seg in self._segments:
            if wanted is not None and seg.name not in wanted:
                continue
            start = 0
            while True:
                index = seg.data.find(needle, start)
                if index < 0:
                    break
                hits.append(seg.base + index)
                start = index + 1
        return hits

    def maps(self) -> str:
        """Render the mapping table like ``/proc/<pid>/maps``."""
        return "\n".join(seg.describe() for seg in self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace({len(self._segments)} segments)"
