"""Differential test: the bulk name copy against the per-label copy.

``DnsProxyCore._get_name`` gathers Listing 1's stores on the host and lands
the ones that fit as one guest write; ``_read_back_name`` reads its bounded
window once.  The functions below are the per-label versions they replaced,
kept here (and only here) as the reference: one guest write per length byte
and per label, two guest reads per label.  For any label stream, both must
leave the same guest bytes and taint shadow, record the same taint seeds in
the same order, and return or raise the same thing.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connman.dnsproxy import MAX_POINTER_JUMPS, FramePlacement, _Drop
from repro.mem import MemoryFault, Perm
from repro.obs.taint import TaintEngine
from tests.conftest import fresh_daemon


def reference_get_name(core, packet: bytes, offset: int, name_address: int) -> int:
    """Listing 1 with one guest write per store (the pre-bulk routine)."""
    memory = core.loaded.process.memory
    taint = getattr(core.loaded.process, "taint", None)

    def wire(cursor_offset: int, count: int, note: str):
        if taint is None:
            return None
        return taint.wire_labels(cursor_offset, count,
                                 address=name_address + name_len, note=note)

    patched = not core.version.is_vulnerable
    name_len = 0
    jumps = 0
    cursor = offset
    end: Optional[int] = None
    while True:
        if cursor >= len(packet):
            raise _Drop("name runs past end of packet")
        length = packet[cursor]
        if length == 0:
            memory.write_u8(name_address + name_len, 0,
                            taint=wire(cursor, 1, "name terminator"))
            return end if end is not None else cursor + 1
        if length & 0xC0 == 0xC0:
            if end is None:
                end = cursor + 2
            jumps += 1
            if jumps > MAX_POINTER_JUMPS:
                raise _Drop("compression pointer loop")
            if cursor + 1 >= len(packet):
                raise _Drop("truncated pointer")
            cursor = ((length & 0x3F) << 8) | packet[cursor + 1]
            continue
        if length & 0xC0:
            raise _Drop(f"reserved label type {length:#04x}")
        label_length = length
        if patched and name_len + label_length + 2 > core.frame.buffer_size:
            raise _Drop("uncompressed name too long (patched bounds check)")
        memory.write_u8(name_address + name_len, label_length,
                        taint=wire(cursor, 1, "label length"))
        name_len += 1
        chunk = packet[cursor + 1 : cursor + 1 + label_length + 1]
        if len(chunk) < label_length:
            raise _Drop("label runs past end of packet")
        memory.write(name_address + name_len, chunk,
                     taint=wire(cursor + 1, len(chunk), "label bytes"))
        name_len += label_length
        cursor += 1 + label_length


def reference_read_back_name(core, place: FramePlacement) -> str:
    """The bounded read-back with two guest reads per label."""
    process = core.loaded.process
    memory = process.memory
    taint = getattr(process, "taint", None)
    shadowed = taint is not None and taint.shadow is not None
    labels: List[str] = []
    char_labels: List = []
    cursor = place.name_address
    limit = place.name_address + core.frame.buffer_size
    while cursor < limit:
        length = memory.read_u8(cursor)
        if length == 0 or length > 63:
            break
        labels.append(memory.read(cursor + 1, length).decode("latin-1"))
        if shadowed:
            if len(labels) > 1:
                char_labels.append(taint.shadow.union(cursor, 1))
            char_labels.extend(taint.shadow.read(cursor + 1, length))
        cursor += 1 + length
    name = ".".join(labels)
    if shadowed:
        taint.register_derived(name, char_labels)
    return name


# -- driving both implementations on twin daemons ---------------------------------


def _twin(arch: str, version: str, taint: bool, guard: Optional[Perm], packet: bytes):
    daemon = fresh_daemon(arch, version=version, seed=4321)
    core = daemon.proxy
    process = daemon.loaded.process
    if guard is not None:
        # A mapping right above the stack top with ``guard`` permissions:
        # read-only makes a store that crosses the top land partly, then
        # fault; write-only lets the copy succeed and the read-back fault.
        top = daemon.loaded.layout.stack_top
        process.memory.map_new("guard", top, 0x1000, guard)
    engine = None
    if taint:
        engine = TaintEngine()
        engine.attach_process(process)
        engine.begin_source(packet)
    place = core.placement()
    core._set_up_frame(place)
    return core, engine, place


def _outcome(call):
    try:
        return ("ok", call())
    except _Drop as drop:
        return ("drop", drop.reason)
    except MemoryFault as fault:
        return (type(fault).__name__, str(fault))


def _state(core, engine):
    memory = core.loaded.process.memory
    frames = [(seg.name, bytes(seg.data)) for seg in memory.segments()]
    if engine is None:
        return frames, None, None, None
    return frames, dict(engine.shadow._labels), list(engine.seeds), dict(engine.derived)


def run_both(arch: str, version: str, packet: bytes, offset: int, shift: int,
             *, taint: bool, guard: Optional[Perm] = None):
    """Run both copies on twin daemons and compare; returns the (shared)
    outcomes of the expansion and of the read-back."""
    sides = []
    for get_name, read_back in ((reference_get_name, reference_read_back_name),
                                (None, None)):
        core, engine, place = _twin(arch, version, taint, guard, packet)
        # Move the buffer up towards the stack top so long names run off it.
        place = FramePlacement(name_address=place.name_address + shift,
                               ret_slot=place.ret_slot + shift)
        if get_name is None:
            expand = lambda: core._get_name(packet, offset, place.name_address)  # noqa: E731
            read = lambda: core._read_back_name(place)  # noqa: E731
        else:
            expand = lambda: get_name(core, packet, offset, place.name_address)  # noqa: E731
            read = lambda: read_back(core, place)  # noqa: E731
        expanded = _outcome(expand)
        read_back_outcome = _outcome(read) if expanded[0] == "ok" else None
        sides.append((expanded, read_back_outcome, _state(core, engine)))
    reference, bulk = sides
    assert bulk[0] == reference[0], "returned offset or raised exception differs"
    assert bulk[1] == reference[1], "read-back name or fault differs"
    frames_ref, shadow_ref, seeds_ref, derived_ref = reference[2]
    frames_new, shadow_new, seeds_new, derived_new = bulk[2]
    assert frames_new == frames_ref, "guest bytes differ"
    assert shadow_new == shadow_ref, "taint shadow differs"
    assert seeds_new == seeds_ref, "taint seed records differ"
    assert derived_new == derived_ref, "derived-name provenance differs"
    return reference[0], reference[1]


# -- label streams ------------------------------------------------------------------

PREFIX = 12  # a DNS header's worth of bytes pointers may aim into

#: Reserved label types and a pointer cut off by the end of the packet.
ODD_ENDINGS = (b"\x40", b"\x7f", b"\xbf", b"\xc0")


@st.composite
def label_streams(draw):
    """A header, then labels (long enough, often, to overflow the frame or
    run off the stack) ending in a root label, a compression pointer back
    into the stream, a reserved type, or a truncation."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=63), max_size=45))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    starts = []
    body = bytearray(rng.randrange(256) for _ in range(PREFIX))
    for length in lengths:
        starts.append(len(body))
        body += bytes((length,)) + bytes(rng.randrange(256) for _ in range(length))
    ending = draw(st.sampled_from(["root", "root", "pointer", "odd", "cut"]))
    if ending == "pointer":
        target = draw(st.sampled_from(starts)) if starts else 0
        if draw(st.booleans()):
            target = draw(st.integers(min_value=0, max_value=len(body)))
        body += bytes((0xC0 | (target >> 8), target & 0xFF))
    elif ending == "odd":
        body += draw(st.sampled_from(ODD_ENDINGS))
    else:
        body.append(0)
        if ending == "cut":
            del body[-draw(st.integers(min_value=1, max_value=3)):]
    return bytes(body)


@settings(max_examples=120, deadline=None)
@given(packet=label_streams(),
       arch=st.sampled_from(["x86", "arm"]),
       version=st.sampled_from(["1.34", "1.35"]),
       taint=st.booleans(),
       shift=st.sampled_from([0, 0, 0x200, 0x2F0]))
def test_property_bulk_copy_matches_per_label_copy(packet, arch, version, taint, shift):
    run_both(arch, version, packet, PREFIX, shift, taint=taint)


@settings(max_examples=30, deadline=None)
@given(packet=label_streams(), arch=st.sampled_from(["x86", "arm"]),
       taint=st.booleans())
def test_property_partial_store_into_read_only_neighbour(packet, arch, taint):
    run_both(arch, "1.34", packet, PREFIX, 0x2F0, taint=taint, guard=Perm.R)


def _flat(lengths, seed: int = 7) -> bytes:
    rng = random.Random(seed)
    return b"".join(bytes((n,)) + bytes(rng.randrange(256) for _ in range(n))
                    for n in lengths) + b"\x00"


def test_overflow_past_return_slot_both_arches():
    packet = b"\x00" * PREFIX + _flat([63] * 18)  # 1152 bytes, past name+1056
    for arch in ("x86", "arm"):
        for taint in (False, True):
            expanded, _read = run_both(arch, "1.34", packet, PREFIX, 0, taint=taint)
            assert expanded == ("ok", len(packet))


def test_run_off_the_stack_top():
    packet = b"\x00" * PREFIX + _flat([63] * 40)  # 2560 bytes, past the top
    for taint in (False, True):
        expanded, _read = run_both("x86", "1.34", packet, PREFIX, 0, taint=taint)
        assert expanded[0] == "UnmappedAddressError"


def test_patched_drop_after_partial_copy():
    packet = b"\x00" * PREFIX + _flat([63] * 18)
    for taint in (False, True):
        expanded, _read = run_both("x86", "1.35", packet, PREFIX, 0, taint=taint)
        assert expanded == ("drop", "uncompressed name too long (patched bounds check)")


def test_compression_pointer_loop():
    packet = b"\x00" * PREFIX + b"\x03abc" + bytes((0xC0, PREFIX))
    expanded, _read = run_both("arm", "1.34", packet, PREFIX, 0, taint=True)
    assert expanded == ("drop", "compression pointer loop")


def test_read_back_label_straddles_the_buffer_bound():
    # 21 labels of 50: the last starts at name+1020 and reads 47 bytes
    # past the 1024-byte bound, as the bounded walk always has.
    packet = b"\x00" * PREFIX + _flat([50] * 21)
    for taint in (False, True):
        _expanded, read = run_both("x86", "1.34", packet, PREFIX, 0, taint=taint)
        assert read[0] == "ok" and len(read[1]) == 21 * 51 - 1


def test_read_back_faults_on_an_unreadable_neighbour():
    # Moved up so that the straddling label's bytes lie past the stack top,
    # in a write-only mapping: the copy lands, its read-back faults.
    packet = b"\x00" * PREFIX + _flat([50] * 21)
    core, _engine, place = _twin("x86", "1.34", False, None, packet)
    top = core.loaded.layout.stack_top
    shift = top - (place.name_address + 1020 + 20)
    for taint in (False, True):
        expanded, read = run_both("x86", "1.34", packet, PREFIX, shift,
                                  taint=taint, guard=Perm.W)
        assert expanded == ("ok", len(packet))
        assert read[0] == "AccessViolation"
