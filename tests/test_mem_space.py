"""AddressSpace, Segment and Perm behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    AccessViolation,
    AddressSpace,
    Perm,
    Segment,
    SegmentationFault,
    UnmappedAddressError,
    WxViolation,
)


def make_space():
    space = AddressSpace()
    space.map_new("low", 0x1000, 0x1000, Perm.RW)
    space.map_new("high", 0x2000, 0x1000, Perm.RW)  # contiguous with low
    space.map_new("code", 0x10000, 0x1000, Perm.RX)
    space.map_new("guarded", 0x20000, 0x1000, Perm.NONE)
    return space


class TestPerm:
    def test_describe_rwx(self):
        assert Perm.RWX.describe() == "rwx"

    def test_describe_rx(self):
        assert Perm.RX.describe() == "r-x"

    def test_describe_none(self):
        assert Perm.NONE.describe() == "---"

    def test_parse_roundtrip(self):
        for perm in (Perm.NONE, Perm.R, Perm.RW, Perm.RX, Perm.RWX):
            assert Perm.parse(perm.describe()) == perm

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Perm.parse("rq")

    def test_flag_membership(self):
        assert Perm.R in Perm.RX
        assert Perm.W not in Perm.RX


class TestSegment:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Segment("empty", 0x1000, 0, Perm.RW)

    def test_rejects_out_of_32bit_range(self):
        with pytest.raises(ValueError):
            Segment("huge", 0xFFFFF000, 0x2000, Perm.RW)

    def test_contains_boundaries(self):
        seg = Segment("s", 0x1000, 0x100, Perm.RW)
        assert seg.contains(0x1000)
        assert seg.contains(0x10FF)
        assert not seg.contains(0x1100)
        assert not seg.contains(0xFFF)

    def test_overlap_detection(self):
        a = Segment("a", 0x1000, 0x100, Perm.RW)
        b = Segment("b", 0x10FF, 0x10, Perm.RW)
        c = Segment("c", 0x1100, 0x10, Perm.RW)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_describe_format(self):
        seg = Segment("stack", 0x1000, 0x1000, Perm.RW)
        assert seg.describe() == "00001000-00002000 rw- stack"


class TestMapping:
    def test_overlapping_map_rejected(self):
        space = make_space()
        with pytest.raises(ValueError, match="overlaps"):
            space.map_new("bad", 0x1800, 0x1000, Perm.RW)

    def test_unmap_removes(self):
        space = make_space()
        space.unmap("guarded")
        assert not space.is_mapped(0x20000)

    def test_unmap_unknown_raises(self):
        with pytest.raises(KeyError):
            make_space().unmap("nope")

    def test_segment_lookup_by_name(self):
        assert make_space().segment("code").base == 0x10000

    def test_segment_at_faults_on_gap(self):
        with pytest.raises(UnmappedAddressError):
            make_space().segment_at(0x3000)

    def test_maps_rendering(self):
        text = make_space().maps()
        assert "00010000-00011000 r-x code" in text


#: Candidates colliding with make_space()'s "code" segment [0x10000, 0x11000)
#: in every way the bisect-neighbour check has to catch.
OVERLAPS = {
    "tail of the predecessor": (0x10800, 0x1000),
    "head of the successor": (0xF800, 0x1000),
    "inside an existing segment": (0x10400, 0x100),
    "around an existing segment": (0xF000, 0x3000),
    "same base": (0x10000, 0x10),
    "last byte of the predecessor": (0x10FFF, 0x10),
    "first byte of the successor": (0xF000, 0x1001),
}


class TestNeighbourOverlap:
    @pytest.mark.parametrize("case", sorted(OVERLAPS))
    def test_overlap_refused_and_nothing_changes(self, case):
        space = make_space()
        for address in (0x1000, 0x2004, 0x10000):
            space.segment_at(address)  # warm the lookup memo
        before = (list(space.segments()), dict(space._lookup_memo),
                  list(space._bases))
        base, size = OVERLAPS[case]
        with pytest.raises(ValueError, match="overlaps"):
            space.map(Segment("bad", base, size, Perm.RW))
        assert (list(space.segments()), dict(space._lookup_memo),
                list(space._bases)) == before

    def test_adjacent_segments_allowed(self):
        space = make_space()
        space.map(Segment("above", 0x11000, 0x1000, Perm.RW))
        space.map(Segment("below", 0xF000, 0x1000, Perm.RW))
        names = [seg.name for seg in space.segments()]
        assert names[names.index("below"):][:3] == ["below", "code", "above"]
        assert space.segment_at(0xFFFF).name == "below"
        assert space.segment_at(0x11000).name == "above"
        assert space.contiguous_span(0xF000, 0x3000) == 0x3000

    def test_out_of_order_maps_stay_sorted(self):
        space = make_space()
        space.map(Segment("z", 0x30000, 0x1000, Perm.RW))
        space.map(Segment("y", 0x5000, 0x1000, Perm.RW))
        bases = [seg.base for seg in space.segments()]
        assert bases == sorted(bases) == space._bases and len(bases) == 6
        assert space.segment_at(0x5000).name == "y"
        assert space.segment_at(0x30FFF).name == "z"

    def test_unmap_keeps_lookup_in_step(self):
        space = make_space()
        space.unmap("high")
        assert space.segment_at(0x1FFF).name == "low"
        assert space.segment_at(0x10000).name == "code"
        with pytest.raises(UnmappedAddressError):
            space.segment_at(0x2000)
        space.map_new("high-again", 0x2000, 0x800, Perm.RW)
        assert space.segment_at(0x27FF).name == "high-again"


class TestReadWrite:
    def test_roundtrip(self):
        space = make_space()
        space.write(0x1100, b"hello")
        assert space.read(0x1100, 5) == b"hello"

    def test_cross_segment_write_and_read(self):
        space = make_space()
        payload = bytes(range(64))
        space.write(0x2000 - 32, payload)  # spans low -> high
        assert space.read(0x2000 - 32, 64) == payload

    def test_write_into_gap_faults(self):
        space = make_space()
        with pytest.raises(UnmappedAddressError):
            space.write(0x2FF0, b"A" * 0x20)  # runs past high's end

    def test_read_requires_r(self):
        space = make_space()
        with pytest.raises(AccessViolation):
            space.read(0x20000, 1)

    def test_write_requires_w(self):
        space = make_space()
        with pytest.raises(AccessViolation):
            space.write(0x10000, b"x")

    def test_check_false_bypasses_permissions(self):
        space = make_space()
        space.write(0x10000, b"\x90", check=False)
        assert space.read(0x10000, 1, check=False) == b"\x90"

    def test_fetch_requires_x(self):
        space = make_space()
        with pytest.raises(WxViolation):
            space.fetch(0x1000, 1)

    def test_fetch_from_code_ok(self):
        space = make_space()
        space.write(0x10010, b"\xc3", check=False)
        assert space.fetch(0x10010, 1) == b"\xc3"

    def test_wx_violation_is_segfault(self):
        assert issubclass(WxViolation, SegmentationFault)

    def test_typed_u32_roundtrip(self):
        space = make_space()
        space.write_u32(0x1200, 0xDEADBEEF)
        assert space.read_u32(0x1200) == 0xDEADBEEF
        assert space.read_u16(0x1200) == 0xBEEF
        assert space.read_u8(0x1203) == 0xDE

    def test_u32_wraps_to_32_bits(self):
        space = make_space()
        space.write_u32(0x1200, 0x1_0000_0005)
        assert space.read_u32(0x1200) == 5

    def test_cstring_roundtrip(self):
        space = make_space()
        space.write_cstring(0x1300, b"/bin/sh")
        assert space.read_cstring(0x1300) == b"/bin/sh"

    def test_cstring_respects_limit(self):
        space = make_space()
        space.write(0x1300, b"A" * 64)
        assert space.read_cstring(0x1300, limit=16) == b"A" * 16


    def test_accessible_span_follows_adjacent_segments(self):
        space = AddressSpace()
        space.map_new("a", 0x1000, 0x1000, Perm.RW)
        space.map_new("b", 0x2000, 0x1000, Perm.RW)
        space.map_new("ro", 0x3000, 0x1000, Perm.R)
        space.map_new("far", 0x5000, 0x1000, Perm.RW)
        assert space.accessible_span(0x1800, Perm.W) == 0x1800
        assert space.accessible_span(0x1800, Perm.R) == 0x2800
        assert space.accessible_span(0x3000, Perm.W) == 0
        assert space.accessible_span(0x4000, Perm.R) == 0
        assert space.accessible_span(0x5FFF, Perm.W) == 1
        # The span is exactly what one checked access can cover.
        space.write(0x1800, b"\x00" * 0x1800)
        with pytest.raises(AccessViolation):
            space.write(0x1800, b"\x00" * 0x1801)


class TestFind:
    def test_find_locates_all_occurrences(self):
        space = make_space()
        space.write(0x1100, b"shshsh")
        hits = space.find(b"sh")
        assert hits[:3] == [0x1100, 0x1102, 0x1104]

    def test_find_overlapping(self):
        space = make_space()
        space.write(0x1100, b"aaa")
        assert space.find(b"aa")[:2] == [0x1100, 0x1101]

    def test_find_restricted_to_segments(self):
        space = make_space()
        space.write(0x1100, b"needle")
        space.write(0x10100, b"needle", check=False)
        assert space.find(b"needle", segment_names=["code"]) == [0x10100]


@settings(max_examples=50)
@given(offset=st.integers(min_value=0, max_value=0x1FF0),
       data=st.binary(min_size=1, max_size=64))
def test_property_write_read_roundtrip(offset, data):
    """Anything written into the contiguous region reads back identically."""
    space = AddressSpace()
    space.map_new("a", 0x1000, 0x1000, Perm.RW)
    space.map_new("b", 0x2000, 0x1000, Perm.RW)
    address = 0x1000 + min(offset, 0x2000 - len(data))
    space.write(address, data)
    assert space.read(address, len(data)) == data
