"""Differential test: the loader against the per-boot loader it replaced.

``load_process`` relocates libc once per base (``LibcImage.at``) and binds
natives from that base's table and the image's PLT table.
``reference_load_process`` below is the per-boot routine it replaced, kept
here (and only here) as the reference: a fresh ``relocate`` and fresh
native bindings on every boot.  For any image, protection set and ASLR
draw, both must give the same segments, native table, symbols and PLT,
and the paper's attacks the same outcomes.  The second half pins what sharing the relocated libc must
never do: let one boot's guest writes reach another boot.
"""

from __future__ import annotations

import random

import pytest

import repro.connman.daemon as daemon_module
from repro.binfmt import LoadedProcess, build_connman, build_libc, load_process, relocate
from repro.binfmt.libc import LibcImage
from repro.binfmt.loader import STACK_ENVIRONMENT_RESERVE
from repro.connman import ConnmanDaemon
from repro.core import PAPER_MATRIX, run_scenario
from repro.cpu import NativeFunction, Process
from repro.defenses import NONE, WX_ASLR
from repro.exploit import AslrBruteForcer
from repro.exploit.bruteforce import BruteForceTrial, run_bruteforce_trial
from repro.mem import AddressSpace, AslrPolicy, Perm, Segment, layout_for


def _reference_map_image(space: AddressSpace, image, prefix: str) -> None:
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


def reference_load_process(binary, libc_image: LibcImage, layout, *, wx_enabled: bool,
                           uid: int = 0, name=None) -> LoadedProcess:
    """The per-boot loader: relocate, bind and map everything afresh."""
    if binary.arch != layout.arch:
        raise ValueError(f"binary arch {binary.arch!r} != layout arch {layout.arch!r}")
    space = AddressSpace()
    _reference_map_image(space, binary, prefix=f"{binary.name}:")

    libc = relocate(libc_image.binary, layout.libc_base, new_name="libc")
    _reference_map_image(space, libc, prefix="libc:")

    dynamic_perm = Perm.RW if wx_enabled else Perm.RWX
    space.map_new("stack", layout.stack_base, layout.stack_size, dynamic_perm)
    space.map_new("stack-guard", layout.stack_base - 0x1000, 0x1000, Perm.NONE)
    space.map_new("heap", layout.heap_base, layout.heap_size, dynamic_perm)

    process = Process(binary.arch, space, uid=uid, name=name or binary.name)
    process.sp = layout.stack_top - STACK_ENVIRONMENT_RESERVE
    process.pc = binary.symbols.address_of("_start")
    for export, handler in libc_image.natives.items():
        address = libc.symbols.address_of(export)
        process.register_native(address, NativeFunction(export, handler))
    for external, plt_address in binary.plt.items():
        handler = libc_image.natives.get(external)
        if handler is not None:
            process.register_native(plt_address, NativeFunction(f"{external}@plt", handler))
    return LoadedProcess(
        process=process, binary=binary, libc=libc, layout=layout, wx_enabled=wx_enabled
    )


def segments_of(loaded: LoadedProcess):
    return [(seg.name, seg.base, seg.size, seg.perm, bytes(seg.data))
            for seg in loaded.process.memory.segments()]


def natives_of(loaded: LoadedProcess):
    return [(address, function.name, function.handler)
            for address, function in loaded.process.native.items()]


def layouts(arch: str):
    """The un-randomized layout and five ASLR draws from a four-page span,
    so at least two draws share a libc base."""
    policy = AslrPolicy(enabled=True, libc_slide_pages=4)
    rng = random.Random(0x10AD)
    return [layout_for(arch, aslr=False, rng=rng),
            *(policy.instantiate(arch, rng) for _ in range(5))]


@pytest.mark.parametrize("arch", ["x86", "arm"])
@pytest.mark.parametrize("wx_enabled", [True, False])
def test_loader_matches_reference(arch, wx_enabled):
    binary = build_connman(arch)
    image = build_libc(arch)
    for layout in layouts(arch):
        expected = reference_load_process(binary, image, layout, wx_enabled=wx_enabled,
                                          name="victim")
        for _ in range(2):  # a first boot at this base, then a cached one
            loaded = load_process(binary, image, layout, wx_enabled=wx_enabled,
                                  name="victim")
            assert segments_of(loaded) == segments_of(expected)
            assert natives_of(loaded) == natives_of(expected)
            process, reference = loaded.process, expected.process
            assert (process.pc, process.sp, process.name, process.uid) == (
                reference.pc, reference.sp, reference.name, reference.uid)
            for name in [*binary.symbols.names(), *image.binary.symbols.names()]:
                assert loaded.symbol(name) == expected.symbol(name), name
            for name in binary.plt:
                assert loaded.plt_address(name) == expected.plt_address(name), name
            assert loaded.libc.describe() == expected.libc.describe()
            assert loaded.process.memory.maps() == expected.process.memory.maps()


def test_scenario_outcomes_match_reference(monkeypatch):
    def outcomes():
        rows = []
        for scenario in PAPER_MATRIX:
            result = run_scenario(scenario)
            rows.append((result.row(), result.exploit.blob if result.exploit else None,
                         result.event.describe() if result.event else None))
        trial = run_bruteforce_trial(BruteForceTrial(3, 4, 48, entropy_pages=8))
        rows.append((trial.describe(), tuple(trial.outcomes)))
        return rows

    fast = outcomes()
    monkeypatch.setattr(daemon_module, "load_process", reference_load_process)
    assert outcomes() == fast


# -- sharing one relocated libc between boots -----------------------------------


def test_guest_writes_do_not_survive_a_respawn_at_the_same_base():
    daemon = ConnmanDaemon(arch="x86", profile=NONE, rng=random.Random(1))
    first = daemon.loaded
    memory = first.process.memory
    bss = first.libc.section(".bss")
    text = first.libc.section(".text")
    data = first.binary.section(".data")
    pristine_text, pristine_data = bytes(text.data), bytes(data.data)
    memory.write(bss.address, b"\xAA" * bss.size)
    memory.write(data.address, b"\xBB" * data.size)
    memory.write(text.address, b"\xCC" * 16, check=False)  # a debugger poke
    daemon.restart()
    again = daemon.loaded
    assert again.libc is first.libc  # same base: the relocated image is shared
    fresh = again.process.memory
    assert fresh is not memory
    assert fresh.read(bss.address, bss.size) == bytes(bss.size)
    assert fresh.read(data.address, data.size) == pristine_data
    assert fresh.read(text.address, len(pristine_text)) == pristine_text
    # The writes never reached the shared images either.
    assert (bss.data, text.data, data.data) == (bytearray(), pristine_text, pristine_data)


def test_cached_libc_stays_pristine_and_bounded():
    span = 8
    # With the return-address guard every guess crashes, so every attempt
    # writes its overflow into the boot and then respawns the victim.
    victim = ConnmanDaemon(
        arch="x86", profile=WX_ASLR.with_(aslr_entropy_pages=span, ret_guard=True),
        rng=random.Random(21))
    result = AslrBruteForcer(victim, max_attempts=40, rng=random.Random(22)).run()
    assert not result.succeeded and result.daemon_boots == 40
    placed = victim.libc_image._placed
    assert 1 < len(placed) <= victim.profile.aslr_entropy_pages
    for base, libc in placed.items():
        pristine = relocate(victim.libc_image.binary, base, new_name="libc")
        assert libc.binary.describe() == pristine.describe()
        for name, section in libc.binary.sections.items():
            assert section.data == pristine.sections[name].data, (base, name)
        assert dict(libc.binary.symbols.items()) == dict(pristine.symbols.items())


def test_placement_cache_resets_past_its_bound():
    from repro.binfmt import libc as libc_module

    image = build_libc("x86")
    limit = libc_module._PLACED_LIMIT
    for page in range(limit + 5):
        placed = image.at(0x40000000 + page * 0x1000)
        assert len(image._placed) <= limit
        assert image.at(0x40000000 + page * 0x1000) is placed
    # The valve cleared once, on the (limit + 1)th base.
    assert len(image._placed) == 5
