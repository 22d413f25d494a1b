"""Property: demotion only happens under genuine warm-tier pressure.

A page must never move to a colder tier while the warmer tier still has
reclaimable (clean, already-backed) space — demotion pays a decompress +
recompress, so spending it while a free-to-drop frame exists would be
pure waste.  The shrink path encodes this by preferring all-clean victim
frames; the property pins it from the outside: every
:class:`~repro.tiers.compressed.DemotionSink` write must be observed
with zero reclaimable frames at the moment its source tier's shrink
began.

Cleaners are disabled throughout: the cleaner *deliberately* writes
dirty pages ahead of pressure (that is its job, and the copies stay in
the warm tier), so the invariant is about the shrink path only.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccache.cleaner import CleanerPolicy
from repro.mem.page import PageId, mbytes
from repro.mem.segment import AddressSpace
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import TierSpec

NPAGES = 200

#: A cleaner that never demotes ahead of pressure.
NO_CLEAN = CleanerPolicy(target_clean_fraction=0.0)


def build_machine():
    config = MachineConfig(
        memory_bytes=mbytes(0.5),
        tiers=(
            TierSpec(name="l1", compressor="lzrw1", max_frames=6,
                     cleaner=NO_CLEAN),
            TierSpec(name="l2", compressor="lzss", cleaner=NO_CLEAN),
        ),
    )
    space = AddressSpace()
    segment = space.add_segment("heap", NPAGES)
    machine = Machine(config, space)
    return machine, segment


def instrument(machine):
    """Record L1's reclaimable frames at shrink entry; collect the value
    seen by every demotion out of L1."""
    l1 = machine.chain.warmest
    cache = l1.cache
    sink = l1.sink
    state = {"at_shrink": None}
    observed = []

    orig_shrink = cache.shrink_one

    def recording_shrink():
        state["at_shrink"] = cache.reclaimable_frames()
        return orig_shrink()

    cache.shrink_one = recording_shrink

    orig_put = sink.put

    def recording_put(page_id, payload):
        observed.append(state["at_shrink"])
        return orig_put(page_id, payload)

    sink.put = recording_put
    return observed


def run_touches(machine, segment, pages):
    for number in pages:
        machine.vm.touch(PageId(segment.segment_id, number), write=True)


@settings(max_examples=20, deadline=None)
@given(
    pages=st.lists(
        st.integers(min_value=0, max_value=NPAGES - 1),
        min_size=30,
        max_size=250,
    )
)
def test_demotion_only_without_reclaimable_warm_space(pages):
    machine, segment = build_machine()
    observed = instrument(machine)
    run_touches(machine, segment, pages)
    assert all(value == 0 for value in observed), (
        f"pages demoted to the colder tier while the warm tier had "
        f"reclaimable frames: {[v for v in observed if v != 0]}"
    )


def test_sequential_sweep_demotes_and_respects_invariant():
    """Deterministic companion: a sweep over the whole segment is
    guaranteed to overflow the 6-frame L1 and drive real demotions."""
    machine, segment = build_machine()
    observed = instrument(machine)
    run_touches(machine, segment, list(range(NPAGES)) * 2)
    assert observed, "expected the sweep to force demotions out of L1"
    assert all(value == 0 for value in observed)
    sink = machine.chain.warmest.sink
    assert sink.demoted_pages + sink.spilled_pages == len(observed)
