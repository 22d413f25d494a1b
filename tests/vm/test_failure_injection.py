"""Failure injection: the paranoid mode must catch a lying substrate.

The simulator carries real data end-to-end precisely so that corruption
anywhere in the pipeline is detectable.  These tests break components on
purpose and check the paranoid verification path fires.
"""

import pytest

from repro.compression import CompressionResult, Compressor
from repro.compression.sampler import CompressionSampler
from repro.mem.page import PageId, mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.workloads import Thrasher


class BitFlippingCompressor(Compressor):
    """Compresses correctly but decompresses with one flipped bit."""

    name = "bitflip"

    def __init__(self):
        self._inner = None

    @property
    def inner(self):
        if self._inner is None:
            from repro.compression import create

            self._inner = create("lzrw1")
        return self._inner

    def compress(self, data: bytes) -> CompressionResult:
        return self.inner.compress(data)

    def decompress(self, result: CompressionResult) -> bytes:
        data = bytearray(self.inner.decompress(result))
        if data:
            data[0] ^= 0x01
        return bytes(data)


class TestParanoidCatchesCorruption:
    def test_corrupting_compressor_detected(self, monkeypatch):
        workload = Thrasher(mbytes(1), cycles=2, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5), paranoid=True),
            workload.build(),
        )
        # Swap the decompression path for the lying one.
        machine.vm.sampler = CompressionSampler(
            BitFlippingCompressor(), exact=True
        )
        machine.sampler = machine.vm.sampler
        with pytest.raises(AssertionError, match="mismatch"):
            SimulationEngine(machine).run(workload.references())

    def test_corrupted_swap_detected(self):
        workload = Thrasher(mbytes(1), cycles=3, write=False)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5),
                          compression_cache=False, paranoid=True),
            workload.build(),
        )
        engine = SimulationEngine(machine)
        # Run one cycle so pages land on swap, then corrupt a block.
        engine.run(workload.references(), max_references=300)
        swap_file = machine.swap._file(0)
        victim = next(iter(swap_file.blocks))
        swap_file.blocks[victim][0] ^= 0xFF
        pte = machine.address_space.entry(PageId(0, victim))
        if (
            machine.swap.contains(pte.page_id)
            and pte.saved_version == pte.content.version
            and not machine.vm.is_resident(pte.page_id)
        ):
            with pytest.raises(AssertionError, match="stale"):
                machine.vm.touch(pte.page_id)

    def test_clean_system_passes_paranoid(self):
        """Control: nothing raises when nothing is broken."""
        workload = Thrasher(mbytes(1), cycles=2, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5), paranoid=True),
            workload.build(),
        )
        SimulationEngine(machine).run(workload.references())


class TestFrameLeakDetection:
    def test_no_frames_leak_across_a_long_run(self):
        from repro.mem.frames import FrameOwner

        workload = Thrasher(mbytes(1.5), cycles=4, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.5)), workload.build()
        )
        SimulationEngine(machine).run(workload.references(), drain=True)
        frames = machine.frames
        assert frames.owned_by(FrameOwner.VM) == machine.vm.resident_pages
        assert frames.owned_by(FrameOwner.COMPRESSION) == (
            machine.ccache.nframes
        )
        total = sum(
            frames.owned_by(owner) for owner in FrameOwner
        ) + frames.free_frames
        assert total == frames.total_frames
