"""Section 6 extension benchmarks and model-versus-simulator validation.

* The analytic Figure 1(b) model against the *simulated* system across
  the (compression ratio, compression speed) plane — the closed form and
  the full simulator must agree on where compression wins.
* The compressed file buffer cache ("keep part or all of the file buffer
  cache in compressed format in order to improve the cache hit rate").
* Application-specific compression ("redesign specific applications,
  such as databases, to keep some of their data structures in compressed
  format"): the varint-delta posting codec against LZRW1 on an
  index-heavy address space.
"""

import random

import pytest
from conftest import run_once

from repro.compression import CompressionSampler, create
from repro.mem.frames import FramePool
from repro.mem.page import mbytes
from repro.model.analytic import in_memory_speedup
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.sim.ledger import Ledger
from repro.sim.machine import Machine, MachineConfig
from repro.storage.blockfs import BlockFileSystem
from repro.storage.buffercache import BufferCache
from repro.storage.compressed_buffercache import CompressedBufferCache
from repro.storage.disk import DiskModel
from repro.workloads import GoldWorkload, Thrasher
from repro.workloads.contentgen import dp_band_values


class TestModelVersusSimulator:
    """Figure 1(b)'s closed form against the real system."""

    @pytest.mark.parametrize(
        "unique_bytes,expect_win",
        [
            (512, True),    # ~0.22 ratio: compressed set fits, big win
            (1600, True),   # ~0.55: still wins while mostly fitting
            (4096, False),  # incompressible: no win possible
        ],
    )
    def test_win_regions_agree(self, benchmark, unique_bytes, expect_win):
        memory = mbytes(0.5)

        def simulate():
            times = {}
            for compression_cache in (False, True):
                workload = Thrasher(
                    int(memory * 2), cycles=3, write=True,
                    unique_bytes=unique_bytes,
                )
                machine = Machine(
                    MachineConfig(memory_bytes=memory,
                                  compression_cache=compression_cache),
                    workload.build(),
                )
                result = SimulationEngine(machine).run(
                    workload.references()
                )
                times[compression_cache] = result.elapsed_seconds
            return times[False] / times[True]

        simulated = run_once(benchmark, simulate)
        ratio = unique_bytes / 4096
        predicted = in_memory_speedup(
            max(0.05, min(1.0, ratio + 0.03)), speed=4.0,
            memory_pages=128, touched_pages=256,
        )
        print(f"\n  unique={unique_bytes}: simulated={simulated:.2f}x "
              f"model={predicted:.2f}x")
        if expect_win:
            assert simulated > 1.3 and predicted > 1.3
        else:
            assert simulated < 1.3

    def test_speedup_monotone_in_compressibility(self, benchmark):
        memory = mbytes(0.5)

        def sweep():
            speedups = []
            for unique_bytes in (512, 1024, 2048, 3400):
                times = {}
                for compression_cache in (False, True):
                    workload = Thrasher(
                        int(memory * 2), cycles=3, write=True,
                        unique_bytes=unique_bytes,
                    )
                    machine = Machine(
                        MachineConfig(memory_bytes=memory,
                                      compression_cache=compression_cache),
                        workload.build(),
                    )
                    times[compression_cache] = SimulationEngine(
                        machine
                    ).run(workload.references()).elapsed_seconds
                speedups.append(times[False] / times[True])
            return speedups

        speedups = run_once(benchmark, sweep)
        print("\n  speedups by ratio:", [f"{s:.1f}" for s in speedups])
        assert speedups == sorted(speedups, reverse=True)


class TestCompressedBufferCache:
    def test_hit_rate_improvement(self, benchmark):
        def measure(compressed):
            fs = BlockFileSystem(DiskModel.rz57())
            handle = fs.open("db")
            for block in range(64):
                fs.write(handle, block * 4096, dp_band_values(block))
            frames = FramePool(8)
            if compressed:
                cache = CompressedBufferCache(
                    fs, frames,
                    CompressionSampler(create("lzrw1")),
                    Ledger(), CostModel(),
                )
                access = lambda b, t: cache.access(handle, b, t)
                rate = lambda: cache.counters.hit_rate
            else:
                cache = BufferCache(fs, frames)
                access = lambda b, t: cache.access(handle, b, t)
                rate = lambda: cache.counters.hit_rate
            rng = random.Random(7)
            for step in range(1200):
                block = (rng.randrange(8) if rng.random() < 0.3
                         else rng.randrange(22))
                access(block, float(step))
            return rate()

        compressed_rate = run_once(benchmark, lambda: measure(True))
        plain_rate = measure(False)
        print(f"\n  hit rate: compressed={compressed_rate:.2f} "
              f"plain={plain_rate:.2f}")
        assert compressed_rate > plain_rate


class TestApplicationSpecificCompression:
    def test_delta_codec_on_index_workload(self, benchmark):
        """A gold-like index under the posting codec versus LZRW1."""
        def run(compressor):
            workload = GoldWorkload(
                "warm", mbytes(2.4), operations=600,
                hot_fraction=0.4, hot_probability=0.8,
            )
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(1.1),
                              compressor=compressor),
                workload.build(),
            )
            engine = SimulationEngine(machine)
            engine.run(workload.setup_references())
            machine.reset_measurement()
            return engine.run(workload.references())

        lzrw1 = run_once(benchmark, lambda: run("lzrw1"))
        delta = run("varint-delta")
        print(f"\n  lzrw1: {lzrw1.elapsed_seconds:.1f}s "
              f"ratio={lzrw1.compression_ratio_percent:.0f}% "
              f"uncmp={lzrw1.uncompressible_percent:.0f}%")
        print(f"  delta: {delta.elapsed_seconds:.1f}s "
              f"ratio={delta.compression_ratio_percent:.0f}% "
              f"uncmp={delta.uncompressible_percent:.0f}%")
        # gold's mixed pages include non-posting data, so the specialised
        # codec keeps fewer pages — but those it keeps, it packs harder.
        assert delta.compression_ratio_percent < 100.0

    def test_delta_codec_dominates_on_pure_postings(self, benchmark):
        import struct

        def posting_pages():
            rng = random.Random(3)
            pages = []
            for _ in range(20):
                value = rng.randrange(1 << 16)
                words = []
                for _ in range(1024):
                    value += rng.randrange(1, 50)
                    words.append(value)
                pages.append(struct.pack("<1024I", *words))
            return pages

        pages = posting_pages()
        delta = create("varint-delta")
        lzrw1 = create("lzrw1")

        def measure():
            delta_bytes = sum(
                delta.compress(page).compressed_size for page in pages
            )
            lz_bytes = sum(
                lzrw1.compress(page).compressed_size for page in pages
            )
            return delta_bytes, lz_bytes

        delta_bytes, lz_bytes = run_once(benchmark, measure)
        print(f"\n  postings: delta={delta_bytes}B lzrw1={lz_bytes}B")
        assert delta_bytes < lz_bytes / 2
