"""Seeded inputs for the three benchmark workloads.

Everything the program under test sees is built here from ``--seed``
through the package's public constructors, so one seed always gives the
same references, trace file and op stream.

* ``mp-cold`` / ``mp-replay``: the multiprogram mix (compare +
  sort-partial + synthetic, quantum 64) with memory at 1/4.33 of the
  26 MB x ``SCALE`` footprint — the geometry of the CLI's
  ``multiprogram`` workload.
* ``kv-zipf``: the serve-bench tenant mix (alpha 3000 keys weight 3,
  beta 1000 keys weight 1 under a 1 MB quota), Zipf 1.1, 70% GET,
  25% PUT, 5% DELETE, the adaptive compressor and two 4 MB tiers;
  ``KV_WARMUP_OPS`` unmeasured ops, then ``KV_OPS`` timed ones.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch directory in the checkout for the trace file and span dumps.
OUT_DIR = ROOT / ".perfbench"


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises ``ImportError`` when the checkout holds no program, so a
    benchmark run without one fails instead of measuring nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Scale of the multiprogram mix (26 MB x SCALE of address space).
MP_SCALE = 0.25
#: Times the recorded multiprogram block repeats in the replay trace.
REPLAY_REPEAT = 32
#: Scale of the replayed mix: small enough that 32 repeats fit a run,
#: and that the first pass's kernel work stays under a tenth of it.
REPLAY_SCALE = 0.05
#: Operations replayed unmeasured before kv-zipf's clock starts: 4 MB
#: tiers take longer to fill, but by then the adaptive selector's memos
#: hold the Zipf head, and PUT latency stops depending on how many
#: first sightings the seed happens to put in the timed window.
KV_WARMUP_OPS = 4000
#: Operations in one measured kv-zipf closed-loop run.
KV_OPS = 6000
#: Closed-loop client coroutines for kv-zipf.
KV_CLIENTS = 2


def multiprogram(seed: int, scale: float):
    """The multiprogram mix and the machine memory it runs in."""
    from repro.mem.page import mbytes
    from repro.workloads import (
        CompareWorkload,
        MultiProgramWorkload,
        SortWorkload,
        SyntheticWorkload,
    )

    workload = MultiProgramWorkload(
        [
            CompareWorkload(mbytes(12 * scale), round_trips=2, seed=seed),
            SortWorkload(mbytes(8 * scale), partial=True, seed=seed),
            SyntheticWorkload(
                mbytes(6 * scale),
                references=max(500, int(30000 * scale)),
                seed=seed,
            ),
        ],
        quantum=64,
    )
    return workload, mbytes(6 * scale)


def replay_trace_path(seed: int) -> Path:
    return OUT_DIR / f"mp-replay-{seed}.rbt"


def write_replay_trace(seed: int) -> Path:
    """Record the multiprogram block once and write it ``REPLAY_REPEAT``
    times as an RBT1 file; returns its path."""
    from repro.workloads import btrace

    workload, _ = multiprogram(seed, REPLAY_SCALE)
    block = bytearray()
    count = 0
    for ref in workload.references():
        block += btrace.pack_ref(ref)
        count += 1
    OUT_DIR.mkdir(exist_ok=True)
    path = replay_trace_path(seed)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with btrace.BinaryTraceWriter(str(tmp)) as writer:
        raw = bytes(block)
        for _ in range(REPLAY_REPEAT):
            writer.append_raw(raw, count)
    os.replace(tmp, path)
    return path


def service_config():
    from repro.service import ServiceConfig, TenantSpec

    return ServiceConfig(
        shards=1,
        tenants=(TenantSpec("alpha", None), TenantSpec("beta", 1 << 20)),
        tier_bytes=(4 << 20, 4 << 20),
        compressor="adaptive",
        page_size=4096,
        batch_ops=32,
    )


def traffic_spec(seed: int):
    from repro.workloads.traffic import TenantTraffic, TrafficSpec

    return TrafficSpec(
        ops=KV_WARMUP_OPS + KV_OPS,
        seed=seed,
        tenants=(
            TenantTraffic("alpha", weight=3.0, keys=3000),
            TenantTraffic("beta", weight=1.0, keys=1000),
        ),
        zipf_s=1.1,
        read_fraction=0.7,
        # Of the 30% non-reads, one in six is a DELETE: 25% PUT, 5% DELETE.
        delete_fraction=1.0 / 6.0,
        page_size=4096,
    )
