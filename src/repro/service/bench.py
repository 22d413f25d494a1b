"""`repro serve-bench`: deterministic traffic replay + BENCH_service.json.

The bench replays one seeded Zipf/tenant-mix op stream (see
:mod:`repro.workloads.traffic`) against a :class:`CacheService` at each
requested shard count.  Two figures come out of every run:

* a **determinism digest** — the sha256 of the merged per-tenant
  ledgers.  The same spec must produce the same digest at *every* shard
  count (the virtual-slot invariance contract); the bench asserts it and
  CI's service-smoke job pins it against
  ``benchmarks/perf_baseline.json``.
* **throughput and latency** — ops/s overall and per shard, plus
  p50/p95/p99/p999 from the HDR-style
  :class:`~repro.service.latency.LatencyRecorder` each client feeds.

Each shard count is one :class:`~repro.sweep.SweepPoint` executed
through :func:`repro.sweep.run_sweep`, so ``--resume`` gives serve-bench
the same JSONL checkpointing the experiment sweeps have: an interrupted
multi-point bench resumes without re-measuring completed shard counts.

Latency is measured client-side around each awaited submission, so it
includes queueing, batching, IPC, and the shard's compression work —
the number a caller of the service would see.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..workloads.traffic import (
    DELETE,
    GET,
    PUT,
    TenantTraffic,
    TrafficOp,
    TrafficSpec,
    diurnal_multiplier,
    generate_ops,
)
from .config import ServiceConfig, TenantSpec
from .errors import BackpressureError
from .latency import LatencyRecorder, merge_all
from .ledger import ledger_digest
from .protocol import OP_DELETE, OP_GET, OP_PUT, STATUS_NAMES
from .server import CacheService

#: First backoff after a retryable rejection, and the cap the
#: exponential doubling saturates at.  The cap keeps a persistently
#: saturated service from stretching a client's retry gaps past the
#: point where the bench's pacing model means anything.
RETRY_INITIAL_S = 0.0005
RETRY_MAX_S = 0.032

#: Import path of :func:`run_service_point` for SweepPoint specs.
SERVICE_RUNNER = "repro.service.bench:run_service_point"

_OPCODES = {GET: OP_GET, PUT: OP_PUT, DELETE: OP_DELETE}


def _wire(
    op: TrafficOp, traffic: TrafficSpec
) -> Tuple[int, int, int, Optional[bytes]]:
    """``(opcode, tenant, key, payload)`` for ``op``, built up front.

    Content generation is the *client's* cost, not the service's: the
    bench builds every wire before the clock starts, so neither latency
    nor ``wall_seconds`` includes it.
    """
    return (_OPCODES[op.op], op.tenant, op.key, op.payload(traffic))


def _config_from_spec(spec: Mapping[str, Any]) -> ServiceConfig:
    return ServiceConfig(
        shards=int(spec["shards"]),
        vslots=int(spec.get("vslots", ServiceConfig.vslots)),
        tenants=tuple(
            TenantSpec(t["name"], t.get("quota_bytes"))
            for t in spec["tenants"]
        ),
        tier_bytes=tuple(spec["tier_bytes"]),
        compressor=spec.get("compressor", "lzrw1"),
        page_size=int(spec["page_size"]),
        batch_ops=int(spec.get("batch_ops", ServiceConfig.batch_ops)),
        max_pending=int(
            spec.get("max_pending", ServiceConfig.max_pending)
        ),
    )


def _traffic_from_spec(spec: Mapping[str, Any]) -> TrafficSpec:
    return TrafficSpec(
        ops=int(spec["ops"]),
        seed=int(spec["seed"]),
        tenants=tuple(
            TenantTraffic(
                t["name"],
                weight=float(t.get("weight", 1.0)),
                keys=int(t.get("keys", 4096)),
            )
            for t in spec["tenants"]
        ),
        zipf_s=float(spec.get("zipf_s", 1.1)),
        read_fraction=float(spec.get("read_fraction", 0.7)),
        delete_fraction=float(spec.get("delete_fraction", 0.05)),
        page_size=int(spec["page_size"]),
        diurnal_amplitude=float(spec.get("diurnal_amplitude", 0.0)),
        diurnal_periods=float(spec.get("diurnal_periods", 1.0)),
    )


async def _client(
    service: CacheService,
    wires: Sequence[Tuple[int, int, int, Optional[bytes]]],
    recorder: LatencyRecorder,
    statuses: Counter,
    offsets: Optional[Sequence[float]] = None,
    start: float = 0.0,
    retries: Optional[Counter] = None,
) -> None:
    """Replay one vslot-partitioned queue sequentially.

    Awaiting each submission before issuing the next preserves per-slot
    op order (the determinism contract); concurrency comes from running
    many clients, not from pipelining within one.

    Submissions go in with ``wait=False``, so admission control answers
    a full queue or a tenant at its in-flight cap with a *retryable*
    :class:`BackpressureError` instead of parking the client; the
    client then backs off (exponential, doubling from
    :data:`RETRY_INITIAL_S`, capped at :data:`RETRY_MAX_S`) and resends
    the same op.  Per-slot order is preserved — the client never moves
    on until the current op is accepted.  Retry counts land in
    ``retries`` (keyed by tenant index).  Non-retryable errors
    propagate: a dead shard is a bench failure, not a retry loop.
    """
    clock = time.perf_counter
    clock_ns = time.perf_counter_ns
    for index, (opcode, tenant, key, payload) in enumerate(wires):
        if offsets is not None:
            delay = start + offsets[index] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
        # Latency includes the retry loop: time-to-acceptance is what a
        # backpressured caller experiences.
        t0 = clock_ns()
        backoff = RETRY_INITIAL_S
        while True:
            try:
                status, _ = await service.submit(
                    opcode, tenant, key, payload, wait=False
                )
                break
            except BackpressureError as exc:
                if not exc.retryable:
                    raise
                if retries is not None:
                    retries[tenant] += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, RETRY_MAX_S)
        recorder.record(max(1, (clock_ns() - t0) // 1000))
        statuses[STATUS_NAMES[status]] += 1


async def replay_traffic(
    config: ServiceConfig,
    traffic: TrafficSpec,
    clients: int = 8,
    pace_ops_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the full op stream against a fresh service; return metrics.

    ``pace_ops_s`` switches from flat-out replay to offered-load pacing:
    each op is scheduled at the cumulative time a ``pace_ops_s`` mean
    rate shaped by the spec's diurnal sinusoid implies.  Throughput
    numbers then measure the *service under that load*, not its ceiling.
    """
    ops = list(generate_ops(traffic))
    offsets_all: Optional[List[float]] = None
    if pace_ops_s:
        offsets_all = []
        elapsed = 0.0
        for index in range(len(ops)):
            rate = pace_ops_s * diurnal_multiplier(
                index / len(ops),
                traffic.diurnal_amplitude,
                traffic.diurnal_periods,
            )
            elapsed += 1.0 / rate
            offsets_all.append(elapsed)
    # Partition by index so the pacing offsets ride along with their
    # ops; the routing is exactly partition_by_vslot's.
    index_queues: List[List[int]] = [[] for _ in range(clients)]
    for index, op in enumerate(ops):
        index_queues[(op.key % config.vslots) % clients].append(index)
    queues = [
        [_wire(ops[i], traffic) for i in queue] for queue in index_queues
    ]
    offset_queues: List[Optional[List[float]]] = [
        None if offsets_all is None
        else [offsets_all[i] for i in queue]
        for queue in index_queues
    ]
    service = CacheService(config)
    await service.start()
    try:
        recorders = [LatencyRecorder() for _ in queues]
        statuses: Counter = Counter()
        retries: Counter = Counter()
        start = time.perf_counter()
        await asyncio.gather(*(
            _client(service, queue, recorders[i], statuses,
                    offsets=offset_queues[i], start=start,
                    retries=retries)
            for i, queue in enumerate(queues)
        ))
        wall = time.perf_counter() - start
        stats = await service.stats()
        batches_sent = list(service.batches_sent)
    finally:
        await service.stop()
    latency = merge_all(recorders)
    total_batches = sum(batches_sent) or 1
    per_shard = []
    for shard in stats["shards"]:
        per_shard.append({
            "shard": shard["shard"],
            "ops": shard["ops"],
            "batches": shard["batches"],
            "busy_seconds": shard["busy_seconds"],
            "ops_per_second": round(shard["ops"] / wall, 1),
            "resident_bytes": shard["resident_bytes"],
            "resident_entries": shard["resident_entries"],
        })
    return {
        "shards": config.shards,
        "clients": clients,
        "ops": len(ops),
        "wall_seconds": round(wall, 4),
        "ops_per_second": round(len(ops) / wall, 1),
        "paced_ops_s": pace_ops_s,
        "mean_batch_ops": round(len(ops) / total_batches, 2),
        "latency_us": latency.snapshot(),
        "statuses": dict(sorted(statuses.items())),
        "backpressure_retries": {
            "total": sum(retries.values()),
            "by_tenant": {
                str(tenant): count
                for tenant, count in sorted(retries.items())
            },
        },
        "per_shard": per_shard,
        "ledgers": stats["ledgers"],
        "ledger_digest": ledger_digest(stats["ledgers"]),
    }


def run_service_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep-runner entry point: one shard count, one full replay.

    A pure function of the spec on the determinism axis (ledgers and
    digest); wall-clock figures vary run to run, which is why resumed
    checkpoints keep their original timings.
    """
    config = _config_from_spec(spec)
    traffic = _traffic_from_spec(spec)
    return asyncio.run(replay_traffic(
        config, traffic,
        clients=int(spec.get("clients", 8)),
        pace_ops_s=spec.get("pace_ops_s"),
    ))


def service_spec(
    shards: int,
    ops: int = 20000,
    seed: int = 1234,
    vslots: int = ServiceConfig.vslots,
    compressor: str = "adaptive",
    tier_bytes: Sequence[int] = (4 << 20, 4 << 20),
    page_size: int = 4096,
    tenants: Optional[Sequence[Mapping[str, Any]]] = None,
    batch_ops: int = 32,
    clients: int = 8,
    zipf_s: float = 1.1,
    **extra: Any,
) -> Dict[str, Any]:
    """The default bench spec: two tenants, one quota-bound, Zipf 1.1."""
    if tenants is None:
        tenants = [
            {"name": "alpha", "weight": 3.0, "keys": 3000,
             "quota_bytes": None},
            {"name": "beta", "weight": 1.0, "keys": 1000,
             "quota_bytes": 1 << 20},
        ]
    spec: Dict[str, Any] = {
        "shards": shards,
        "vslots": vslots,
        "tenants": [dict(t) for t in tenants],
        "tier_bytes": list(tier_bytes),
        "compressor": compressor,
        "page_size": page_size,
        "batch_ops": batch_ops,
        "clients": clients,
        "ops": ops,
        "seed": seed,
        "zipf_s": zipf_s,
        "read_fraction": 0.7,
        "delete_fraction": 0.05,
    }
    spec.update(extra)
    return spec


def bench_service(
    shard_counts: Sequence[int] = (1, 2, 4),
    ops: int = 20000,
    seed: int = 1234,
    checkpoint: Optional[str] = None,
    progress=None,
    **spec_overrides: Any,
) -> Dict[str, Any]:
    """Measure every shard count; assert invariance; assemble the report.

    Returns the dict that becomes ``BENCH_service.json``.  Raises
    :class:`AssertionError` if any shard count's ledger digest differs —
    a determinism regression is a wrong answer, not a slow one.
    """
    from ..sweep import SweepPoint, run_sweep

    points = [
        SweepPoint(
            runner=SERVICE_RUNNER,
            spec=service_spec(shards, ops=ops, seed=seed,
                              **spec_overrides),
            key=f"service/shards={shards:02d}",
        )
        for shards in shard_counts
    ]
    sweep = run_sweep(points, jobs=1, checkpoint=checkpoint,
                      progress=progress)
    if sweep.failures:
        raise RuntimeError(
            f"serve-bench failed: {dict(sweep.failures)}"
        )
    runs = sweep.in_order(points)
    digests = {run["shards"]: run["ledger_digest"] for run in runs}
    if len(set(digests.values())) != 1:
        raise AssertionError(
            f"shard-count invariance violated: per-shard-count ledger "
            f"digests differ: {digests}"
        )
    single = next((r for r in runs if r["shards"] == 1), runs[0])
    best = max(runs, key=lambda r: r["ops_per_second"])
    return {
        "cpu_count": os.cpu_count(),
        "spec": dict(points[0].spec),
        "shard_counts": list(shard_counts),
        "runs": {str(run["shards"]): run for run in runs},
        "determinism": {
            "digests": {str(k): v for k, v in digests.items()},
            "all_equal": True,
            "ledger_digest": single["ledger_digest"],
        },
        "scaling": {
            "single_shard_ops_s": single["ops_per_second"],
            "best_ops_s": best["ops_per_second"],
            "best_shards": best["shards"],
            "speedup": round(
                best["ops_per_second"] / single["ops_per_second"], 3
            ),
        },
    }
