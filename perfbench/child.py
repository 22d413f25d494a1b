"""One measured run of one workload, in a fresh interpreter.

Usage (from the repository root; ``run.py`` is the normal entry point)::

    python3 perfbench/child.py --workload mp-cold --seed 1 [--traced]

Prints one JSON object on its last stdout line: set-up and run times,
latency percentiles, peak RSS, the output digest and, with ``--traced``,
the span summary of the traced section.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

inputs.import_program()

from repro.service import CacheService, ServiceError, ledger_digest  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ST_DELETED,
    ST_HIT,
    ST_NOT_FOUND,
    ST_STORED,
)
from repro.sim.engine import SimulationEngine  # noqa: E402
from repro.sim.machine import Machine, MachineConfig  # noqa: E402

_clock = time.perf_counter
_clock_ns = time.perf_counter_ns


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _percentiles(gets, puts) -> dict:
    """Nearest-rank p50 and p99 of GET and PUT latencies, in ms."""
    out = {}
    for op, samples in (("get", gets), ("put", puts)):
        ordered = sorted(samples)
        for q in (50, 99):
            rank = max(1, -(-q * len(ordered) // 100))
            out[f"{op}_p{q}_ms"] = ordered[rank - 1] / 1e6 if ordered else 0.0
    return out


def _run_digest(result) -> str:
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _time_references(vm, reads, writes) -> None:
    """Record host ns per reference, split into reads and writes.

    Two clock reads per reference against ~50-200 us of work each; the
    throughput figure is taken with this wrapper in place.
    """
    touch = vm.touch

    def timed_touch(page_id, write=False):
        t0 = _clock_ns()
        touch(page_id, write)
        (writes if write else reads).append(_clock_ns() - t0)

    vm.touch = timed_touch


def run_multiprogram(workload_name: str, seed: int, tracer) -> dict:
    """mp-cold (reference list) or mp-replay (RBT1 file via run_trace)."""
    from repro.workloads.btrace import BinaryTraceReader

    replay = workload_name == "mp-replay"
    scale = inputs.REPLAY_SCALE if replay else inputs.MP_SCALE
    t0 = _clock()
    workload, memory = inputs.multiprogram(seed, scale)
    space = workload.build()
    refs = None if replay else list(workload.references())
    t1 = _clock()
    machine = Machine(MachineConfig(memory_bytes=memory), space)
    t2 = _clock()
    engine = SimulationEngine(machine)
    reads, writes = [], []
    if tracer is None:
        _time_references(machine.vm, reads, writes)
    reader = None
    if replay:
        reader = BinaryTraceReader(str(inputs.replay_trace_path(seed)))
    setup_s = _clock() - STARTED
    try:
        start = _clock()
        if replay:
            result = engine.run_trace(reader)
            count = len(reader)
        else:
            result = engine.run(iter(refs))
            count = len(refs)
        wall = _clock() - start
    finally:
        if reader is not None:
            reader.close()
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops": count,
        "attempted": count,
        **_percentiles(reads, writes),
        "digest": _run_digest(result),
        "failed": 0,
        "layers": {
            "workloads.build_s": t1 - t0,
            "sim.machine_build_s": t2 - t1,
            "sim.simulated_s": result.elapsed_seconds,
            "sim.faults": result.metrics_snapshot["faults"]["total"],
        },
    }


class _Model:
    """The last acknowledged PUT per (tenant, key): what a GET hit must
    return.  Each key belongs to one client, so the model is exact."""

    def __init__(self) -> None:
        self.pages = {}
        self.wrong = 0

    def ack(self, op: str, tenant: str, key: int, status: int,
            payload, page) -> None:
        ident = (tenant, key)
        if op == "put":
            if status == ST_STORED:
                self.pages[ident] = payload
        elif op == "delete":
            if status in (ST_DELETED, ST_NOT_FOUND):
                self.pages.pop(ident, None)
        elif status == ST_HIT and self.pages.get(ident) != bytes(page):
            self.wrong += 1


_WIRE = {"get": OP_GET, "put": OP_PUT, "delete": OP_DELETE}


async def _client(service, queue, model, latencies, counters) -> None:
    from repro.service import BackpressureError

    for op, payload in queue:
        wire_payload = payload if op.op == "put" else None
        t0 = _clock_ns()
        while True:
            try:
                status, page = await service.submit(
                    _WIRE[op.op], op.tenant, op.key, wire_payload,
                    wait=False,
                )
                break
            except BackpressureError:
                counters["retries"] += 1
                await asyncio.sleep(0.0005)
            except ServiceError:
                counters["errors"] += 1
                status = None
                break
        elapsed = _clock_ns() - t0
        latencies[op.op].append(elapsed)
        counters["latency_ns"] += elapsed
        if status is not None:
            model.ack(op.op, op.tenant, op.key, status, payload, page)


def _queues(config, ops, payloads):
    """Per-client queues; each vslot (so each key) has one client."""
    queues = [[] for _ in range(inputs.KV_CLIENTS)]
    for op, payload in zip(ops, payloads):
        queues[config.vslot_of(op.key) % inputs.KV_CLIENTS].append(
            (op, payload)
        )
    return queues


async def _shard_totals(service):
    stats = await service.stats()
    busy_s = sum(shard["busy_seconds"] for shard in stats["shards"])
    return stats, busy_s, sum(service.batches_sent)


async def _serve(config, warmup, measured):
    """Start the service, replay ``warmup`` unmeasured, then time
    ``measured``; the same model checks both."""
    service = CacheService(config)
    await service.start()
    setup_s = _clock() - STARTED
    model = _Model()
    latencies = {"get": [], "put": [], "delete": []}
    counters = {"retries": 0, "errors": 0, "latency_ns": 0}
    try:
        await asyncio.gather(*(
            _client(service, queue, model,
                    {"get": [], "put": [], "delete": []},
                    {"retries": 0, "errors": 0, "latency_ns": 0})
            for queue in warmup
        ))
        _, busy0, batches0 = await _shard_totals(service)
        start = _clock()
        await asyncio.gather(*(
            _client(service, queue, model, latencies, counters)
            for queue in measured
        ))
        wall = _clock() - start
        stats, busy1, batches1 = await _shard_totals(service)
    finally:
        await service.stop()
    return (setup_s, wall, model, latencies, counters, stats,
            busy1 - busy0, batches1 - batches0)


def _replay_in_process(config, ops, payloads, tracer=None):
    """The op stream straight into per-vslot stores, no IPC.

    The first ``KV_WARMUP_OPS`` run untimed (and, with a tracer, before
    its wrappers go in).  Returns (measured wall, ledger digest, wrong
    GET hits).
    """
    from repro.service.ledger import merge_ledgers
    from repro.service.store import VslotStore

    stores = [VslotStore(config, vslot) for vslot in range(config.vslots)]
    tenant_index = {t.name: i for i, t in enumerate(config.tenants)}
    expected = {}
    wrong = 0
    start = None
    for index, (op, payload) in enumerate(zip(ops, payloads)):
        if index == inputs.KV_WARMUP_OPS:
            if tracer is not None:
                spans.install(tracer)
            start = _clock()
        if tracer is not None:
            tracer.request = index
        store = stores[config.vslot_of(op.key)]
        tenant = tenant_index[op.tenant]
        ident = (op.tenant, op.key)
        if op.op == "get":
            page = store.get(tenant, op.key)
            if page is not None and expected.get(ident) != page:
                wrong += 1
        elif op.op == "put":
            if store.put(tenant, op.key, payload):
                expected[ident] = payload
        else:
            store.delete(tenant, op.key)
            expected.pop(ident, None)
    wall = _clock() - start
    ledgers = merge_ledgers(store.ledgers_by_name() for store in stores)
    return wall, ledger_digest(ledgers), wrong


def run_kv(seed: int, tracer) -> dict:
    from repro.workloads.traffic import generate_ops

    # The client and its forked shard share one CPU.  Spread over two
    # vCPUs, every batch hand-off wakes a halted vCPU, and that wake-up
    # latency, which swings with host steal time, set the figures
    # instead of the program (see README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    config = inputs.service_config()
    traffic = inputs.traffic_spec(seed)
    t0 = _clock()
    ops = list(generate_ops(traffic))
    payloads = [op.payload(traffic) for op in ops]
    generate_s = _clock() - t0
    warm = inputs.KV_WARMUP_OPS
    (setup_s, wall, model, latencies, counters, stats, busy_s,
     batches) = asyncio.run(_serve(
        config,
        _queues(config, ops[:warm], payloads[:warm]),
        _queues(config, ops[warm:], payloads[warm:]),
    ))
    digest = ledger_digest(stats["ledgers"])
    measured = len(ops) - warm
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops": measured,
        "attempted": len(ops),
        **_percentiles(latencies["get"], latencies["put"]),
        "digest": digest,
        "failed": model.wrong + counters["errors"],
        "layers": {
            "workloads.traffic.generate_s": generate_s,
            "service.shard.busy_s": busy_s,
            "service.frontend_transport_s":
                counters["latency_ns"] / 1e9 - busy_s,
            "service.mean_batch_ops": measured / max(1, batches),
            "service.backpressure_retries_per_op":
                counters["retries"] / measured,
        },
        "puts": len(latencies["put"]),
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is None:
        return out
    # The data plane alone, in this process: once untraced for its
    # throughput, once traced for the split, each after emptying the
    # process-wide result cache so both start equally cold.
    from repro.compression.sampler import clear_shared_results

    clear_shared_results()
    plain_wall, plain_digest, plain_wrong = _replay_in_process(
        config, ops, payloads
    )
    clear_shared_results()
    traced_wall, traced_digest, traced_wrong = _replay_in_process(
        config, ops, payloads, tracer
    )
    tracing_ok = plain_digest == traced_digest == digest
    out["failed"] += plain_wrong + traced_wrong + (0 if tracing_ok else len(ops))
    out["layers"]["service.store.ops_per_s"] = measured / plain_wall
    out["traced_wall_s"] = traced_wall
    out["untraced_wall_s"] = plain_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mp-cold", "mp-replay", "kv-zipf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        if args.workload != "kv-zipf":
            spans.install(tracer)
    if args.workload == "kv-zipf":
        out = run_kv(args.seed, tracer)
    else:
        out = run_multiprogram(args.workload, args.seed, tracer)
        out["rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            out["traced_wall_s"] = out["wall_s"]
    if tracer is not None:
        by_name, edges = tracer.summary()
        out["spans"] = by_name
        out["edges"] = [[n, p, c] for (n, p), c in edges.items()]
        out["counts"] = dict(tracer.counts)
        inputs.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(inputs.OUT_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
