"""Benchmark entry point: cold simulator runs, trace replay, a KV mix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mp-cold --seed 1 --seconds 40 --trace 0

Every measured run is a fresh interpreter (``child.py``), the cost a
``repro run`` user pays.  With ``--trace 0`` the runs repeat until
``--seconds`` is spent and the last stdout line carries the end-to-end
metrics; with ``--trace 1`` two untraced runs and one traced run give
the per-layer metrics.  Outputs are checked in both modes (see
``README.md``); a check that fails counts the run's operations as
failed.  The program is imported from ``src`` in the working directory;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mp-cold", "mp-replay", "kv-zipf")
#: Fewest untraced runs a plain invocation makes, whatever ``--seconds``.
MIN_RUNS = 3
#: Untraced runs a traced invocation makes for the overhead baseline.
TRACE_BASELINE_RUNS = 2
#: A run still starting after this many seconds would risk the 180 s cap.
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 150.0

#: Kernels with a per-kernel row: the paper's LZRW1, the adaptive
#: selector and its default candidates.
KERNELS = ("lzrw1", "adaptive", "rle", "bdi", "varint-delta", "wk",
           "fpc", "cpack", "lzss")
LAYERS = ("compression", "vm", "ccache", "storage", "sim", "workloads",
          "service")


def run_child(workload: str, seed: int, traced: bool) -> Dict:
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=inputs.ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} run exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = time.perf_counter() - started
    return out


def end_to_end(runs: List[Dict]) -> Dict[str, float]:
    """Each metric's median over the runs."""
    def median(key: str) -> float:
        return statistics.median(run[key] for run in runs)

    return {
        "setup_s": median("setup_s"),
        "ops_per_s": statistics.median(
            run["ops"] / run["wall_s"] for run in runs
        ),
        "get_p50_ms": median("get_p50_ms"),
        "get_p99_ms": median("get_p99_ms"),
        "put_p50_ms": median("put_p50_ms"),
        "put_p99_ms": median("put_p99_ms"),
        "peak_rss_mb": median("rss_mb"),
    }


def per_layer(traced: Dict, baseline: List[Dict]) -> Dict[str, float]:
    spans = traced["spans"]
    counts = traced["counts"]
    edges = {(name, parent): n for name, parent, n in traced["edges"]}
    layers = traced["layers"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0, 0])[0]

    def total_s(name: str) -> float:
        return spans.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0, 0])[2] / 1e9

    def under(parent: str) -> int:
        """Kernel compressions (or shared lookups) called from ``parent``."""
        return sum(
            n for (name, p), n in edges.items()
            if p == parent and (name == "compression.shared"
                                or name.endswith(".compress"))
        )

    out: Dict[str, float] = {}
    for kernel in KERNELS:
        prefix = f"compression.{kernel}"
        out[f"{prefix}.compress_calls"] = calls(f"{prefix}.compress")
        out[f"{prefix}.compress_s"] = self_s(f"{prefix}.compress")
        out[f"{prefix}.decompress_calls"] = calls(f"{prefix}.decompress")
        out[f"{prefix}.decompress_s"] = self_s(f"{prefix}.decompress")
        out[f"{prefix}.bytes_in"] = counts.get(f"{prefix}.bytes_in", 0)
        out[f"{prefix}.bytes_out"] = counts.get(f"{prefix}.bytes_out", 0)
    requests = calls("compression.sampler")
    hits = counts.get("compression.sampler.hits", 0)
    out["compression.sampler.requests"] = requests
    out["compression.sampler.memo_hit_rate"] = (
        hits / requests if requests else 0.0
    )
    # Sampler misses and keyed shared_compress calls both consult the
    # process-wide result cache; a lookup that calls no kernel is a hit.
    lookups = (requests - hits) + calls("compression.shared")
    kernel_runs = under("compression.sampler") + under("compression.shared")
    out["compression.shared_hit_rate"] = (
        1.0 - kernel_runs / lookups if lookups else 0.0
    )
    puts = traced.get("puts", 0)
    out["compression.adaptive.trials_per_put"] = (
        under("compression.adaptive.compress") / puts if puts else 0.0
    )
    out["vm.touch_calls"] = calls("vm.touch")
    out["vm.touch.self_s"] = self_s("vm.touch")
    for name in ("insert", "fetch"):
        out[f"ccache.{name}_calls"] = calls(f"ccache.{name}")
        out[f"ccache.{name}.self_s"] = self_s(f"ccache.{name}")
    out["ccache.clean_pages.self_s"] = self_s("ccache.clean_pages")
    out["ccache.shrink_one.self_s"] = self_s("ccache.shrink_one")
    out["ccache.allocator.obtain_frame_calls"] = calls(
        "ccache.allocator.obtain_frame")
    out["ccache.allocator.obtain_frame.self_s"] = self_s(
        "ccache.allocator.obtain_frame")
    for name in ("put", "get"):
        out[f"storage.fragstore.{name}_calls"] = calls(
            f"storage.fragstore.{name}")
        out[f"storage.fragstore.{name}.self_s"] = self_s(
            f"storage.fragstore.{name}")
    out["storage.fragstore.gc_s"] = total_s("storage.fragstore.gc")
    out["sim.engine.self_s"] = self_s("sim.engine")
    for name in ("sim.machine_build_s", "sim.simulated_s", "sim.faults",
                 "workloads.build_s"):
        out[name] = layers.get(name, 0.0)
    out["workloads.btrace.read_s"] = self_s("workloads.btrace.read")
    out["workloads.traffic.generate_s"] = layers.get(
        "workloads.traffic.generate_s", 0.0)
    out["service.store.ops_per_s"] = layers.get(
        "service.store.ops_per_s", 0.0)
    out["service.store.get.self_s"] = self_s("service.store.get")
    out["service.store.put.self_s"] = self_s("service.store.put")
    for name in ("service.shard.busy_s", "service.frontend_transport_s",
                 "service.mean_batch_ops",
                 "service.backpressure_retries_per_op"):
        out[name] = layers.get(name, 0.0)
    # Share of the traced section's wall time spent in each layer's own
    # code (self time), the rest being the benchmark's loop.
    wall_ns = traced["traced_wall_s"] * 1e9
    for layer in LAYERS:
        own = sum(row[2] for name, row in spans.items()
                  if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.share"] = own / wall_ns
    # kv-zipf replays its data plane twice in the traced run; the
    # simulator workloads compare against the untraced runs' median.
    untraced = traced.get("untraced_wall_s") or statistics.median(
        run["wall_s"] for run in baseline
    )
    out["trace.overhead_pct"] = (
        100.0 * (traced["traced_wall_s"] / untraced - 1.0)
    )
    return out


def load_json(path: Path) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def with_units(metrics: Dict[str, float], section: str) -> Dict[str, Dict]:
    """Attach the units BENCHMARK.json declares; the names must match
    its ``section`` list exactly."""
    declared = {
        row["name"]: row["unit"]
        for row in load_json(inputs.ROOT / "BENCHMARK.json")[section]
    }
    if set(declared) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
    return {
        name: {"value": metrics[name], "unit": declared[name]}
        for name in declared
    }


def check(workload: str, seed: int, runs: List[Dict]) -> int:
    """Operations failed: the run's own count, plus every operation of a
    run whose output digest is wrong (against the recorded digest for
    the recorded seed, else against the first run of this seed)."""
    recorded = load_json(HERE / "digests.json")
    expected = (recorded["digests"][workload]
                if seed == recorded["seed"] else runs[0]["digest"])
    failed = 0
    for run in runs:
        failed += run["failed"]
        if run["digest"] != expected:
            print(f"{workload} seed {seed}: digest {run['digest']} != "
                  f"expected {expected}", file=sys.stderr)
            failed += run["attempted"]
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        inputs.import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    inputs.OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "mp-replay":
        inputs.write_replay_trace(args.seed)
    runs: List[Dict] = []
    if args.trace:
        for _ in range(TRACE_BASELINE_RUNS):
            runs.append(run_child(args.workload, args.seed, False))
        traced = run_child(args.workload, args.seed, True)
        metrics = per_layer(traced, runs)
        runs.append(traced)
        section = "per_layer"
    else:
        deadline = start + args.seconds
        while True:
            runs.append(run_child(args.workload, args.seed, False))
            now = time.perf_counter()
            typical = statistics.median(run["process_s"] for run in runs)
            if len(runs) >= MIN_RUNS and (
                now + typical > deadline or now - start > HARD_STOP_S
            ):
                break
        metrics = end_to_end(runs)
        section = "end_to_end"
    inputs.replay_trace_path(args.seed).unlink(missing_ok=True)
    failed = check(args.workload, args.seed, runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": with_units(metrics, section),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
