"""In-memory spans around the program's public methods (traced run only).

:func:`install` replaces each layer-boundary method on its class with a
wrapper that records one span per call: name, start, end, the span that
was open when it was called (its parent) and the request id (the
reference index on the simulator, the op index on the store).  Nothing
in ``src`` changes, and only the traced run (a process of its own)
installs the wrappers.

A span's *self time* is its duration minus the time its child spans
cover.  Calls are strictly nested on one thread, so a parent-index stack
is enough and the children of a span never overlap.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """Spans kept in parallel lists until the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.stack: List[int] = [-1]
        #: Request id stamped on every span opened from now on.
        self.request = -1
        #: Counts recorded at the same boundaries (bytes, memo hits).
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.requests.append(self.request)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        self.stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    # -- reading -------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, List[int]], Counter]:
        """``{name: [calls, total_ns, self_ns]}`` and a count of
        ``(name, parent name)`` pairs."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(names)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                covered[parent] += duration
        by_name: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        edges: Counter = Counter()
        for index, name in enumerate(names):
            row = by_name[name]
            row[0] += 1
            row[1] += durations[index]
            row[2] += durations[index] - covered[index]
            parent = parents[index]
            edges[name, names[parent] if parent >= 0 else None] += 1
        return dict(by_name), edges

    def dump(self, path) -> None:
        """Write every span as a tab-separated line (times in ns from
        the first span)."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for index, name in enumerate(self.names):
                handle.write(
                    f"{index}\t{name}\t{self.starts[index] - origin}\t"
                    f"{self.ends[index] - origin}\t{self.parents[index]}\t"
                    f"{self.requests[index]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.ccache.allocator import TieredAllocator
    from repro.ccache.circular import CompressionCache
    from repro.compression import adaptive, available, create
    from repro.compression.sampler import CompressionSampler
    from repro.service import store
    from repro.service.store import VslotStore
    from repro.sim.engine import SimulationEngine
    from repro.storage.fragstore import FragmentStore
    from repro.vm.system import BaseVM
    from repro.workloads.btrace import BinaryTraceReader

    for name in available():
        _patch_kernel(tracer, type(create(name)), name)
    _patch_sampler(tracer, CompressionSampler)
    _patch_shared(tracer, adaptive)
    _patch_shared(tracer, store)
    _patch_touch(tracer, BaseVM)
    simple = (
        (CompressionCache, "insert", "ccache.insert"),
        (CompressionCache, "fetch", "ccache.fetch"),
        (CompressionCache, "clean_pages", "ccache.clean_pages"),
        (CompressionCache, "shrink_one", "ccache.shrink_one"),
        (TieredAllocator, "obtain_frame", "ccache.allocator.obtain_frame"),
        (FragmentStore, "put", "storage.fragstore.put"),
        (FragmentStore, "get", "storage.fragstore.get"),
        (FragmentStore, "maybe_collect", "storage.fragstore.gc"),
        (SimulationEngine, "run", "sim.engine"),
        (SimulationEngine, "run_trace", "sim.engine"),
        (VslotStore, "get", "service.store.get"),
        (VslotStore, "put", "service.store.put"),
        (VslotStore, "delete", "service.store.delete"),
    )
    for owner, attr, name in simple:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
    _patch_chunks(tracer, BinaryTraceReader)


def _patch_kernel(tracer: Tracer, cls: type, kernel: str) -> None:
    open_, close, counts = tracer.open, tracer.close, tracer.counts
    compress, decompress = cls.compress, cls.decompress
    name = f"compression.{kernel}.compress"
    bytes_in = f"compression.{kernel}.bytes_in"
    bytes_out = f"compression.{kernel}.bytes_out"

    def traced_compress(self, data):
        index = open_(name)
        try:
            result = compress(self, data)
        finally:
            close(index)
        counts[bytes_in] += len(data)
        counts[bytes_out] += result.compressed_size
        return result

    cls.compress = traced_compress
    cls.decompress = tracer.wrap(
        decompress, f"compression.{kernel}.decompress"
    )


def _patch_sampler(tracer: Tracer, cls: type) -> None:
    open_, close, counts = tracer.open, tracer.close, tracer.counts

    def patch(attr: str) -> None:
        method = getattr(cls, attr)

        def traced(self, *args, **kwargs):
            hits = self.hits
            index = open_("compression.sampler")
            try:
                return method(self, *args, **kwargs)
            finally:
                close(index)
                counts["compression.sampler.hits"] += self.hits - hits

        setattr(cls, attr, traced)

    patch("compress")
    patch("compressed_size")


def _patch_shared(tracer: Tracer, module) -> None:
    """Span the process-wide result cache, for kernels that use it."""
    shared = module.shared_compress
    traced = tracer.wrap(shared, "compression.shared")

    def traced_shared(compressor, data, fingerprint=None):
        if compressor.result_cache_key() is None:
            return shared(compressor, data, fingerprint)
        return traced(compressor, data, fingerprint)

    module.shared_compress = traced_shared


def _patch_touch(tracer: Tracer, cls: type) -> None:
    """``vm.touch`` spans also number the references."""
    touch = cls.touch
    open_, close = tracer.open, tracer.close

    def traced_touch(self, page_id, write=False):
        tracer.request += 1
        index = open_("vm.touch")
        try:
            return touch(self, page_id, write)
        finally:
            close(index)

    cls.touch = traced_touch


def _patch_chunks(tracer: Tracer, cls: type) -> None:
    """Time each chunk the trace reader decodes (a generator)."""
    chunks = cls.chunks
    open_, close = tracer.open, tracer.close

    def traced_chunks(self, *args, **kwargs):
        source = chunks(self, *args, **kwargs)
        while True:
            index = open_("workloads.btrace.read")
            try:
                chunk = next(source)
            except StopIteration:
                return
            finally:
                close(index)
            yield chunk

    cls.chunks = traced_chunks
