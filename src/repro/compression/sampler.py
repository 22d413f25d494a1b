"""Memoized compression measurements for the simulator.

The simulator charges compression *time* from a bandwidth model but needs
real compressed *sizes* to reproduce the paper's per-application ratios.
Running a pure-Python LZRW1 on every one of the millions of page
compressions a sweep performs would be wasteful when page contents repeat,
so :class:`CompressionSampler` memoizes ``content key -> CompressionResult``
in one bounded FIFO memo (safe because entries are pure functions of the
content).  :meth:`~CompressionSampler.compress` and
:meth:`~CompressionSampler.compressed_size` read the same memo.

Three layers sit around that memo, each kept for a reason:

* ``exact`` mode runs the real kernel on every request, with no memo —
  the validation tests and the exact golden digests compare the memo
  against it.
* The process-wide, content-addressed cache behind
  :func:`shared_compress` (:data:`_SHARED_RESULTS`) lets tier-1, sweeps
  and the perf harness — which rerun the same content in one process —
  skip kernels another run already paid for.  A fresh sampler still
  counts its own first sight of a page as a miss, so cache warmth never
  changes a run's results, only how fast they arrive.
* The adaptive selector keeps its own exact-content memo
  (:mod:`repro.compression.adaptive`): its results depend on the
  instance's selection history, so they cannot be shared process-wide,
  and its counters feed the adaptive digests.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

from .base import CompressionResult, Compressor

_blake2b = hashlib.blake2b


def content_address(data: bytes) -> bytes:
    """BLAKE2b-128 digest of ``data``: the key every memo layer uses.

    Stable across interpreter runs (builtin ``hash`` is randomized by
    ``PYTHONHASHSEED``) and wide enough (128 bits) that collisions are
    out of reach even at a memo's full capacity, where a 32-bit checksum
    such as ``zlib.crc32`` would already be odds-on to alias two pages.
    """
    return _blake2b(data, digest_size=16).digest()


#: Process-wide pure-function cache: ``(compressor key, content address)
#: -> CompressionResult``.  Compression is deterministic, so a result
#: computed for one caller is valid for every other caller driving an
#: identically configured compressor.  Only *content-addressed* entries
#: are shared — never workload ``stable_key`` strings, which are not pure
#: functions of the bytes.
_SHARED_RESULTS: "OrderedDict[tuple, CompressionResult]" = OrderedDict()
_SHARED_MAX_ENTRIES = 16384


def clear_shared_results() -> None:
    """Drop the process-wide result cache (test isolation hook)."""
    _SHARED_RESULTS.clear()


def shared_results_size() -> int:
    """Entries currently in the process-wide result cache."""
    return len(_SHARED_RESULTS)


def shared_compress(
    compressor: Compressor,
    data: bytes,
    fingerprint: Optional[bytes] = None,
) -> CompressionResult:
    """Compress through the process-wide content-addressed cache.

    The one kernel entry point for sampler misses, the adaptive
    selector's trial compressions and the service store.
    ``fingerprint`` is :func:`content_address` of ``data`` when the
    caller already has it.  Kernels that opt out of sharing
    (``result_cache_key() is None``) are simply invoked.
    """
    ckey = compressor.result_cache_key()
    if ckey is None:
        return compressor.compress(data)
    fp = fingerprint if fingerprint is not None else content_address(data)
    skey = (ckey, fp)
    shared = _SHARED_RESULTS.get(skey)
    if shared is not None and shared.original_size == len(data):
        return shared
    result = compressor.compress(data)
    _SHARED_RESULTS[skey] = result
    while len(_SHARED_RESULTS) > _SHARED_MAX_ENTRIES:
        _SHARED_RESULTS.popitem(last=False)
    return result


class CompressionSampler:
    """Caches compression outcomes per unique page content.

    Args:
        compressor: the algorithm to measure.
        exact: disable memoization entirely.
        max_entries: memo capacity; oldest entries are dropped first.
    """

    def __init__(
        self,
        compressor: Compressor,
        exact: bool = False,
        max_entries: int = 65536,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.compressor = compressor
        self.exact = exact
        self.max_entries = max_entries
        self._memo: "OrderedDict[object, CompressionResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def compress(self, data: bytes,
                 stable_key: Optional[str] = None,
                 fingerprint: Optional[bytes] = None) -> CompressionResult:
        """Compression result for ``data``, from the memo when possible.

        The memo key is ``stable_key`` when given — a workload vouching
        that in-place updates don't change the page's compressibility
        class, so one measurement stands in for all its versions — and
        otherwise the content address, which a caller that already has
        it (``PageContent.fingerprint()``) passes as ``fingerprint``.
        Exact mode runs the kernel and counts nothing.
        """
        if self.exact:
            return self.compressor.compress(data)
        if stable_key is None and fingerprint is None:
            fingerprint = content_address(data)
        key = fingerprint if stable_key is None else stable_key
        memo = self._memo
        cached = memo.get(key)
        if cached is not None and cached.original_size == len(data):
            self.hits += 1
            return cached
        self.misses += 1
        # A stable key never addresses the shared cache: shared_compress
        # keys by the actual bytes (hashing them itself if need be).
        result = shared_compress(self.compressor, data, fingerprint)
        memo[key] = result
        while len(memo) > self.max_entries:
            memo.popitem(last=False)
        return result

    def compressed_size(self, data: bytes,
                        stable_key: Optional[str] = None,
                        fingerprint: Optional[bytes] = None) -> int:
        """Size in bytes ``data`` occupies after compression.

        :meth:`compress` through the same memo; in exact mode each call
        counts as a miss.
        """
        if self.exact:
            self.misses += 1
        return self.compress(data, stable_key, fingerprint).compressed_size

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached measurements."""
        self._memo.clear()
        self.hits = 0
        self.misses = 0
