"""Compressor framework for the compression cache.

The paper uses Williams's LZRW1 for on-line compression, but explicitly
calls for a design that "should allow different compression algorithms to
be used for different types of data" (Section 3).  This module defines the
interface every algorithm implements, a result record carrying the
bookkeeping the simulator needs, and a registry so algorithms can be chosen
by name from configuration.

All compressors are *lossless*: ``decompress(compress(data)) == data`` is a
hard invariant, enforced by the test suite (including property-based tests)
and optionally at runtime via :func:`Compressor.compress_verified`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple


class CompressionError(Exception):
    """Base class for compression failures."""


class CorruptDataError(CompressionError):
    """Raised when decompression input is malformed or truncated."""


class UnknownCompressorError(CompressionError, KeyError):
    """Raised when a compressor name is not present in the registry."""


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one buffer.

    Attributes:
        payload: The compressed bytes (or the original bytes when the
            algorithm stored the data raw).
        original_size: Length of the input buffer in bytes.
        stored_raw: True when the algorithm fell back to storing the input
            uncompressed because compression would have expanded it.
    """

    payload: bytes
    original_size: int
    stored_raw: bool = False

    @property
    def compressed_size(self) -> int:
        """Size in bytes of the stored representation."""
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Fraction of bytes remaining after compression (lower is better).

        Matches the paper's convention in Figure 1 and Table 1: a page that
        compresses 4:1 has ratio 0.25; an incompressible page has ratio 1.0
        (or slightly above, counting framing overhead).
        """
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    def savings(self) -> int:
        """Bytes saved relative to storing the input raw (may be negative)."""
        return self.original_size - self.compressed_size


class Compressor(ABC):
    """A lossless, self-contained page compressor.

    Subclasses must be stateless across calls (any per-call scratch space,
    such as LZRW1's hash table, is re-derived per invocation or reset), so a
    single instance may be shared by the whole simulator.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> CompressionResult:
        """Compress ``data`` and return the stored representation."""

    @abstractmethod
    def decompress(self, result: CompressionResult) -> bytes:
        """Invert :meth:`compress`, returning the original bytes.

        Raises:
            CorruptDataError: if ``result`` does not decode cleanly.
        """

    def result_cache_key(self):
        """Identity under which compress() results may be shared process-wide.

        :func:`~repro.compression.sampler.shared_compress` keeps a
        process-wide content-addressed cache of compression results so
        that independent machines (sweep points, benchmark reps) do not
        re-run the kernel on page content another run already compressed.
        Two compressor instances returning the same key MUST produce
        bit-identical ``compress()`` output for every input, so the key
        must include every output-affecting parameter.  Returning ``None``
        (the default) opts the algorithm out of sharing — the safe choice
        for anything stateful, randomized, or not known to need it.
        """
        return None

    def decompress_many(
        self, results: Iterable[CompressionResult]
    ) -> List[bytes]:
        """Decompress a batch of results in one call.

        One python call boundary for a whole demotion group, with the
        method lookup amortized across the batch.  Pure content work —
        safe to run speculatively.
        """
        decompress = self.decompress
        return [decompress(result) for result in results]

    def compress_verified(self, data: bytes) -> CompressionResult:
        """Compress and immediately verify the round trip.

        Useful in debug configurations; the simulator's ``paranoid`` mode
        routes every compression through this method.
        """
        result = self.compress(data)
        restored = self.decompress(result)
        if restored != data:
            raise CorruptDataError(
                f"{self.name}: round trip mismatch "
                f"({len(data)} bytes in, {len(restored)} bytes out)"
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, Callable[[], Compressor]] = {}


def register(name: str) -> Callable[[type], type]:
    """Class decorator registering a compressor factory under ``name``."""

    def deco(cls: type) -> type:
        if not issubclass(cls, Compressor):
            raise TypeError(f"{cls!r} is not a Compressor subclass")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def create(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name.

    Raises:
        UnknownCompressorError: if ``name`` was never registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; known: {known}"
        ) from None
    return factory(**kwargs)


def available() -> Tuple[str, ...]:
    """Names of all registered compressors, sorted."""
    return tuple(sorted(_REGISTRY))


def iter_compressors() -> Iterator[Compressor]:
    """Yield a fresh default-configured instance of every registered algorithm."""
    for name in available():
        yield create(name)
