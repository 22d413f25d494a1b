"""Real byte contents for simulated pages.

The paper's results hinge on what pages actually contain: ``compare``'s
dynamic-programming array compresses ~3:1, ``sort random``'s shuffled text
barely compresses at all, and ``gold``'s index is in between.  To reproduce
that, every simulated page carries genuine bytes, and the compression
subsystem measures them with the real algorithm.

Pages are written far more often than they are compressed.  Stores go
directly into a persistent per-page ``bytearray`` (created lazily on the
first write, so untouched pages share the interned zero page), and
:meth:`PageContent.materialize` just snapshots that buffer into an
immutable ``bytes`` — cached until the next store, so repeated reads
between writes return the same object without copying.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from ..compression.sampler import content_address
from .page import DEFAULT_PAGE_SIZE, WORD_SIZE

_pack_into = struct.pack_into
_unpack_from = struct.unpack_from

_ZERO_PAGES: Dict[int, bytes] = {}


def zero_page(page_size: int = DEFAULT_PAGE_SIZE) -> bytes:
    """A shared all-zero page of the given size."""
    page = _ZERO_PAGES.get(page_size)
    if page is None:
        page = bytes(page_size)
        _ZERO_PAGES[page_size] = page
    return page


class PageContent:
    """Mutable content of one virtual page.

    Attributes:
        version: bumped on every mutation; the compression sampler uses
            (identity, version) pairs to notice stale measurements, and
            the VM uses version deltas to detect "dirty since last copy".
    """

    __slots__ = (
        "_buf",
        "_materialized",
        "_fp",
        "_fp_version",
        "version",
        "page_size",
        "stable_key",
    )

    def __init__(self, data: Optional[bytes] = None,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if data is not None and len(data) != page_size:
            raise ValueError(
                f"page content must be exactly {page_size} bytes, "
                f"got {len(data)}"
            )
        self.page_size = page_size
        # _buf is the mutable store target, created on first write; until
        # then _materialized alone holds the (possibly shared) bytes.
        self._buf: Optional[bytearray] = None
        self._materialized: Optional[bytes] = (
            data if data is not None else zero_page(page_size)
        )
        self.version = 0
        # Fingerprint memo: digest of the bytes at _fp_version.  Word
        # stores only dirty it (by bumping version); the digest is folded
        # lazily on the next fingerprint() call.
        self._fp: Optional[bytes] = None
        self._fp_version = -1
        #: Optional compressibility memo key.  A workload may set this to
        #: declare that small in-place updates do not materially change
        #: the page's compressed size, letting the sampler reuse one
        #: measurement across versions ("modeled" mode).  Validated
        #: against exact mode by the test suite; ignored when the sampler
        #: runs exact.
        self.stable_key: Optional[str] = None

    def materialize(self) -> bytes:
        """The page's current bytes, folding any pending word stores."""
        data = self._materialized
        if data is None:
            data = self._materialized = bytes(self._buf)
        return data

    def fingerprint(self) -> bytes:
        """Content address of the current bytes, cached per version.

        The value is :func:`~repro.compression.sampler.content_address`
        of :meth:`materialize`, which is what the compression sampler
        computes for its memo key — so handing this to the sampler changes
        nothing about hit/miss behaviour, it only skips re-hashing pages
        that have not been written since the last measurement.
        """
        if self._fp_version != self.version:
            self._fp = content_address(self.materialize())
            self._fp_version = self.version
        return self._fp  # type: ignore[return-value]

    def replace(self, data: bytes) -> None:
        """Overwrite the whole page (e.g. a workload regenerating it)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page content must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self._buf = None
        self._materialized = data
        self.version += 1

    def store_word(self, offset: int, value: int) -> None:
        """Store a 32-bit little-endian word at ``offset``."""
        if offset < 0 or offset + WORD_SIZE > self.page_size:
            raise ValueError(f"word offset {offset} outside page")
        if offset % WORD_SIZE:
            raise ValueError(f"unaligned word offset {offset}")
        buf = self._buf
        if buf is None:
            buf = self._buf = bytearray(self._materialized)
        _pack_into("<I", buf, offset, value & 0xFFFFFFFF)
        self._materialized = None
        self.version += 1

    def load_word(self, offset: int) -> int:
        """Read the 32-bit little-endian word at ``offset``."""
        if offset < 0 or offset + WORD_SIZE > self.page_size:
            raise ValueError(f"word offset {offset} outside page")
        if offset % WORD_SIZE:
            raise ValueError(f"unaligned word offset {offset}")
        buf = self._buf
        if buf is not None:
            return _unpack_from("<I", buf, offset)[0]
        return _unpack_from("<I", self._materialized, offset)[0]

    def __len__(self) -> int:
        return self.page_size
