"""LZRW1 — Ross Williams's extremely fast Ziv-Lempel compressor (DCC 1991).

This is the algorithm the paper runs in the Sprite kernel: a single-pass
LZ77 variant that hashes three-byte sequences into a direct-mapped table of
positions and emits either literal bytes or (offset, length) copy items,
sixteen items per 16-bit control group.  Copy offsets span 1..4095 and copy
lengths 3..18, exactly as in Williams's reference implementation, so the
compression ratios this port produces on a given page are representative of
what the 1993 kernel saw.

The paper notes (Section 4.4) that the kernel sets aside a static buffer
for "the LZRW1 algorithm's hash table", 16 KBytes in the measured system —
that is 4096 four-byte entries, i.e. a 12-bit hash.  ``table_bits`` is
configurable here so the memory-versus-ratio trade-off the paper mentions
("relatively large ... improves compression at the cost of memory") can be
explored; see ``benchmarks/test_policy_ablation.py``.

Stored format produced by :meth:`Lzrw1.compress`:

* a sequence of groups, each a 16-bit little-endian control word followed
  by up to 16 items;
* control bit ``i`` (LSB first) describes item ``i``: 0 = literal (one raw
  byte), 1 = copy (two bytes: ``((len-3) << 4) | (offset >> 8)`` then
  ``offset & 0xFF``);
* when compression would expand the data the result is stored raw and
  flagged via :attr:`CompressionResult.stored_raw` (Williams's
  ``FLAG_COPY`` word serves the same purpose in the C code).

The encoder here is a CPython-optimized rewrite of the seed
implementation (kept verbatim in :mod:`repro.compression._seed_reference`)
and produces **bit-identical output**, enforced by
``tests/compression/test_golden_kernels.py``.  The speed tricks:

* three-byte hashes for the whole page are precomputed in one vectorized
  numpy pass (``_make_hashes``) instead of being evaluated per position in
  the interpreter;
* the hash table persists across calls and is never re-initialized: a
  parallel ``stamp`` list holds the epoch in which each slot was last
  written, so a slot is valid exactly when its stamp equals the current
  call's epoch.  Both lists store plain loop-local ints, which makes every
  slot update a pointer store with no integer allocation;
* when the stamp is already current it is *not* rewritten — the common
  candidate-hit path does one store, not two;
* match extension compares the two candidate windows with a single
  C-level slice comparison; only on a mismatch does it locate the first
  differing byte via an XOR/lowest-set-bit trick (little-endian
  ``int.from_bytes``, so the lowest set byte is the mismatch position);
* literal runs are emitted with one slice append per run (tracked via
  ``lit_start``) rather than one ``append`` per byte, and the group flush
  is detected by position (``flush_i``) so the literal path carries no
  per-item counter.
"""

from __future__ import annotations

from typing import List, Optional

from .base import CompressionResult, Compressor, CorruptDataError, register

try:  # numpy is the optional [fast] extra; the scalar fallback is complete
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

_MAX_OFFSET = 4095
_MIN_MATCH = 3
_MAX_MATCH = 18
_GROUP = 16
#: Williams's multiplicative-hash constant.  The hash of the three bytes
#: ``b0 b1 b2`` is ``((40543 * (((b0 << 8) ^ (b1 << 4) ^ b2) & 0xFFFF)) >> 4)``
#: masked to the table size — defined once here; :func:`_make_hashes` and the
#: scalar fallback below are the only implementations.
_HASH_MULTIPLIER = 40543

#: Below this input size the numpy round trip costs more than it saves.
_VECTOR_THRESHOLD = 256

#: Single-bit masks for the 16 control-word positions (index 16 - cap).
_BITS = [1 << k for k in range(_GROUP + 1)]


def _make_hashes(
    data: bytes, n: int, mask: int, use_numpy: bool = True
) -> List[int]:
    """Hash of every 3-byte window of ``data``, as a plain list.

    Index ``i`` holds the hash of ``data[i:i+3]``; the list has ``n - 2``
    entries.  Only called with ``n >= _MIN_MATCH``.  Both branches are
    pure functions of (data, mask) — ``use_numpy`` only selects speed.
    """
    if use_numpy and _np is not None and n >= _VECTOR_THRESHOLD:
        d = _np.frombuffer(data, _np.uint8)
        k = d[:-2].astype(_np.uint32)
        k <<= 4
        k ^= d[1:-1]
        k <<= 4
        k ^= d[2:]
        k &= 0xFFFF
        k *= _HASH_MULTIPLIER
        k >>= 4
        k &= mask
        return k.tolist()
    mult = _HASH_MULTIPLIER
    return [
        ((mult * (((data[j] << 8) ^ (data[j + 1] << 4) ^ data[j + 2])
                  & 0xFFFF)) >> 4) & mask
        for j in range(n - 2)
    ]


@register("lzrw1")
class Lzrw1(Compressor):
    """Single-pass LZ77 compressor matching Williams's LZRW1.

    Args:
        table_bits: log2 of the hash-table entry count.  12 matches the
            16-KByte table of the measured system; smaller tables trade
            compression ratio for memory.
        fast: tri-state flag for the numpy hash precompute.  ``None``
            (auto, the historical behaviour) and ``True`` use numpy when
            importable; ``False`` forces the scalar hash loop.  Output
            is identical either way.
    """

    def __init__(self, table_bits: int = 12, fast: Optional[bool] = None):
        if not 4 <= table_bits <= 20:
            raise ValueError(f"table_bits out of range: {table_bits}")
        self.table_bits = table_bits
        self.fast = fast
        self._use_numpy_hashes = fast is not False
        self._table_size = 1 << table_bits
        # Reused across compress() calls; see the module docstring.  A slot
        # holds a position, valid only when its stamp equals the current
        # epoch, so neither list is ever re-initialized.
        self._table = [0] * self._table_size
        self._stamp = [0] * self._table_size
        self._epoch = 0

    def result_cache_key(self):
        # table_bits changes which candidates the hash table remembers and
        # therefore the emitted items; it is the only output-affecting knob.
        return ("lzrw1", self.table_bits)

    @property
    def hash_table_bytes(self) -> int:
        """Memory footprint of the hash table (4-byte entries, as in Sprite)."""
        return 4 * self._table_size

    def _hash(self, b0: int, b1: int, b2: int) -> int:
        """The 3-byte hash (reference form; the hot loop precomputes it)."""
        key = ((b0 << 8) ^ (b1 << 4) ^ b2) & 0xFFFF
        return ((_HASH_MULTIPLIER * key) >> 4) & (self._table_size - 1)

    def compress(self, data: bytes) -> CompressionResult:
        n = len(data)
        if n < _MIN_MATCH + 1:
            return CompressionResult(bytes(data), n, stored_raw=True)

        self._epoch = epoch = self._epoch + 1
        table = self._table
        stamp = self._stamp
        hashes = _make_hashes(
            data, n, self._table_size - 1, self._use_numpy_hashes
        )
        from_bytes = int.from_bytes
        bits = _BITS

        out = bytearray()
        items = bytearray()
        items_append = items.append
        out_append = out.append
        control = 0
        i = 0
        lit_start = 0          # first literal byte not yet copied to items
        flush_i = _GROUP       # input position at which the group fills
        limit = n - _MIN_MATCH

        while i <= limit:
            h = hashes[i]
            if stamp[h] == epoch:
                cand = table[h]
                table[h] = i
                if data[cand] == data[i] and i - cand <= _MAX_OFFSET:
                    max_len = n - i
                    if max_len > _MAX_MATCH:
                        max_len = _MAX_MATCH
                    a = data[cand:cand + max_len]
                    b = data[i:i + max_len]
                    if a == b:
                        length = max_len
                    else:
                        x = from_bytes(a, "little") ^ from_bytes(b, "little")
                        length = ((x & -x).bit_length() - 1) >> 3
                    if length >= _MIN_MATCH:
                        offset = i - cand
                        if lit_start != i:
                            items += data[lit_start:i]
                        items_append(
                            ((length - _MIN_MATCH) << 4) | (offset >> 8)
                        )
                        items_append(offset & 0xFF)
                        cap = flush_i - i       # group slots left before this
                        control |= bits[_GROUP - cap]
                        cap -= 1
                        i += length
                        lit_start = i
                        if cap == 0:
                            out_append(control & 0xFF)
                            out_append(control >> 8)
                            out += items
                            del items[:]
                            control = 0
                            if len(out) >= n:   # cannot beat raw any more
                                return CompressionResult(
                                    bytes(data), n, stored_raw=True
                                )
                            flush_i = i + _GROUP
                        else:
                            flush_i = i + cap
                        continue
            else:
                stamp[h] = epoch
                table[h] = i
            i += 1
            if i == flush_i:
                if control:
                    items += data[lit_start:i]
                    out_append(control & 0xFF)
                    out_append(control >> 8)
                    out += items
                    del items[:]
                    control = 0
                else:           # all-literal group: two zero control bytes
                    out += b"\x00\x00"
                    out += data[lit_start:i]
                lit_start = i
                if len(out) >= n:
                    return CompressionResult(bytes(data), n, stored_raw=True)
                flush_i = i + _GROUP

        while i < n:            # tail: last 1-3 bytes are always literals
            i += 1
            if i == flush_i:
                if control:
                    items += data[lit_start:i]
                    out_append(control & 0xFF)
                    out_append(control >> 8)
                    out += items
                    del items[:]
                    control = 0
                else:
                    out += b"\x00\x00"
                    out += data[lit_start:i]
                lit_start = i
                if len(out) >= n:
                    return CompressionResult(bytes(data), n, stored_raw=True)
                flush_i = i + _GROUP

        if flush_i - n < _GROUP:    # partial final group pending
            items += data[lit_start:n]
            out_append(control & 0xFF)
            out_append(control >> 8)
            out += items

        if len(out) >= n:
            return CompressionResult(bytes(data), n, stored_raw=True)
        return CompressionResult(bytes(out), n)

    def decompress(self, result: CompressionResult) -> bytes:
        if result.stored_raw:
            return result.payload
        payload = result.payload
        want = result.original_size
        out = bytearray()
        i = 0
        end = len(payload)
        olen = 0
        while i < end and olen < want:
            if i + 2 > end:
                raise CorruptDataError("lzrw1: truncated control word")
            control = payload[i] | (payload[i + 1] << 8)
            i += 2
            if control == 0:
                # All sixteen items are literals: one slice copy.
                take = _GROUP
                if take > end - i:
                    take = end - i
                if take > want - olen:
                    take = want - olen
                out += payload[i:i + take]
                i += take
                olen += take
                continue
            for bit in range(_GROUP):
                if i >= end or olen >= want:
                    break
                if (control >> bit) & 1:
                    if i + 2 > end:
                        raise CorruptDataError("lzrw1: truncated copy item")
                    b0 = payload[i]
                    b1 = payload[i + 1]
                    i += 2
                    length = (b0 >> 4) + _MIN_MATCH
                    offset = ((b0 & 0x0F) << 8) | b1
                    if offset == 0 or offset > olen:
                        raise CorruptDataError(
                            f"lzrw1: bad copy offset {offset} at output "
                            f"position {olen}"
                        )
                    start = olen - offset
                    if offset >= length:
                        out += out[start:start + length]
                    elif offset == 1:
                        out += out[start:] * length
                    else:
                        for k in range(length):  # self-overlapping copy
                            out.append(out[start + k])
                    olen += length
                else:
                    out.append(payload[i])
                    i += 1
                    olen += 1
        if olen != want:
            raise CorruptDataError(
                f"lzrw1: decoded {olen} bytes, expected {want}"
            )
        return bytes(out)
