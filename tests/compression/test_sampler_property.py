"""Memoized and exact sampler modes must agree for every algorithm.

The simulator's results are only trustworthy if the memoized sampler is a
pure cache: for any sequence of page contents, the sizes it reports must
equal what the exact mode (which runs the real compressor every time)
reports.  This holds by construction only if compressors are
deterministic functions of their input — which is itself worth pinning,
since the optimized kernels carry persistent scratch state (hash tables,
epoch stamps) across calls.
"""

from hypothesis import given, settings, strategies as st

from repro.compression import available, create
from repro.compression.sampler import CompressionSampler, content_address

_ALGORITHMS = sorted(available())


def _pages():
    """Short page-like buffers, with duplicates likely between draws."""
    repetitive = st.tuples(
        st.binary(min_size=1, max_size=32),
        st.integers(min_value=1, max_value=64),
    ).map(lambda t: (t[0] * t[1])[:1024])
    return st.lists(
        st.one_of(st.binary(min_size=0, max_size=512), repetitive),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=40, deadline=None)
@given(pages=_pages(), data=st.data())
def test_memo_agrees_with_exact(pages, data):
    """Sizes and payload round trips match between the two modes."""
    algorithm = data.draw(st.sampled_from(_ALGORITHMS))
    memo = CompressionSampler(create(algorithm))
    exact = CompressionSampler(create(algorithm), exact=True)
    # Feed duplicates so the memo path actually serves hits.
    stream = pages + pages
    for page in stream:
        assert memo.compressed_size(page) == exact.compressed_size(page)
        got = memo.compress(page)
        want = exact.compress(page)
        assert got.compressed_size == want.compressed_size
        assert got.stored_raw == want.stored_raw
        assert got.payload == want.payload
    assert memo.hits > 0  # the duplicated stream must hit the memo


@settings(max_examples=20, deadline=None)
@given(pages=_pages(), data=st.data())
def test_memo_eviction_stays_correct(pages, data):
    """A tiny memo that constantly evicts still reports exact sizes."""
    algorithm = data.draw(st.sampled_from(_ALGORITHMS))
    memo = CompressionSampler(create(algorithm), max_entries=2)
    exact = CompressionSampler(create(algorithm), exact=True)
    for page in pages + pages:
        assert memo.compressed_size(page) == exact.compressed_size(page)


def test_fingerprint_is_content_based():
    """Equal bytes fingerprint equally; different bytes differ."""
    a = content_address(b"x" * 4096)
    b = content_address(bytes(b"x" * 4096))
    c = content_address(b"y" * 4096)
    assert a == b
    assert a != c
    assert isinstance(a, bytes)  # stable across runs, unlike hash()
