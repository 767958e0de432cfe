"""Property-based tests (hypothesis): kernel invariants over random series.

The reference suite has no randomized testing (SURVEY §5); these harden the
engine's numerical core against inputs the hand-picked fixtures miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrixprofile_ray.core as core

# magnitudes capped at 1e3: the streaming covariance recurrence (like the
# reference's Cython kernel — its MATLAB goldens are checked at decimal=4)
# loses absolute precision proportionally to the series' dynamic range
series_strategy = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=24,
    max_size=200,
)


@settings(max_examples=25, deadline=None)
@given(data=series_strategy, w=st.integers(4, 10))
def test_mpx_profile_invariants(data, w):
    ts = np.asarray(data, dtype="d")
    if len(ts) < 2 * w:
        return
    mp, pi = core.mpx(ts, w)
    plen = len(ts) - w + 1
    # length invariant (reference core.py:121-138)
    assert len(mp) == plen and len(pi) == plen
    # distances are non-negative and bounded by 2*sqrt(w) (z-norm euclid)
    finite = np.isfinite(mp)
    assert np.all(mp[finite] >= -1e-9)
    assert np.all(mp[finite] <= 2 * np.sqrt(w) + 1e-6)
    # indices in range and outside the trivial-match zone
    minlag = int(np.ceil(w / 4.0))
    valid = pi >= 0
    assert np.all(pi[valid] < plen)
    positions = np.arange(plen)[valid]
    assert np.all(np.abs(pi[valid] - positions) > minlag)


@settings(max_examples=20, deadline=None)
@given(data=series_strategy, w=st.integers(4, 8))
def test_mpx_symmetric_distance(data, w):
    """mp[i] = d(i, pi[i]) must equal the direct z-norm distance."""
    ts = np.asarray(data, dtype="d")
    if len(ts) < 2 * w:
        return
    mp, pi = core.mpx(ts, w)
    for i in (0, len(mp) // 2, len(mp) - 1):
        j = pi[i]
        if j < 0 or not np.isfinite(mp[i]):
            continue
        a, b = ts[i : i + w], ts[j : j + w]
        sa, sb = a.std(), b.std()
        # z-norm distance is undefined/epsilon-dominated on near-constant
        # windows (the kernel treats sig≈0 as constant; reference does too).
        # The guard must use the GLOBAL series magnitude: the diagonal
        # covariance recurrence's absolute error scales with the whole
        # series' dynamic range, not just the window's (advisor round 1).
        gscale = max(1.0, np.abs(ts).max())
        if sa < 1e-7 * gscale or sb < 1e-7 * gscale:
            continue
        az = (a - a.mean()) / sa
        bz = (b - b.mean()) / sb
        d = np.sqrt(max(0.0, ((az - bz) ** 2).sum()))
        assert abs(mp[i] - d) < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.one_of(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            st.just(float("nan")),
        ),
        min_size=8,
        max_size=120,
    ),
    w=st.integers(4, 8),
)
def test_impute_fills_everything_finite_present_unchanged(data, w):
    x = np.asarray(data, dtype="d")
    if np.all(~np.isfinite(x)):
        return
    out = core.impute_missing(x, w)
    finite_in = np.isfinite(x)
    np.testing.assert_array_equal(out[finite_in], x[finite_in])
    # every value reachable by the forward sweep is finite
    assert np.isfinite(out).sum() >= finite_in.sum()


@settings(max_examples=15, deadline=None)
@given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False), min_size=2, max_size=400))
def test_gorilla_roundtrip_random(data):
    values = np.asarray(data, dtype="d")
    out = core.gorilla_decode_floats(core.gorilla_encode_floats(values))
    np.testing.assert_array_equal(out, values)


@settings(max_examples=15, deadline=None)
@given(
    deltas=st.lists(st.integers(0, 10**9), min_size=1, max_size=300),
)
def test_timestamp_roundtrip_random(deltas):
    ts = np.cumsum(np.asarray(deltas, dtype=np.int64))
    out = core.timestamps_decode(core.timestamps_encode(ts))
    np.testing.assert_array_equal(out, ts)


# --- frozen hypothesis falsifying examples (round-1 regressions) ---------

def test_regression_stomp_identical_windows_after_spike():
    """Round-1 bug: correlation numerically >1 gave sqrt(negative)=NaN in
    distance_profile, silently dropping the true nearest neighbor — batch
    STOMP reported 4.276 where two windows were z-norm IDENTICAL (dist 0)."""
    ts = np.array([0.0] * 7 + [19.0] + [0.0] * 7 + [1.0] + [0.0] * 7 + [1.0])
    w = 8
    full = core.stomp(ts, w)
    # windows 0 ([0]*7+[19]), 8 ([0]*7+[1]) and 16 ([0]*7+[1]) are z-norm
    # identical, so every one of them has an exact match at distance 0
    assert full["mp"][16] < 1e-6
    assert full["mp"][0] < 1e-6
    state = core.stampi_init(ts[:16], w)
    for x in ts[16:]:
        state = core.stampi_append(state, x)
    np.testing.assert_allclose(state["mp"], full["mp"], atol=1e-6)


def test_regression_mpx_near_constant_window_global_range():
    """Round-1 hypothesis example: window std 4e-6 in a series with spikes of
    144 — the kernel's absolute error scales with the global range, so the
    profile value must only be accurate relative to the global magnitude."""
    ts = np.array(
        [0.0] * 17 + [144.0, 0.0, -33.0, 0.0, -1e-05, 0.0, 0.0], dtype="d"
    )
    w = 4
    mp, pi = core.mpx(ts, w)
    plen = len(ts) - w + 1
    assert len(mp) == plen
    finite = np.isfinite(mp)
    # absolute error bounded relative to global magnitude, and valid bounds
    assert np.all(mp[finite] >= -1e-9)
    assert np.all(mp[finite] <= 2 * np.sqrt(w) + 1e-6)


@settings(max_examples=10, deadline=None)
@given(data=series_strategy)
def test_stampi_always_matches_batch(data):
    ts = np.asarray(data, dtype="d")
    w = 8
    if len(ts) < 3 * w or np.std(ts) < 1e-9:
        return
    # skip series containing near-constant windows: their z-norm distances
    # are epsilon-policy-dependent and differ legitimately between the
    # MASS (fft) and STOMP (recurrence) formulations. muinvn's sig is the
    # INVERSE norm: 0 marks constant, large values mark near-constant.
    mu, sig = core.muinvn(ts, w)
    scale = max(1.0, float(np.abs(ts).max()))
    window_std = np.where(sig > 0, 1.0 / (np.maximum(sig, 1e-300) * np.sqrt(w)), 0.0)
    if np.any(window_std < 1e-6 * scale):
        return
    split = max(2 * w, int(len(ts) * 0.7))
    state = core.stampi_init(ts[:split], w)
    for x in ts[split:]:
        state = core.stampi_append(state, x)
    full = core.stomp(ts, w)
    scale = max(float(np.max(full["mp"][np.isfinite(full["mp"])], initial=1.0)), 1e-9)
    diff = np.abs(state["mp"] - full["mp"])
    diff = diff[np.isfinite(diff)]
    assert np.all(diff / scale < 1e-3)


# values that exercise the STAMPI loop's policies: constant windows (runs),
# non-finite values (inf distance), and -0.0 (the cumsum's first term)
_stampi_value = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]),
)


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.tuples(_stampi_value, st.integers(1, 12)),
                     min_size=1, max_size=40),
       w=st.integers(4, 12), boot=st.integers(0, 60),
       chunks=st.lists(st.integers(0, 30), min_size=1, max_size=12))
def test_stampi_native_equals_numpy_mirror(runs, w, boot, chunks):
    """The C append loop and its numpy mirror (no compiler) give
    byte-identical profiles, through the 2w bootstrap and any chunking."""
    from matrixprofile_ray.core import _native

    ts = np.repeat([v for v, _ in runs], [r for _, r in runs]).astype("d")
    boot = min(boot, len(ts))

    def run():
        with np.errstate(all="ignore"):
            state = core.stampi_init(ts[:boot].copy(), w)
            i = boot
            for c in chunks * (1 + len(ts) // max(1, sum(chunks))):
                state = core.stampi_append_many(state, ts[i: i + c])
                i += c
            return core.stampi_append_many(state, ts[i:])

    assert _native.available()
    native = run()
    saved = _native._LIB
    _native._LIB = False
    try:
        mirror = run()
    finally:
        _native._LIB = saved
    assert native["ts"].tobytes() == mirror["ts"].tobytes() == ts.tobytes()
    assert native["mp"].tobytes() == mirror["mp"].tobytes()
    assert native["pi"].tobytes() == mirror["pi"].tobytes()
    assert len(native["mp"]) == (len(ts) - w + 1 if len(ts) >= 2 * w else 0)


# ---------------------------------------------------------------- corpus ops

text_strategy = st.lists(
    st.text(max_size=40),  # arbitrary unicode incl. multi-byte UTF-8
    min_size=0, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(texts=text_strategy, k=st.integers(2, 8))
def test_shingle_arrow_path_matches_list_path(texts, k):
    """The zero-copy Arrow-buffer shingle pass must be bit-identical to
    the list-of-str path for ANY unicode input (multi-byte UTF-8, empty
    docs, docs shorter than k) — both hash the UTF-8 byte stream."""
    import pyarrow as pa

    from matrixprofile_ray.stages.dedup import _batch_shingle_hashes

    f1, s1 = _batch_shingle_hashes(texts, k)
    f2, s2 = _batch_shingle_hashes(pa.array(texts, pa.string()), k)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(s1, s2)
    # sliced array (non-zero Arrow offset) must agree too
    if len(texts) > 1:
        f3, s3 = _batch_shingle_hashes(
            pa.array(["sentinel"] + texts, pa.string()).slice(1), k)
        np.testing.assert_array_equal(f1, f3)
        np.testing.assert_array_equal(s1, s3)


@settings(max_examples=30, deadline=None)
@given(texts=st.lists(st.text(max_size=300), min_size=1, max_size=6),
       size=st.integers(1, 64), head=st.integers(1, 16))
def test_chunk_documents_covers_text_exactly(texts, size, head):
    """Chunk lens partition each doc's codepoint length exactly and every
    chunk_head equals the Python slice of the source text (codepoint
    semantics on both sides)."""
    import pyarrow as pa

    from matrixprofile_ray.stages.text import chunk_documents

    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    # capture the inner batch fn through a one-shot fake dataset (the
    # map_batches wiring itself is covered by the Ray integration tests)
    captured = {}

    class Ds:
        def map_batches(self, fn, batch_format):
            captured["fn"] = fn
            return self

    chunk_documents(Ds(), size=size, head=head)
    out = captured["fn"](batch).to_pandas()
    for i, txt in enumerate(texts):
        rows = out[out["doc_id"] == i].sort_values("chunk_id")
        assert rows["chunk_len"].sum() == len(txt)
        n_expected = -(-len(txt) // size)  # ceil; 0 chunks for empty text
        assert len(rows) == n_expected
        for _, r in rows.iterrows():
            start = int(r["chunk_id"]) * size
            assert r["chunk_head"] == txt[start: start + head]
            assert r["chunk_len"] == min(size, len(txt) - start)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 20), num_perm=st.sampled_from([4, 16, 64]))
def test_sig_pack_unpack_roundtrip_random(n, num_perm):
    from matrixprofile_ray.stages.dedup import (
        _pack_sig_binary,
        _unpack_sig_binary,
    )

    rng = np.random.default_rng(n * 97 + num_perm)
    sigs = rng.integers(0, 2**63, size=(n, num_perm), dtype=np.uint64)
    col = _pack_sig_binary(sigs)
    np.testing.assert_array_equal(
        _unpack_sig_binary(col, num_perm), sigs.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(words=st.lists(st.sampled_from("a b c d e aa bb".split()),
                      min_size=0, max_size=30),
       n=st.integers(2, 4))
def test_distinct_gram_pairs_match_naive(words, n):
    """_distinct_gram_pairs == the obvious per-doc Python n-gram set."""
    import pyarrow as pa

    from matrixprofile_ray.stages.text import _distinct_gram_pairs

    text = " ".join(words)
    batch = pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array([text], pa.string()),
    })
    got = sorted(_distinct_gram_pairs(batch, n, "doc_id", "text")
                 ["gram"].to_pylist())
    toks = text.strip().split() if text.strip() else [""]
    # engine tokenizes "" → [""], mirroring the SQL trim+split semantics
    if text.strip() == "" and text != "":
        toks = [""]
    want = sorted({" ".join(toks[i:i + n])
                   for i in range(len(toks) - n + 1)})
    assert got == want


@settings(max_examples=12, deadline=None)
@given(h=st.integers(8, 40), w=st.integers(8, 40),
       seed=st.integers(0, 2**31 - 1),
       sub=st.sampled_from(["444", "420", "422", "440"]),
       quality=st.integers(60, 98))
def test_jpeg_progressive_matches_baseline(h, w, seed, sub, quality):
    """Progressive (SOF2) is a re-ordering of the same quantized
    coefficients, so decode(progressive) must equal decode(baseline)
    pixel-for-pixel on ANY image/dims/subsampling/quality."""
    from matrixprofile_ray.stages.jpeg import (
        decode_jpeg, encode_jpeg, encode_jpeg_progressive)

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    p = decode_jpeg(encode_jpeg_progressive(img, quality, subsampling=sub))
    b = decode_jpeg(encode_jpeg(img, quality, subsampling=sub))
    np.testing.assert_array_equal(p, b)
