"""Independent references the benchmark checks the engine's outputs against.

- DuckDB over the same Parquet files: bucket tables and the gap-fill span
  (and so the rolled-point count) of every (key, tier) series.
- A bit-exact Gorilla decode round trip of every encoded series.
- A brute-force numpy z-normalized distance profile for a seeded sample
  of matrix profiles.

Each check raises ``CheckFailed`` with a short reason.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _duckdb():
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads TO 1")
    con.execute("SET memory_limit = '1GB'")
    return con


def _files_sql(files: list[str]) -> str:
    return "[" + ", ".join("'" + f.replace("'", "''") + "'" for f in files) + "]"


def pages_spans(files: list[str], tiers: dict[str, int]) -> dict:
    """(domain, tier) -> (first bucket, last bucket, non-empty buckets)."""
    con = _duckdb()
    try:
        out = {}
        for tier, bucket_us in tiers.items():
            rows = con.execute(f"""
                WITH p AS (
                    SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS domain,
                           (epoch_us(warc_ts) // {bucket_us}) * {bucket_us} AS b
                    FROM read_parquet({_files_sql(files)}))
                SELECT domain, MIN(b), MAX(b), COUNT(DISTINCT b)
                FROM p GROUP BY domain""").fetchall()
            for domain, lo, hi, nb in rows:
                out[(domain, tier)] = (int(lo), int(hi), int(nb))
        return out
    finally:
        con.close()


def events_buckets(files: list[str], bucket_us: int) -> dict:
    """(event_type, bucket) -> (count, min, max, exact micro-unit sum)."""
    con = _duckdb()
    try:
        rows = con.execute(f"""
            SELECT event_type, (epoch_us(ts) // {bucket_us}) * {bucket_us} AS b,
                   COUNT(*), MIN(value), MAX(value),
                   SUM(CAST(ROUND(value * 1000000) AS BIGINT))
            FROM read_parquet({_files_sql(files)}) GROUP BY 1, 2""").fetchall()
        return {(k, int(b)): (int(c), float(lo), float(hi), int(mu))
                for k, b, c, lo, hi, mu in rows}
    finally:
        con.close()


def check_bucket_table(df, want: dict, key: str) -> None:
    """Engine bucket table (pandas) equals the DuckDB bucket table."""
    _require(len(df) == len(want), f"bucket rows {len(df)} != {len(want)}")
    for k, b, c, lo, hi, mu in zip(df[key], df["bucket_ts"], df["count"],
                                   df["min_value"], df["max_value"], df["sum_mu"]):
        ref = want.get((k, int(b)))
        _require(ref is not None, f"unexpected bucket {k}@{b}")
        _require((int(c), float(lo), float(hi), int(mu)) == ref,
                 f"bucket {k}@{b}: {(c, lo, hi, mu)} != {ref}")


def spans_from_buckets(want: dict, tier: str) -> dict:
    """Bucket table -> the (key, tier) spans ``check_series_spans`` takes."""
    spans: dict = {}
    for (k, b) in want:
        lo, hi, nb = spans.get((k, tier), (b, b, 0))
        spans[(k, tier)] = (min(lo, b), max(hi, b), nb + 1)
    return spans


def check_series_spans(df, spans: dict, key: str, bucket_us: dict) -> int:
    """Every gap-filled series covers exactly its DuckDB bucket span.
    Returns the expected rolled-point count."""
    _require(len(df) == len(spans), f"series rows {len(df)} != {len(spans)}")
    expected = 0
    for k, tier, start, n, gaps, values in zip(
            df[key], df["tier"], df["start_ts"], df["n"], df["n_gaps"],
            df["values"]):
        ref = spans.get((k, tier))
        _require(ref is not None, f"unexpected series {k}/{tier}")
        lo, hi, nb = ref
        n_ref = (hi - lo) // bucket_us[tier] + 1
        _require(int(start) == lo and int(n) == n_ref and len(values) == n_ref
                 and int(gaps) == n_ref - nb,
                 f"series {k}/{tier}: start/n/gaps {start}/{n}/{gaps} != "
                 f"{lo}/{n_ref}/{n_ref - nb}")
        _require(bool(np.all(np.isfinite(np.asarray(values, dtype="d")))),
                 f"series {k}/{tier} has non-finite values")
        expected += n_ref
    return expected


def check_gorilla(gorilla_df, series_df) -> int:
    """Bit-exact decode round trip of every payload; returns payload bits."""
    from matrixprofile_ray.core.gorilla import (gorilla_decode_floats,
                                                timestamps_decode)

    values = {(k, t): np.asarray(v, dtype="<f8") for k, t, v in
              zip(series_df["domain"], series_df["tier"], series_df["values"])}
    _require(len(gorilla_df) == len(values),
             f"gorilla rows {len(gorilla_df)} != {len(values)}")
    bits = 0
    for k, t, start, step, vx, td in zip(
            gorilla_df["domain"], gorilla_df["tier"], gorilla_df["start_ts"],
            gorilla_df["bucket_us"], gorilla_df["values_xor"],
            gorilla_df["ts_dod"]):
        want = values[(k, t)]
        got = np.asarray(gorilla_decode_floats(vx), dtype="<f8")
        _require(got.shape == want.shape
                 and np.array_equal(got.view(np.uint64), want.view(np.uint64)),
                 f"gorilla values {k}/{t} differ after decode")
        ts = np.asarray(timestamps_decode(td), dtype=np.int64)
        want_ts = int(start) + int(step) * np.arange(len(want), dtype=np.int64)
        _require(np.array_equal(ts, want_ts), f"gorilla ts {k}/{t} differ")
        bits += 8 * (len(vx) + len(td))
    return bits


def mpx_minlag(w: int) -> int:
    """Trivial-match zone of the engine's mpx self join (ceil(w/4))."""
    return int(math.ceil(w / 4.0))


def mpx_cells(n: int, w: int) -> int:
    """Distance-matrix cells an mpx self join evaluates (its diagonals
    from minlag + 1 on)."""
    m = max(0, n - w + 1 - mpx_minlag(w) - 1)
    return m * (m + 1) // 2


def brute_mp(x: np.ndarray, w: int, min_sep: int) -> np.ndarray:
    """Self-join matrix profile by the full z-normalized distance matrix:
    for each subsequence i, min over j with |i - j| >= min_sep."""
    x = np.asarray(x, dtype="d")
    sub = np.lib.stride_tricks.sliding_window_view(x, w)
    z = sub - sub.mean(axis=1, keepdims=True)
    z /= np.sqrt((z * z).sum(axis=1, keepdims=True))
    corr = np.clip(z @ z.T, -1.0, 1.0)
    dist = np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))
    idx = np.arange(len(sub))
    dist[np.abs(idx[:, None] - idx[None, :]) < min_sep] = np.inf
    return dist.min(axis=1)


def check_profiles(prof_df, key: str, rng: np.random.Generator,
                   sample: int = 3, max_n: int = 4096) -> int:
    """Compare a seeded sample of mpx profiles with ``brute_mp``.

    Only series without near-constant windows are sampled: gap-filled
    series carry ~1e-6 noise on imputed runs, where z-normalization is
    ill-conditioned and any two exact methods legitimately disagree."""
    def well_conditioned(r) -> bool:
        if int(r["n"]) > max_n:
            return False
        sub = np.lib.stride_tricks.sliding_window_view(
            np.asarray(r["values"], dtype="d"), int(r["w"]))
        return float(sub.std(axis=1).min()) >= 1e-3

    rows = [i for i in range(len(prof_df)) if well_conditioned(prof_df.iloc[i])]
    _require(len(rows) > 0, "no well-conditioned profile rows to check")
    picked = rng.choice(rows, size=min(sample, len(rows)), replace=False)
    for i in picked:
        r = prof_df.iloc[int(i)]
        w = int(r["w"])
        want = brute_mp(r["values"], w, mpx_minlag(w) + 1)
        got = np.asarray(r["mp"], dtype="d")
        _require(got.shape == want.shape and np.allclose(got, want, rtol=1e-6,
                                                         atol=1e-5),
                 f"profile {r[key]}/{r['tier']} differs from brute force "
                 f"(max err {np.max(np.abs(got - want)) if got.shape == want.shape else 'shape'})")
    return len(picked)


def check_discoveries(disc_df, prof_df, key: str) -> None:
    """Every discovery belongs to a profiled series; every profile long
    enough for a discord yields at least one."""
    profiled = set(zip(prof_df[key], prof_df["tier"]))
    found = set(zip(disc_df[key], disc_df["tier"]))
    _require(found <= profiled, "discoveries for unprofiled series")
    _require(len(found) > 0, "no discoveries")
