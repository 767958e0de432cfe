"""Deterministic synthetic Common-Crawl-style `pages` corpus.

Schema is exactly the BASELINE.json input_hint:
    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

Design constraints (FIXTURES.md F1):
- heavy-tailed Zipf(s≈1.2) domain distribution over ~200 domains
- deterministic per global row index — every value derives from a
  counter-based splitmix64 hash of (seed, row index), so generation is
  embarrassingly parallel and independent of batch/block boundaries
  (the corpus is identical whether generated in 1 block or 10,000)
- ~1% duplicate urls (same text, later warc_ts wins at dedup)
- `text` is a pure function of the url → the byte-identical-extraction
  oracle for the html→text stage
- intra-day arrival-density modulation so per-domain bucket series have
  repeating (motif) structure for the matrix-profile stages
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["PAGES_SCHEMA", "generate_pages", "pages_dataset", "pages_parquet"]

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

N_DOMAINS = 200  # default; override per call for bigger universes
ZIPF_S = 1.2
BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
SPAN_DAYS = 56
DAY_US = 86_400_000_000
_LANGS = np.array(["en", "de", "fr", "es", "pt"])
_LANG_CDF = np.array([0.90, 0.925, 0.95, 0.975, 1.0])

_VOCAB = None


def _vocab() -> np.ndarray:
    global _VOCAB
    if _VOCAB is None:
        rng = np.random.default_rng(1234)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        words = []
        for _ in range(512):
            ln = rng.integers(3, 9)
            words.append("".join(rng.choice(letters, size=ln)))
        _VOCAB = np.array(words)
    return _VOCAB


def _mix(x: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64: deterministic 64-bit hash of (x, salt)."""
    salted = (salt * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x.astype(np.uint64) + np.uint64(salted)
    z = (z + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform(x: np.ndarray, salt: int) -> np.ndarray:
    return _mix(x, salt).astype(np.float64) / np.float64(2**64)


_ZIPF_CDF: dict = {}


def _zipf_cdf(n_domains: int) -> np.ndarray:
    if n_domains not in _ZIPF_CDF:
        p = 1.0 / np.arange(1, n_domains + 1) ** ZIPF_S
        _ZIPF_CDF[n_domains] = np.cumsum(p / p.sum())
    return _ZIPF_CDF[n_domains]


def generate_pages(indices: np.ndarray, seed: int = 42,
                   n_domains: int = N_DOMAINS) -> pa.Table:
    """Generate the pages rows for the given global row indices."""
    idx = np.asarray(indices, dtype=np.uint64) + np.uint64(seed) * np.uint64(1 << 32)

    domain_id = np.searchsorted(_zipf_cdf(n_domains), _uniform(idx, 1))
    # unique page namespace per domain, ~1% collisions ⇒ duplicate urls
    page_id = _mix(idx, 2) % np.uint64(10_000_000)
    dup = _uniform(idx, 3) < 0.01
    page_id[dup] = _mix(idx[dup], 4) % np.uint64(50)

    # arrival: uniform over the span with sinusoidal intra-day bunching
    t = _uniform(idx, 5) * (SPAN_DAYS * DAY_US)
    t = t + 0.18 * DAY_US * np.sin(2 * np.pi * t / DAY_US)
    t = np.clip(t, 0, SPAN_DAYS * DAY_US - 1)
    warc_ts = (BASE_TS_US + t).astype("int64")

    lang = _LANGS[np.searchsorted(_LANG_CDF, _uniform(idx, 6))]

    # text: pure function of the url (via its (domain_id, page_id) identity).
    # Fully vectorized: one flat token-id array for the whole batch, joined
    # per row through an Arrow ListArray (no python row loop).
    import pyarrow.compute as pc

    url_key = _mix(domain_id.astype(np.uint64) * np.uint64(10_000_019) + page_id, 7)
    n_tokens = 20 + (_mix(url_key, 8) % np.uint64(120)).astype(np.int64)
    vocab = _vocab()

    offsets = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(n_tokens, out=offsets[1:])
    total = int(offsets[-1])
    # flat positional index within each row: arange(total) - row_start
    flat_pos = np.arange(total, dtype=np.uint64) - np.repeat(
        offsets[:-1], n_tokens
    ).astype(np.uint64)
    flat_key = np.repeat(url_key, n_tokens)
    flat_tok = _mix(flat_pos + flat_key, 9) % np.uint64(512)
    # take from the 512-word vocabulary as one Arrow array: converting a
    # numpy string array of millions of tokens yields a ChunkedArray,
    # which ListArray.from_arrays rejects
    token_list = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pc.take(pa.array(vocab, pa.string()), flat_tok),
    )
    text = pc.binary_join(token_list, " ")

    dom_str = pc.binary_join_element_wise(
        "domain",
        pc.utf8_lpad(pc.cast(pa.array(domain_id), pa.string()), 4, "0"),
        "",
    )
    urls = pc.binary_join_element_wise(
        "https://",
        dom_str,
        ".example/p/",
        pc.cast(pa.array(page_id.astype(np.int64)), pa.string()),
        "",
    )
    html = pc.cast(
        pc.binary_join_element_wise(
            "<html><head><title>",
            dom_str,
            "</title></head><body><p>",
            text,
            "</p></body></html>",
            "",
        ),
        pa.binary(),
    )

    return pa.Table.from_arrays(
        [
            urls,
            pa.array(warc_ts, pa.timestamp("us")),
            html,
            text,
            pa.array(lang, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def pages_dataset(n_rows: int, seed: int = 42, n_domains: int = N_DOMAINS):
    """Lazy Ray Dataset of the synthetic corpus (parallel, deterministic)."""
    import ray.data as rd

    from matrixprofile_ray.util import cluster_cpus, ensure_hash_shuffle

    # Ray snapshots the DataContext when the SOURCE dataset is created —
    # shuffle settings applied later (by downstream builders) do not reach
    # this plan, so the context must be right before rd.range.
    ensure_hash_shuffle()
    # cpus/2 source blocks: see util.shuffle_partitions for the measurement
    cpus = cluster_cpus()
    ds = rd.range(
        n_rows, override_num_blocks=max(8, cpus // 2) if cpus >= 8 else None
    )

    def _batch(batch: dict) -> pa.Table:
        return generate_pages(batch["id"], seed=seed, n_domains=n_domains)

    return ds.map_batches(_batch, batch_format="numpy", batch_size=8192)


def pages_parquet(path: str, n_rows: int, seed: int = 42,
                  n_domains: int = N_DOMAINS) -> str:
    """Materialize the corpus to partitioned parquet (cached bench input)."""
    import os

    if not os.path.exists(os.path.join(path, "_DONE")):
        pages_dataset(n_rows, seed=seed, n_domains=n_domains).write_parquet(path)
        with open(os.path.join(path, "_DONE"), "w") as fh:
            fh.write("ok")
    return path
