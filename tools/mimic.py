"""Driver-mimic: run Ray query + DuckDB oracle side-by-side, compare
row count, schema (column names), and a value hash over name-sorted
columns — the same comparison shape as CORRECTNESS_r*.json.

Output: ONE JSON line, last on stdout (read it with ``tail -1``; Ray may
print warnings ahead of it); per-query diagnostics go to stderr. Every
entry carries ``ray_rows`` and ``ray_hash`` (``value_hash`` of the Ray
result); a name without an ``oracle_sql()`` entry reports only those, so
a parent/change comparison can cover queries that have no oracle.

OPERATIONAL LIMIT: one process exhausts vm.max_map_count (65530) after
roughly 100 query executions — Ray Data + Arrow + DuckDB accumulate
memory maps per dataset run, and at the ceiling mmap-backed allocations
fail as DuckDB "Out of Memory ... bad allocation" and Python "can't
start new thread" REGARDLESS of the query. Run the full sweep in chunks
of ≤~60 names per process:

    python tools/mimic.py <sf_dir> "name1,name2,..."

(the driver's 50-query prefix sample is safely under the ceiling).

ORACLE CACHE: each DuckDB result is pickled under
``<tempfile.gettempdir()>/mimic_oracle_cache``, keyed by the sha256 of
the SQL text, ``duckdb.__version__`` and the bytes of every table parquet
in ``<sf_dir>``. A hit is the result the same SQL gives on the same bytes,
so the comparison skips nothing; a re-run pays only the Ray side (stderr
says ``oracle cached``).
"""
import hashlib
import json
import os
import sys
import tempfile

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
NAMES = sys.argv[2].split(",") if len(sys.argv) > 2 else None

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         log_to_driver=False)

import __ray_entry__ as e

TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()
con = duckdb.connect()
# Bound DuckDB's budget explicitly: its default (80% of RAM) collides
# with Ray's object-store reservation and the heaviest w24g recursive
# CTEs then die with bad_alloc instead of spilling. A hard limit plus a
# temp_directory makes them spill to disk and finish.
con.execute("SET memory_limit='40GB'")
spill = os.path.join(tempfile.gettempdir(), "duckdb_spill")
os.makedirs(spill, exist_ok=True)
con.execute(f"SET temp_directory='{spill}'")
digest = hashlib.sha256(duckdb.__version__.encode())
for t in TABLES:
    p = os.path.join(SF, f"{t}.parquet")
    if os.path.exists(p):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
        digest.update(t.encode())
        with open(p, "rb") as fh:
            digest.update(fh.read())
CACHE = os.path.join(tempfile.gettempdir(), "mimic_oracle_cache")
os.makedirs(CACHE, exist_ok=True)


def oracle(sql: str) -> tuple[pd.DataFrame, bool]:
    """DuckDB result of ``sql`` and whether it came from the cache."""
    key = digest.copy()
    key.update(sql.encode())
    path = os.path.join(CACHE, key.hexdigest() + ".pkl")
    if os.path.exists(path):
        return pd.read_pickle(path), True
    df = con.execute(sql).df()
    tmp = f"{path}.{os.getpid()}.tmp"
    df.to_pickle(tmp)
    os.replace(tmp, path)
    return df, False


def to_df(res):
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    sort_cols = list(df.columns)
    try:
        df = df.sort_values(sort_cols).reset_index(drop=True)
    except Exception:
        pass
    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if col.dtype.kind == "f":
            h.update(np.round(col.to_numpy(dtype="d"), 6).tobytes())
        else:
            h.update(col.astype(str).str.cat(sep="\x1f").encode())
    return h.hexdigest()


oracles = e.oracle_sql()
qs = e.queries()
names = NAMES or list(oracles)
out = {}
for name in names:
    try:
        import time as _time
        _t0 = _time.time()
        got = to_df(qs[name](SF))
        _t1 = _time.time()
        entry = {"ray_rows": len(got), "ray_hash": value_hash(got)}
        out[name] = entry
        if name not in oracles:
            print(f"[mimic] {name}: ray {_t1 - _t0:.1f}s (no oracle)",
                  file=sys.stderr, flush=True)
            continue
        want, cached = oracle(oracles[name])
        took = "cached" if cached else f"{_time.time() - _t1:.1f}s"
        print(f"[mimic] {name}: ray {_t1 - _t0:.1f}s oracle {took}",
              file=sys.stderr, flush=True)
        rows = len(got) == len(want)
        schema = sorted(got.columns) == sorted(want.columns)
        hm = (entry["ray_hash"] == value_hash(want)
              if rows and schema else False)
        entry.update({"rows_match": rows, "schema_match": schema,
                      "hash_match": hm, "oracle_rows": len(want)})
        if not hm:
            print(f"--- {name} MISMATCH", file=sys.stderr)
            print("ray cols:", list(got.columns), file=sys.stderr)
            print("sql cols:", list(want.columns), file=sys.stderr)
            print(got.head(3), file=sys.stderr)
            print(want.head(3), file=sys.stderr)
    except Exception as ex:
        out.setdefault(name, {})["err"] = f"{type(ex).__name__}: {ex}"
        print(f"--- {name} ERROR: {ex}", file=sys.stderr)

ray.shutdown()
print(json.dumps(out), flush=True)
