"""Hermetic MPF-dataset registry loader.

Parity target: reference matrixprofile/datasets/datasets.py:48-219
(`fetch_available`, `get_csv_indices`, `load`). The reference fetches a
``listings.json`` plus per-category data files from a GitHub raw URL;
this engine is hermetic by design (no network in the target runtime),
so the registry root is a local directory with the exact same layout
the reference caches under ``~/.mpf-datasets``:

    <registry>/listings.json          # [{name, category, description}, ...]
    <registry>/<category>/<filename>  # .txt / .txt.gz / .csv / .csv.gz

Parsing semantics match the reference byte-for-byte on the same files:

- ``get_csv_indices`` (datasets.py:95-129): the header column whose
  lower-cased label contains ``date`` or ``time`` is the datetime
  dimension (last such column wins), every other column is real-valued.
- ``load`` (datasets.py:132-219): case-insensitive match of ``name``
  against each listing's full filename or its base name (text before
  the first ``.``); ``.txt``/``.txt.gz`` via ``np.loadtxt``;
  ``.csv``/``.csv.gz`` via ``np.genfromtxt`` with ``skip_header`` and
  the inferred column split (datetime column as ``datetime64``).

The registry root resolves, in order: explicit ``data_dir`` argument,
``$MPF_DATA_DIR``, ``~/.mpf-datasets``. ``file://`` URLs are accepted
and stripped to local paths. Remote http(s) fetch is intentionally NOT
implemented — the one reference behavior with no engine equivalent
(documented in COVERAGE.md).
"""
from __future__ import annotations

import gzip
import json
import os
from typing import Optional

import numpy as np

__all__ = ["fetch_available", "get_csv_indices", "load", "to_series_dataset"]

DEFAULT_DATA_DIR = os.path.expanduser(os.path.join("~", ".mpf-datasets"))


def _registry_dir(data_dir: Optional[str]) -> str:
    root = data_dir or os.environ.get("MPF_DATA_DIR") or DEFAULT_DATA_DIR
    if root.startswith("file://"):
        root = root[len("file://"):]
    return root


def fetch_available(category: Optional[str] = None,
                    data_dir: Optional[str] = None) -> list:
    """List datasets in the local registry (reference datasets.py:48-92).

    Reads ``<registry>/listings.json`` and optionally filters by
    ``category`` (case-insensitive on the filter, exact on the listing,
    matching the reference's ``category.lower()`` comparison). Raises
    ``ValueError`` when a category is given but matches nothing, same
    as the reference.
    """
    root = _registry_dir(data_dir)
    listing_path = os.path.join(root, "listings.json")
    if not os.path.exists(listing_path):
        raise OSError(
            f"no dataset registry at {listing_path}; this engine is "
            "hermetic — place listings.json + data files there or set "
            "MPF_DATA_DIR (remote fetch is intentionally unsupported)")
    with open(listing_path) as f:
        datasets = json.load(f)

    if category:
        filtered = [d for d in datasets
                    if d["category"] == category.lower()]
        if not filtered:
            raise ValueError(
                "category {} is not a valid option.".format(category))
        datasets = filtered

    return datasets


def get_csv_indices(fp: str, is_gzip: bool = False):
    """Header-based column split (reference datasets.py:95-129).

    Returns ``(dt_index, real_indices)``: the index of the last header
    label containing ``date`` or ``time`` (case-insensitive), and the
    indices of every other column. ``dt_index`` is ``None`` when no
    such label exists.
    """
    if is_gzip:
        with gzip.open(fp, "rt") as f:
            first_line = f.readline()
    else:
        with open(fp) as f:
            first_line = f.readline()

    dt_index = None
    real_indices = []
    for index, label in enumerate(first_line.split(",")):
        low = label.lower()
        if "date" in low or "time" in low:
            dt_index = index
        else:
            real_indices.append(index)

    return dt_index, real_indices


def load(name: str, data_dir: Optional[str] = None) -> dict:
    """Load one dataset by (base) file name (reference datasets.py:132-219).

    Case-insensitive match of ``name`` against each listing's filename
    or its base name (text before the first dot; the LAST listing that
    matches wins, as in the reference's non-breaking loop). Returns the
    reference's dict shape:

        {'name', 'category', 'description', 'data', 'datetime'}

    ``data`` is a float64 ndarray (1-D for single-column sources, 2-D
    otherwise per numpy's loadtxt/genfromtxt squeezing), ``datetime``
    a datetime64 ndarray or None.
    """
    datasets = fetch_available(data_dir=data_dir)

    filename = category = description = None
    for dataset in datasets:
        base_name = dataset["name"].split(".")[0]
        if name.lower() == base_name or name.lower() == dataset["name"]:
            filename = dataset["name"]
            category = dataset["category"]
            description = dataset["description"]

    if not filename:
        raise ValueError("Could not find dataset {}".format(name))

    root = _registry_dir(data_dir)
    output_path = os.path.join(root, category, filename)
    if not os.path.exists(output_path):
        raise OSError(
            f"dataset file missing from local registry: {output_path} "
            "(hermetic engine: remote fetch intentionally unsupported)")

    is_txt = filename.endswith(".txt") or filename.endswith(".txt.gz")
    is_csv = filename.endswith(".csv") or filename.endswith(".csv.gz")

    data = None
    dt_data = None
    if is_txt:
        data = np.loadtxt(output_path)
    elif is_csv:
        dt_index, real_indices = get_csv_indices(
            output_path, is_gzip=filename.endswith(".csv.gz"))
        if isinstance(dt_index, int):
            dt_data = np.genfromtxt(
                output_path, dtype="datetime64", delimiter=",",
                skip_header=True, usecols=[dt_index])
        data = np.genfromtxt(
            output_path, delimiter=",", dtype="float64",
            skip_header=True, usecols=real_indices)

    return {
        "name": filename,
        "category": category,
        "description": description,
        "data": data,
        "datetime": dt_data,
    }


def to_series_dataset(record: dict):
    """Wrap a loaded dataset record as a one-row Ray ``series`` table
    (key, ts, values, n) so the profile/discovery stages consume it
    directly — the engine-side bridge from the reference's dict record
    to the Arrow data model (SURVEY §1.2).
    """
    import pyarrow as pa
    import ray.data as rd

    # np.loadtxt returns a 0-d array for a single-value file
    data = np.atleast_1d(np.asarray(record["data"], dtype="float64"))
    if data.ndim == 2:
        data = data[:, 0]
    dt = record.get("datetime")
    if dt is not None:
        ts = np.asarray(dt, dtype="datetime64[us]").astype("int64")
    else:
        ts = np.arange(len(data), dtype="int64")
    tbl = pa.table({
        "key": pa.array([record["name"]], pa.string()),
        "ts": pa.array([ts.tolist()], pa.list_(pa.int64())),
        "values": pa.array([data.tolist()], pa.list_(pa.float64())),
        "n": pa.array([len(data)], pa.int32()),
    })
    return rd.from_arrow(tbl)
