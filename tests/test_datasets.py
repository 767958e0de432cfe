"""Hermetic MPF-dataset registry loader parity
(matrixprofile_ray/sources/datasets.py vs reference
matrixprofile/datasets/datasets.py:48-219).

`get_csv_indices` is cross-validated against the reference function
loaded straight from its module file (network-free); `load` semantics
are asserted against numpy's loadtxt/genfromtxt outputs on the same
files the reference would parse.
"""
from __future__ import annotations

import gzip
import importlib.util
import json
import os

import numpy as np
import pytest

from matrixprofile_ray.sources import datasets as ds

REF_MOD = "/root/reference/matrixprofile/datasets/datasets.py"


def _ref_datasets():
    spec = importlib.util.spec_from_file_location("ref_datasets", REF_MOD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("mpf-registry")
    listings = [
        {"name": "sine.txt", "category": "synthetic",
         "description": "plain txt series"},
        {"name": "hourly_meter.csv", "category": "real",
         "description": "csv with a Date column"},
        {"name": "packed.csv.gz", "category": "real",
         "description": "gzipped csv, Timestamp mid-column"},
        {"name": "noheader_vals.csv", "category": "synthetic",
         "description": "csv with no datetime-ish header"},
    ]
    (root / "listings.json").write_text(json.dumps(listings))

    rng = np.random.default_rng(7)
    (root / "synthetic").mkdir()
    (root / "real").mkdir()

    sine = np.sin(np.linspace(0, 20, 64)) + rng.normal(0, 0.01, 64)
    np.savetxt(root / "synthetic" / "sine.txt", sine)

    with open(root / "real" / "hourly_meter.csv", "w") as f:
        f.write("Date,kwh,volts\n")
        for i in range(48):
            f.write(f"2021-03-0{1 + i // 24}T{i % 24:02d}:00:00,"
                    f"{100 + i * 0.5:.3f},{230 + (i % 7) * 0.1:.3f}\n")

    with gzip.open(root / "real" / "packed.csv.gz", "wt") as f:
        f.write("load,Timestamp,temp\n")
        for i in range(24):
            f.write(f"{i * 1.25:.2f},2020-01-01T{i:02d}:00:00,"
                    f"{15 + i * 0.3:.2f}\n")

    with open(root / "synthetic" / "noheader_vals.csv", "w") as f:
        f.write("a,b\n")
        for i in range(10):
            f.write(f"{i}.5,{i}.25\n")

    return str(root)


def test_fetch_available_all_and_filter(registry):
    all_ds = ds.fetch_available(data_dir=registry)
    assert [d["name"] for d in all_ds] == [
        "sine.txt", "hourly_meter.csv", "packed.csv.gz", "noheader_vals.csv"]
    real = ds.fetch_available("REAL", data_dir=registry)
    assert {d["category"] for d in real} == {"real"}
    with pytest.raises(ValueError):
        ds.fetch_available("nonexistent", data_dir=registry)


def test_fetch_available_env_and_fileurl(registry, monkeypatch):
    monkeypatch.setenv("MPF_DATA_DIR", registry)
    assert len(ds.fetch_available()) == 4
    monkeypatch.setenv("MPF_DATA_DIR", "file://" + registry)
    assert len(ds.fetch_available()) == 4


@pytest.mark.skipif(not os.path.exists(REF_MOD),
                    reason="reference module not present")
def test_get_csv_indices_matches_reference(registry):
    ref = _ref_datasets()
    for rel, gz in [("real/hourly_meter.csv", False),
                    ("real/packed.csv.gz", True),
                    ("synthetic/noheader_vals.csv", False)]:
        fp = os.path.join(registry, rel)
        assert ds.get_csv_indices(fp, gz) == ref.get_csv_indices(fp, gz)


def test_load_txt(registry):
    rec = ds.load("sine", data_dir=registry)
    assert rec["name"] == "sine.txt"
    assert rec["category"] == "synthetic"
    assert rec["datetime"] is None
    expect = np.loadtxt(os.path.join(registry, "synthetic", "sine.txt"))
    np.testing.assert_array_equal(rec["data"], expect)


def test_load_csv_with_datetime(registry):
    rec = ds.load("HOURLY_METER", data_dir=registry)  # case-insensitive
    assert rec["data"].shape == (48, 2)
    assert rec["data"].dtype == np.float64
    assert rec["datetime"].dtype.kind == "M"
    assert rec["datetime"][0] == np.datetime64("2021-03-01T00:00:00")
    assert rec["data"][1, 0] == pytest.approx(100.5)


def test_load_gzip_csv_mid_datetime(registry):
    rec = ds.load("packed.csv.gz", data_dir=registry)  # full-name match
    # Timestamp is column 1; real columns are 0 and 2
    assert rec["data"].shape == (24, 2)
    assert rec["data"][2, 0] == pytest.approx(2.5)
    assert rec["data"][2, 1] == pytest.approx(15.6)
    assert rec["datetime"][23] == np.datetime64("2020-01-01T23:00:00")


def test_load_csv_no_datetime(registry):
    rec = ds.load("noheader_vals", data_dir=registry)
    assert rec["datetime"] is None
    assert rec["data"].shape == (10, 2)


def test_load_unknown_raises(registry):
    with pytest.raises(ValueError):
        ds.load("missing_name", data_dir=registry)


def test_to_series_dataset(registry, ray_session, tmp_path):
    rec = ds.load("sine", data_dir=registry)
    out = ds.to_series_dataset(rec)
    rows = out.take_all()
    assert len(rows) == 1
    row = rows[0]
    assert row["key"] == "sine.txt"
    assert row["n"] == 64
    np.testing.assert_allclose(np.asarray(row["values"]), rec["data"])

    rec2 = ds.load("hourly_meter", data_dir=registry)
    row2 = ds.to_series_dataset(rec2).take_all()[0]
    assert row2["n"] == 48
    # datetime carried as int64 microseconds
    assert row2["ts"][0] == int(
        rec2["datetime"][0].astype("datetime64[us]").astype("int64"))

    # a single-value .txt loads as a 0-d array: a length-1 series
    one = tmp_path / "one.txt"
    np.savetxt(one, [4.5])
    rec3 = {"name": "one.txt", "data": np.loadtxt(one), "datetime": None}
    assert rec3["data"].ndim == 0
    row3 = ds.to_series_dataset(rec3).take_all()[0]
    assert row3["n"] == 1
    assert list(row3["values"]) == [4.5]
    assert list(row3["ts"]) == [0]
