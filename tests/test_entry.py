"""Driver-contract conformance: every queries() entry runs at sf0.01; every
oracle_sql() entry matches the Ray result (row count + schema + sorted
values — the same comparison shape the driver uses)."""

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod
from dedupe_ray.golden import golden_fixtures_available

SF_DIR = "/root/testdata/sf0.01"

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result):
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64).round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle():
    con = _oracle_con()
    yield con
    con.close()


ORACLE_KEYS = sorted(entrymod.oracle_sql().keys())
ALL_KEYS = sorted(entrymod.queries().keys())


def test_oracle_keys_subset_of_queries():
    assert set(ORACLE_KEYS) <= set(ALL_KEYS)


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(name, oracle):
    ray_df = _normalize(_to_pandas(entrymod.queries()[name](SF_DIR)))
    sql_df = _normalize(oracle.sql(entrymod.oracle_sql()[name]).df())
    assert list(ray_df.columns) == list(sql_df.columns), (
        f"{name}: columns {list(ray_df.columns)} != {list(sql_df.columns)}"
    )
    assert len(ray_df) == len(sql_df), f"{name}: {len(ray_df)} vs {len(sql_df)} rows"
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("name", [k for k in ALL_KEYS if k not in ORACLE_KEYS])
def test_query_runs(name):
    if name == "kna2_replay" and not golden_fixtures_available():
        pytest.skip(
            "kna2_replay reads the KNA2.xlsx reference fixture and its captured "
            "golden response, which are not on disk (as in test_golden_replay.py)"
        )
    df = _to_pandas(entrymod.queries()[name](SF_DIR))
    assert df is not None
    assert len(df.columns) > 0


def test_entry_smoke():
    df = _to_pandas(entrymod.entry())
    assert len(df) > 0
    assert set(df.columns) == {"cluster_id", "doc_id", "confidence_score"}


def test_anti_join_scale_path_matches_broadcast(monkeypatch, oracle):
    """Force the >limit join path at small scale; it must agree with the
    broadcast path (and with the oracle)."""
    monkeypatch.setenv("DEDUPE_RAY_ANTI_JOIN_BROADCAST_LIMIT", "1")
    joined = _normalize(_to_pandas(entrymod.queries()["anti_join_customers"](SF_DIR)))
    monkeypatch.delenv("DEDUPE_RAY_ANTI_JOIN_BROADCAST_LIMIT")
    sql_df = _normalize(oracle.sql(entrymod.oracle_sql()["anti_join_customers"]).df())
    pd.testing.assert_frame_equal(joined, sql_df, check_dtype=False, atol=1e-5, rtol=1e-5)


def test_tpch_q9_bucketed_dim_path_matches_broadcast(monkeypatch, oracle):
    """Force the >limit dim path (part/supplier through bucketed joins
    instead of driver broadcasts); it must stay hash-exact vs the oracle
    (round-5 size guard for the one scale-bounded pattern VERDICT r4
    flagged)."""
    monkeypatch.setenv("DEDUPE_RAY_DIM_BROADCAST_LIMIT", "1")
    ray_df = _normalize(_to_pandas(entrymod.queries()["tpch_q9"](SF_DIR)))
    monkeypatch.delenv("DEDUPE_RAY_DIM_BROADCAST_LIMIT")
    sql_df = _normalize(oracle.sql(entrymod.oracle_sql()["tpch_q9"]).df())
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False, atol=1e-5, rtol=1e-5)


def test_semi_join_scale_path_matches_broadcast(monkeypatch, oracle):
    """Force the bucketed semi-join (>limit) path; must agree with the
    oracle like the default broadcast path does."""
    monkeypatch.setenv("DEDUPE_RAY_SEMI_JOIN_BROADCAST_LIMIT", "1")
    joined = _normalize(_to_pandas(entrymod.queries()["semi_join_heavy_users"](SF_DIR)))
    monkeypatch.delenv("DEDUPE_RAY_SEMI_JOIN_BROADCAST_LIMIT")
    sql_df = _normalize(oracle.sql(entrymod.oracle_sql()["semi_join_heavy_users"]).df())
    pd.testing.assert_frame_equal(joined, sql_df, check_dtype=False, atol=1e-5, rtol=1e-5)
