"""TPC-H-shaped ``nation``, ``customer`` and ``orders`` tables generated
from a seed, and the DuckDB oracles that the ``queries`` workload's queries are
checked against.

The tables have the column names, types, value distributions and parquet
layout of the repository's ``sf*`` test data, so the registered queries
read them unchanged. The oracle SQL is kept here, apart from the program,
and is run by DuckDB over the same parquet files.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

# rows per unit of scale; scale 0.1 gives the row counts of the
# repository's sf0.1 tables
ROWS = {"customer": 150_000, "orders": 1_500_000}

QUERIES = ("orders_nation", "customer_order_keys")

ORACLE_SQL = {
    "orders_nation": """
        SELECT o.o_orderkey, n.n_name
        FROM orders o
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
    """,
    "customer_order_keys": """
        SELECT o_custkey,
               string_agg(CAST(o_orderkey AS VARCHAR), ',' ORDER BY o_orderkey) AS order_keys
        FROM orders
        GROUP BY o_custkey
    """,
}


def _days(rng: np.random.RandomState, lo: str, hi: str, n: int) -> np.ndarray:
    lo_d = np.datetime64(lo, "D")
    span = int((np.datetime64(hi, "D") - lo_d).astype(np.int64))
    return (lo_d + rng.randint(0, span + 1, n)).astype("datetime64[us]")


def _money(rng: np.random.RandomState, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def generate(scale: float, seed: int) -> dict[str, pa.Table]:
    rng = np.random.RandomState(seed)
    n = {t: max(1, int(r * scale)) for t, r in ROWS.items()}
    nation = pa.table({
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
    })
    nc = n["customer"]
    customer = pa.table({
        "c_custkey": np.arange(nc, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(nc)],
        "c_nationkey": pa.array(rng.randint(0, 25, nc), pa.int32()),
        "c_acctbal": _money(rng, -999.99, 9999.99, nc),
        "c_mktsegment": np.asarray(SEGMENTS, object)[rng.randint(0, 5, nc)],
    })
    no = n["orders"]
    orders = pa.table({
        "o_orderkey": np.arange(no, dtype=np.int64),
        "o_custkey": rng.randint(0, nc, no).astype(np.int64),
        "o_orderstatus": np.asarray(["F", "O", "P"], object)[rng.randint(0, 3, no)],
        "o_totalprice": _money(rng, 1000.0, 500000.0, no),
        "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", no),
        "o_orderpriority": np.asarray(PRIORITIES, object)[rng.randint(0, 5, no)],
    })
    return {"nation": nation, "customer": customer, "orders": orders}


def write(tables: dict[str, pa.Table], out_dir: str) -> None:
    """One parquet file per table, named as the queries read them (the
    layout of the repository's test data)."""
    os.makedirs(out_dir, exist_ok=True)
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))


def oracle_results(data_dir: str) -> dict[str, pd.DataFrame]:
    import duckdb

    con = duckdb.connect()
    try:
        for name in ("nation", *ROWS):
            path = os.path.join(data_dir, f"{name}.parquet").replace("'", "''")
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        return {q: con.execute(sql).df() for q, sql in ORACLE_SQL.items()}
    finally:
        con.close()


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Sorted columns and rows, one dtype per kind: DECIMAL objects and
    floats → float64, integers → int64, timestamps → datetime64[ns]."""
    import decimal

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if s.dtype == object and len(s) and isinstance(s.iloc[0], decimal.Decimal):
            df[c] = s.astype(np.float64)
        elif pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("datetime64[ns]")
        elif pd.api.types.is_integer_dtype(s):
            df[c] = s.astype(np.int64)
        elif pd.api.types.is_float_dtype(s):
            df[c] = s.astype(np.float64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def same_result(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Value-hash equality after normalization (row and column order free)."""
    g, w = _normalize(got), _normalize(want)
    if list(g.columns) != list(w.columns) or len(g) != len(w) or len(w) == 0:
        return False
    hg = pd.util.hash_pandas_object(g, index=False).to_numpy()
    hw = pd.util.hash_pandas_object(w, index=False).to_numpy()
    return bool(np.array_equal(hg, hw))
