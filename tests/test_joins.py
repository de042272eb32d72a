"""bucketed_lookup_join correctness + the forced scale paths that
previously rode Ray's hash join (which stalls on empty hash partitions at
small scale — the NOTES_r2/r3 landmine)."""

import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from dedupe_ray.joins import bucketed_lookup_join


def test_bucketed_lookup_join_matches_pandas_merge():
    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "k": [f"k{i}" for i in rng.integers(0, 50, 300)],
            "x": rng.integers(0, 1000, 300),
        }
    )
    right = pd.DataFrame(
        {
            "rk": [f"k{i}" for i in range(0, 60, 2)],  # half the keys match
            "v": [f"v{i}" for i in range(0, 60, 2)],
            "w": np.arange(30) * 1.5,
        }
    )
    got = (
        bucketed_lookup_join(
            rd.from_pandas(left), rd.from_pandas(right), "k", "rk", ["v", "w"], n_buckets=8
        )
        .to_pandas()
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="k", right_on="rk", how="inner")
        .drop(columns=["rk"])
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bucketed_lookup_join_sparse_buckets_and_no_match():
    # 64 buckets for 3 keys: most buckets are empty or one-sided — the
    # exact condition that stalls Ray's hash join
    left = pd.DataFrame({"k": ["a", "b", "zz"], "x": [1, 2, 3]})
    right = pd.DataFrame({"k": ["a", "b", "c"], "v": ["A", "B", "C"]})
    got = (
        bucketed_lookup_join(
            rd.from_pandas(left), rd.from_pandas(right), "k", "k", ["v"], n_buckets=64
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(got["k"]) == ["a", "b"]
    assert list(got["v"]) == ["A", "B"]


def test_bucketed_lookup_join_semi_join_no_value_cols():
    left = pd.DataFrame({"k": ["a", "b", "c", "a"], "x": [1, 2, 3, 4]})
    right = pd.DataFrame({"k": ["a", "c"]})
    got = (
        bucketed_lookup_join(rd.from_pandas(left), rd.from_pandas(right), "k", "k", [])
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    assert list(got["x"]) == [1, 3, 4]
    assert list(got.columns) == ["k", "x"]


def test_assemble_pairs_shuffle_path_matches_broadcast():
    from dedupe_ray.scoring import assemble_pairs

    records = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(20)],
            "name": [f"n{i % 7}" for i in range(20)],
            "city": [f"c{i % 3}" for i in range(20)],
        }
    )
    pairs = pd.DataFrame(
        {
            "id_a": [f"d{i}" for i in range(0, 18, 2)],
            "id_b": [f"d{i + 1}" for i in range(0, 18, 2)],
        }
    )
    flat = rd.from_pandas(records)
    broadcast = (
        assemble_pairs(rd.from_pandas(pairs), flat, ["name", "city"])
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    shuffled = (
        assemble_pairs(rd.from_pandas(pairs), flat, ["name", "city"], broadcast_limit=0)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)[list(broadcast.columns)]
    )
    pd.testing.assert_frame_equal(broadcast, shuffled, check_dtype=False)


def test_cluster_edges_distributed_annotate_matches_driver():
    """Both CC paths give identical membership and confidences, including
    on a component over max_component_size (a 50-leaf weak star beside a
    strong pair), which both paths split the same way before HAC."""
    from dedupe_ray.clustering import cluster_edges

    def edges_ds(edges, scores):
        a, b = zip(*edges)
        return rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array(a, pa.string()),
                    "id_b": pa.array(b, pa.string()),
                    "score": pa.array(np.asarray(scores, np.float32)),
                }
            )
        )

    def groups(df):
        out = {}
        for cid, g in df.groupby("cluster_id"):
            out[tuple(sorted(g["doc_id"]))] = dict(
                zip(g["doc_id"], g["confidence_score"].round(5))
            )
        return out

    small = (
        [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g"), ("g", "h"), ("h", "f")],
        [0.9, 0.8, 0.95, 0.7, 0.85, 0.75],
        {},
    )
    star = (
        [("hub", f"s{i:02d}") for i in range(50)] + [("p1", "p2")],
        [0.55] * 50 + [0.99],
        {"max_component_size": 10},
    )
    for edges, scores, kw in (small, star):
        ds = edges_ds(edges, scores)
        drv = groups(cluster_edges(ds, threshold=0.5, cc_mode="driver", **kw).to_pandas())
        # driver_edge_limit=0 forces the distributed CC + bucketed annotate join
        dst = groups(cluster_edges(ds, threshold=0.5, driver_edge_limit=0, **kw).to_pandas())
        assert drv == dst


def test_join_inputs_run_their_upstream_once(tmp_path):
    """Each join input's upstream plan runs once: the join reads no schema
    from a lazy input (which would execute its plan an extra time)."""
    import os
    import uuid

    import pyarrow.compute as pc

    def counted(side):
        def fn(batch: pa.Table) -> pa.Table:
            open(os.path.join(tmp_path, f"{side}-{uuid.uuid4().hex}"), "w").close()
            return batch

        return fn

    def calls(side):
        return sum(name.startswith(side) for name in os.listdir(tmp_path))

    left = (
        rd.range(800, override_num_blocks=8)
        .map_batches(counted("left"), batch_format="pyarrow", batch_size=None)
        .groupby("id")
        .map_groups(
            lambda g: g.append_column("k", pc.cast(g.column("id"), pa.string())),
            batch_format="pyarrow",
        )
    )
    right = (
        rd.range(800, override_num_blocks=4)
        .map_batches(counted("right"), batch_format="pyarrow", batch_size=None)
        .map_batches(
            lambda t: pa.table(
                {"k": pc.cast(t.column("id"), pa.string()), "v": t.column("id")}
            ),
            batch_format="pyarrow",
        )
    )
    out = bucketed_lookup_join(left, right, "k", "k", ["v"]).to_pandas()
    assert len(out) == 800 and (out["id"] == out["v"]).all()
    assert (calls("left"), calls("right")) == (8, 4)


def test_no_ray_hash_join_in_library():
    """Dataset.join must not reappear inside dedupe_ray (landmine: stalls
    on empty hash partitions). join_type= only occurs at Dataset.join call
    sites."""
    root = pathlib.Path(__file__).resolve().parent.parent / "dedupe_ray"
    offenders = [str(p) for p in root.rglob("*.py") if "join_type=" in p.read_text()]
    assert offenders == []


def _naive_asof(left, right, key, lts, rts, vcols):
    """Per-left-row scan oracle: greatest right ts <= left ts, same key."""
    out = []
    for _, lrow in left.iterrows():
        cand = right[(right[key] == lrow[key]) & (right[rts] <= lrow[lts])]
        if len(cand):
            best = cand.sort_values(rts).iloc[-1]
            rec = dict(lrow)
            for c in vcols:
                rec[c] = best[c]
            out.append(rec)
    return pd.DataFrame(out)


def test_bucketed_asof_join_matches_naive():
    from dedupe_ray.joins import bucketed_asof_join

    rng = np.random.default_rng(11)
    base = pd.Timestamp("2024-01-01")
    left = pd.DataFrame(
        {
            "k": [f"u{i}" for i in rng.integers(0, 12, 200)],
            "ts": base + pd.to_timedelta(rng.integers(0, 10_000, 200), unit="s"),
            "x": np.arange(200),
        }
    )
    # unique (key, ts) right side; includes keys absent from left and a key
    # ("u0") whose rows all come AFTER every left row (never matches)
    rts = base + pd.to_timedelta(np.arange(0, 9_000, 37), unit="s")
    right = pd.DataFrame(
        {
            "rk": [f"u{i % 15}" for i in range(len(rts))],
            "rts": rts,
            "v": np.arange(len(rts)) * 10,
        }
    )
    right.loc[right.rk == "u0", "rts"] += pd.Timedelta(days=30)
    right = right.drop_duplicates(["rk", "rts"])
    # exact-tie case: one left row ts equals a right row ts (inclusive match)
    left.loc[0, "k"] = "u1"
    left.loc[0, "ts"] = right[right.rk == "u1"].iloc[0]["rts"]

    got = (
        bucketed_asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            "k", "rk", "ts", "rts", ["v"], n_buckets=8,
        )
        .to_pandas()
        .sort_values(["k", "ts", "x"])
        .reset_index(drop=True)
    )
    want = (
        _naive_asof(left, right.rename(columns={"rk": "k"}), "k", "ts", "rts", ["v"])
        .sort_values(["k", "ts", "x"])
        .reset_index(drop=True)[got.columns]
    )
    pd.testing.assert_frame_equal(got, want)
    # the exact-tie row matched inclusively
    assert (got["x"] == 0).any()


def test_bucketed_asof_join_empty_sides():
    from dedupe_ray.joins import bucketed_asof_join

    left = pd.DataFrame({"k": ["a"], "ts": [pd.Timestamp("2024-01-01")], "x": [1]})
    right = pd.DataFrame(
        {"rk": ["b"], "rts": [pd.Timestamp("2023-01-01")], "v": [5]}
    )
    got = bucketed_asof_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "rk", "ts", "rts", ["v"],
        n_buckets=4,
    ).to_pandas()
    assert len(got) == 0  # no shared key → inner join drops everything


def test_bucketed_range_join_matches_naive():
    from dedupe_ray.joins import bucketed_range_join

    rng = np.random.default_rng(23)
    base = pd.Timestamp("2024-01-01")
    left = pd.DataFrame(
        {
            "k": [f"u{i}" for i in rng.integers(0, 10, 120)],
            "ts": base + pd.to_timedelta(rng.integers(0, 5_000, 120), unit="s"),
            "x": np.arange(120),
        }
    )
    right = pd.DataFrame(
        {
            "rk": [f"u{i % 13}" for i in range(400)],
            "rts": base + pd.to_timedelta(rng.integers(0, 5_000, 400), unit="s"),
            "v": np.arange(400),
        }
    )
    lo, hi = np.timedelta64(-600, "s"), np.timedelta64(300, "s")
    got = (
        bucketed_range_join(
            rd.from_pandas(left), rd.from_pandas(right),
            "k", "rk", "ts", "rts", ["v"], lo, hi, n_buckets=8,
        )
        .to_pandas()
        .sort_values(["x", "v"])
        .reset_index(drop=True)
    )
    rows = []
    for _, l in left.iterrows():
        cand = right[
            (right.rk == l.k)
            & (right.rts >= l.ts + lo)
            & (right.rts <= l.ts + hi)
        ]
        for _, r in cand.iterrows():
            rows.append({"k": l.k, "ts": l.ts, "x": l.x, "v": r.v})
    want = (
        pd.DataFrame(rows)
        .sort_values(["x", "v"])
        .reset_index(drop=True)[got.columns]
    )
    assert len(got) == len(want) and len(got) > 0
    pd.testing.assert_frame_equal(got, want)


def test_range_match_counts_boundaries_inclusive():
    from dedupe_ray.joins import range_match_counts

    r_codes = np.array([0, 0, 0, 1])
    r_ts = np.array([10, 20, 30, 20])
    # query [10, 30] on key 0 includes both endpoints; key 1 separate
    r_order, lo, cnt = range_match_counts(
        np.array([0, 1]), np.array([10, 0]), np.array([30, 100]), r_codes, r_ts
    )
    assert cnt.tolist() == [3, 1]
    got0 = sorted(r_order[lo[0] : lo[0] + cnt[0]].tolist())
    assert got0 == [0, 1, 2]
    assert r_order[lo[1] : lo[1] + cnt[1]].tolist() == [3]


def test_bucketed_left_join(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.joins import bucketed_lookup_join

    left = rd.from_arrow(
        pa.table({"k": [1, 2, 3, 4], "x": ["a", "b", "c", "d"]})
    )
    right = rd.from_arrow(pa.table({"rk": [2, 4], "v": [20, 40]}))
    out = (
        bucketed_lookup_join(left, right, "k", "rk", ["v"], how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["v"].tolist()[1] == 20 and out["v"].tolist()[3] == 40
    assert pd.isna(out["v"][0]) and pd.isna(out["v"][2])
    # inner still drops misses
    inner = bucketed_lookup_join(left, right, "k", "rk", ["v"]).to_pandas()
    assert sorted(inner["k"]) == [2, 4]
    import pytest

    with pytest.raises(ValueError, match="how must be"):
        bucketed_lookup_join(left, right, "k", "rk", ["v"], how="cross")


def test_bucketed_lookup_join_full_outer(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.joins import bucketed_lookup_join

    left = rd.from_arrow(
        pa.table({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
    )
    right = rd.from_arrow(pa.table({"rk": [3, 4, 5, 6], "rv": [30, 40, 50, 60]}))
    out = (
        bucketed_lookup_join(left, right, "k", "rk", ["rv"], how="full")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    import pandas as pd

    assert out["k"].tolist() == [1, 2, 3, 4, 5, 6]
    assert out["rv"].isna().tolist() == [True, True, False, False, False, False]
    assert out.loc[2, "rv"] == 30 and out.loc[3, "rv"] == 40
    # right-only rows carry null left values except the key
    assert pd.isna(out.loc[4, "lv"]) and pd.isna(out.loc[5, "lv"])
    assert out.loc[4, "rv"] == 50 and out.loc[5, "rv"] == 60


def test_grid_proximity_self_join_brute_force(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.joins import grid_proximity_self_join

    rng = np.random.default_rng(11)
    n = 120
    ids = np.arange(n, dtype=np.int64)
    # mixed-sign coords + planted exact-radius pair (distance == r)
    x = rng.integers(-500, 500, n)
    y = rng.integers(-500, 500, n)
    x[0], y[0], x[1], y[1] = 0, 0, 60, 80  # dist 100 == radius exactly
    r = 100
    tbl = pa.table({"id": ids, "x": pa.array(x, pa.int64()),
                    "y": pa.array(y, pa.int64())})

    expect = set()
    for i in range(n):
        for j in range(i + 1, n):
            if (int(x[i] - x[j])) ** 2 + (int(y[i] - y[j])) ** 2 <= r * r:
                expect.add((i, j))
    assert (0, 1) in expect

    for parts in (1, 4):
        out = grid_proximity_self_join(
            rd.from_arrow(tbl).repartition(parts), "id", "x", "y", r
        ).to_pandas()
        got = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
        assert got == expect, parts


def test_lpm_join_longest_wins(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.joins import lpm_join

    prefixes = pa.table(
        {
            # 10.0.0.0/8, 10.1.0.0/16 (inside the /8), 0.0.0.0/0 default
            "prefix": pa.array(
                [10 << 24, (10 << 24) | (1 << 16), 0], pa.int64()
            ),
            "length": pa.array([8, 16, 0], pa.int64()),
            "label": ["ten", "ten-one", "default"],
        }
    )
    ips = pa.table(
        {
            "ip": pa.array(
                [
                    (10 << 24) | (1 << 16) | 5,  # matches /16 (longest)
                    (10 << 24) | (2 << 16) | 5,  # only the /8
                    (11 << 24) | 1,              # only the /0 default
                ],
                pa.int64(),
            )
        }
    )
    out = lpm_join(rd.from_arrow(ips), "ip", prefixes).to_pandas()
    assert out["label"].tolist() == ["ten-one", "ten", "default"]
    assert out["matched_len"].tolist() == [16, 8, 0]

    # duplicate (prefix, length) raises
    import pytest

    dup = pa.table(
        {
            "prefix": pa.array([10 << 24, 10 << 24], pa.int64()),
            "length": pa.array([8, 8], pa.int64()),
            "label": ["x", "y"],
        }
    )
    with pytest.raises(ValueError):
        lpm_join(rd.from_arrow(ips), "ip", dup)


def test_asof_join_tolerance_and_keep_unmatched(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.joins import bucketed_asof_join

    left = rd.from_arrow(
        pa.table(
            {
                "k": ["a", "a", "a", "b"],
                "t": pa.array([10, 50, 100, 7], pa.int64()),
                "lid": pa.array([0, 1, 2, 3], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "k": ["a", "a"],
                "t": pa.array([8, 40], pa.int64()),
                "v": ["x", "y"],
            }
        )
    )
    # tolerance 15: lid0 matches t=8 (gap 2); lid1 matches t=40 (gap 10);
    # lid2's best candidate t=40 is 60 behind -> out of tolerance -> null;
    # key b has no right rows -> null
    out = (
        bucketed_asof_join(
            left, right, "k", "k", "t", "t", ["v"],
            tolerance=15, keep_unmatched=True,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert out["v"].tolist() == ["x", "y", None, None]
    # inner semantics with the same tolerance drops the unmatched rows
    inner = bucketed_asof_join(
        left, right, "k", "k", "t", "t", ["v"], tolerance=15
    ).to_pandas()
    assert sorted(inner["lid"]) == [0, 1]
