"""Bucketed distributed equi-join primitive.

Ray Data's hash join (``Dataset.join``) stalls on empty hash partitions at
small scale (NOTES_r2/r3 landmine), so joins on tested paths are expressed
as ONE bucketed shuffle instead: tag each side with
``bucket = siphash(key) % n_buckets``, union the sides (schemas
null-padded to match), ``groupby(bucket)``, and resolve each bucket with a
vectorized ``pyarrow.compute.index_in``. The group count is bounded by
``n_buckets`` regardless of key cardinality, so the exchange behaves like
a hash join without per-key groups; hot keys spread only as far as their
bucket, which is acceptable for lookup-style right sides (unique keys ⇒
bucket payload is bounded by the key distribution of the LEFT side).
The lookup, range and as-of joins share that skeleton
(:func:`_bucketed_join`) and differ only in how a bucket is resolved.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_BKT = "__jbkt"
_SIDE = "__jside"


def _bucket_col(col: pa.ChunkedArray, n_buckets: int) -> pa.Array:
    vals = col.to_numpy(zero_copy_only=False)
    return pa.array((pd.util.hash_array(vals) % n_buckets).astype(np.int32))


def _pa_type(t) -> pa.DataType:
    """Ray's Schema.types mixes pyarrow DataTypes (arrow blocks) with numpy
    dtypes / ``object`` (pandas blocks); normalize to pyarrow. ``object``
    columns are treated as strings (the only object payload in this repo)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()


def _bucketed_join(
    left_ds: "ray.data.Dataset",
    right_ds: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    right_value_cols: list[str],
    n_buckets: int,
    resolve: Callable[[pa.Table, pa.Table], pa.Table],
    ts: tuple[str, str] | None = None,
) -> "ray.data.Dataset":
    """The shared join skeleton. Every row of both sides is padded to the
    output schema (left columns, then ``right_value_cols``) with typed
    nulls; right rows carry their key, and with ``ts=(left_ts, right_ts)``
    their timestamp, under the LEFT column names, cast to the left types.
    The sides are tagged with a key-hash bucket, unioned and grouped by
    bucket, and ``resolve(left_rows, right_rows)`` turns each bucket's two
    output-schema tables into output rows. With ``ts``, rows whose key or
    timestamp is null are dropped (they never match).

    Both inputs are materialized first: reading the schema of a lazy
    Dataset starts a ``limit=1`` execution of its whole upstream plan
    (which the join then runs again), while on a materialized one it is a
    metadata read."""
    left_ds = left_ds.materialize()
    right_ds = right_ds.materialize()
    left_schema = left_ds.schema()
    left_names = list(left_schema.names)
    left_types = {n: _pa_type(t) for n, t in zip(left_schema.names, left_schema.types)}
    right_schema = right_ds.schema()
    right_types = {n: _pa_type(t) for n, t in zip(right_schema.names, right_schema.types)}
    overlap = set(right_value_cols) & set(left_names)
    if overlap:
        raise ValueError(f"right_value_cols collide with left columns: {sorted(overlap)}")
    out_names = left_names + list(right_value_cols)
    # left column → the right column whose values right rows carry in it
    carried = {left_key: right_key, **({ts[0]: ts[1]} if ts else {})}

    def valid(t: pa.Table, key: str, side: int) -> pa.Table:
        if ts is None:
            return t
        return t.filter(pc.and_(pc.is_valid(t.column(key)), pc.is_valid(t.column(ts[side]))))

    def tagged(data: dict, is_right: bool) -> pa.Table:
        key = data[left_key]
        data[_BKT] = _bucket_col(key, n_buckets)
        data[_SIDE] = pa.array(np.full(len(key), is_right))
        return pa.table(data)

    def tag_left(t: pa.Table) -> pa.Table:
        t = valid(t, left_key, 0)
        data = {n: t.column(n) for n in left_names}
        for c in right_value_cols:
            data[c] = pa.nulls(len(t), right_types[c])
        return tagged(data, False)

    def tag_right(t: pa.Table) -> pa.Table:
        t = valid(t, right_key, 1)
        data = {
            n: pc.cast(t.column(carried[n]), left_types[n])
            if n in carried
            else pa.nulls(len(t), left_types[n])
            for n in left_names
        }
        for c in right_value_cols:
            data[c] = t.column(c)
        return tagged(data, True)

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t.column(_SIDE).to_numpy(zero_copy_only=False)
        t = t.select(out_names)
        return resolve(t.filter(pa.array(~side)), t.filter(pa.array(side)))

    both = left_ds.map_batches(tag_left, batch_format="pyarrow").union(
        right_ds.map_batches(tag_right, batch_format="pyarrow")
    )
    return both.groupby(_BKT).map_groups(per_bucket, batch_format="pyarrow")


def _take_right(rows: pa.Table, rhs: pa.Table, idx, cols: list[str]) -> pa.Table:
    """``rows`` with each right-value column in ``cols`` replaced by
    ``rhs[c]`` taken at ``idx`` (a null index yields null)."""
    for c in cols:
        rows = rows.set_column(rows.schema.get_field_index(c), c, pc.take(rhs.column(c), idx))
    return rows


def _key_codes(lhs: pa.Table, rhs: pa.Table, key: str) -> np.ndarray:
    """Grouping-only integer codes of ``key`` over left rows then right rows."""
    keys = np.concatenate(
        [
            lhs.column(key).to_numpy(zero_copy_only=False),
            rhs.column(key).to_numpy(zero_copy_only=False),
        ]
    )
    return pd.factorize(keys)[0]


def bucketed_lookup_join(
    left_ds: "ray.data.Dataset",
    right_ds: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    right_value_cols: list[str],
    n_buckets: int = 256,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Distributed equi-join against a UNIQUE-keyed lookup side.

    Every left column is kept and ``right_value_cols`` are appended; with
    ``how="inner"`` left rows with no right match are dropped, with
    ``how="left"`` they survive with NULL right values (SQL LEFT OUTER
    JOIN against a unique key), and with ``how="full"`` unmatched RIGHT
    keys additionally surface as rows whose left columns are NULL except
    the key (SQL FULL OUTER JOIN with ``COALESCE(l.key, r.key)`` as the
    key). The right side's keys must be unique (records by doc_id,
    node→component, …) — with duplicate right keys the first occurrence
    wins (``index_in`` semantics); rows are never multiplied.
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"how must be 'inner', 'left' or 'full', got {how!r}")

    def resolve(lhs: pa.Table, rhs: pa.Table) -> pa.Table:
        if len(lhs) == 0:
            return rhs if how == "full" else lhs
        if len(rhs) == 0:
            # left rows already carry typed nulls for the right columns
            return lhs.slice(0, 0) if how == "inner" else lhs
        idx = pc.index_in(lhs.column(left_key), value_set=rhs.column(left_key).combine_chunks())
        if how == "inner":
            hit = pc.is_valid(idx)
            return _take_right(lhs.filter(hit), rhs, idx.filter(hit), right_value_cols)
        # take with a null index yields null — misses stay NULL
        out = _take_right(lhs, rhs, idx, right_value_cols)
        if how == "left":
            return out
        # full: append right rows whose key matched no left row
        ridx = pc.index_in(rhs.column(left_key), value_set=lhs.column(left_key).combine_chunks())
        return pa.concat_tables([out, rhs.filter(pc.is_null(ridx))])

    return _bucketed_join(
        left_ds, right_ds, left_key, right_key, right_value_cols, n_buckets, resolve
    )


def range_match_counts(
    l_codes: np.ndarray,
    l_lo: np.ndarray,
    l_hi: np.ndarray,
    r_codes: np.ndarray,
    r_ts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-key interval probe: for each left row i, the slice
    [lo_idx[i], lo_idx[i]+counts[i]) of the RETURNED right sort order
    contains exactly the right rows with r_code == l_codes[i] and
    l_lo[i] <= r_ts <= l_hi[i] (closed interval).

    Returns (r_order, lo_idx, counts). Implementation: one lexsort of the
    union of right rows and two boundary markers per left row on
    (code, ts, tier) with tier lo-marker < right-row < hi-marker, then a
    cumulative count of right rows positions every boundary — the standard
    merge trick, no per-key loop.
    """
    n_l, n_r = len(l_codes), len(r_codes)
    codes = np.concatenate([r_codes, l_codes, l_codes])
    ts = np.concatenate([r_ts, l_lo, l_hi])
    tier = np.concatenate(
        [np.ones(n_r, np.int8), np.zeros(n_l, np.int8), np.full(n_l, 2, np.int8)]
    )
    order = np.lexsort((tier, ts, codes))
    is_right = order < n_r
    cum_right = np.cumsum(is_right)
    # sorted position → count of right rows at-or-before it
    marker_count = cum_right[np.argsort(order, kind="stable")]
    lo_idx = marker_count[n_r : n_r + n_l] - 0  # lo marker sorts before peers
    hi_idx = marker_count[n_r + n_l :]  # hi marker sorts after peers
    # lo marker's own cum includes only right rows strictly before it;
    # clip guards an inverted interval (lower > upper) from negative counts
    counts = np.maximum(hi_idx - lo_idx, 0)
    r_order = order[is_right]  # right original indices in (code, ts) order
    return r_order, lo_idx, counts


def bucketed_range_join(
    left_ds: "ray.data.Dataset",
    right_ds: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_value_cols: list[str],
    lower_offset,
    upper_offset,
    n_buckets: int = 256,
) -> "ray.data.Dataset":
    """Distributed inner range join: emit one row per (left, right) pair
    with equal keys and ``left_ts + lower_offset <= right_ts <=
    left_ts + upper_offset`` (closed interval; offsets are
    ``np.timedelta64``-compatible for timestamp columns, plain numbers for
    numeric ones). Row-multiplying — the SQL
    ``JOIN ... ON l.k = r.k AND r.ts BETWEEN l.ts + lo AND l.ts + hi``.

    Same single-shuffle bucketed shape as the other joins here; per bucket
    the probe is :func:`range_match_counts` + a repeat/cumsum expansion
    (the candidate-pair emission trick), all numpy.
    """

    def resolve(lhs: pa.Table, rhs: pa.Table) -> pa.Table:
        n_l = len(lhs)
        if n_l == 0 or len(rhs) == 0:
            return lhs.slice(0, 0)
        codes = _key_codes(lhs, rhs, left_key)
        l_ts = lhs.column(left_ts).to_numpy(zero_copy_only=False)
        r_ts = rhs.column(left_ts).to_numpy(zero_copy_only=False)
        r_order, lo_idx, counts = range_match_counts(
            codes[:n_l], l_ts + lower_offset, l_ts + upper_offset, codes[n_l:], r_ts
        )
        total = int(counts.sum())
        if total == 0:
            return lhs.slice(0, 0)
        a_idx = np.repeat(np.arange(n_l), counts)
        cum = np.concatenate(([0], np.cumsum(counts)))[:-1]
        off = np.arange(total, dtype=np.int64) - np.repeat(cum, counts)
        b_idx = r_order[np.repeat(lo_idx, counts) + off]
        return _take_right(
            lhs.take(pa.array(a_idx)), rhs, pa.array(b_idx), right_value_cols
        )

    return _bucketed_join(
        left_ds, right_ds, left_key, right_key, right_value_cols, n_buckets, resolve,
        ts=(left_ts, right_ts),
    )


def bucketed_asof_join(
    left_ds: "ray.data.Dataset",
    right_ds: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_value_cols: list[str],
    n_buckets: int = 256,
    tolerance: int | None = None,
    keep_unmatched: bool = False,
) -> "ray.data.Dataset":
    """Distributed inner as-of join: each left row matches the right row
    with the same key and the GREATEST right_ts ≤ left_ts (inclusive
    backward match — DuckDB ``ASOF JOIN ... ON l.k = r.k AND l.ts >= r.ts``
    semantics). Left rows with no candidate are dropped unless
    ``keep_unmatched`` (LEFT semantics: null right columns). With
    ``tolerance`` the match must also satisfy ``left_ts − right_ts ≤
    tolerance`` (the attribution-lookback / staleness bound); both ts
    columns must then be INTEGER (epoch units) so the bound is exact.

    Same single-shuffle shape as :func:`bucketed_lookup_join` — key-hash
    buckets bound the group count at any key cardinality. Per bucket the
    match is fully vectorized: one lexsort of both sides on
    (key, ts, side) with right rows ordered before left at equal ts, then
    a key-bounded forward-fill of the last-seen right row index
    (maximum.accumulate with run-start reset) — the standard
    merge-as-of scan, O(n log n) per bucket with no per-key loop.

    Deterministic output requires UNIQUE (key, ts) on the right side
    (pre-aggregate duplicates first); with duplicates the winner depends
    on partition order. Null keys/timestamps never match.
    """

    def resolve(lhs: pa.Table, rhs: pa.Table) -> pa.Table:
        n_l, n_r = len(lhs), len(rhs)
        if n_l == 0:
            return lhs
        if n_r == 0:
            # left rows already carry typed nulls for the right columns
            return lhs if keep_unmatched else lhs.slice(0, 0)
        codes = _key_codes(lhs, rhs, left_key)
        ts = np.concatenate(
            [
                lhs.column(left_ts).to_numpy(zero_copy_only=False),
                rhs.column(left_ts).to_numpy(zero_copy_only=False),
            ]
        )
        n = n_l + n_r
        is_left = np.zeros(n, bool)
        is_left[:n_l] = True
        # right before left at equal ts → inclusive (l.ts >= r.ts) match
        order = np.lexsort((is_left, ts, codes))
        s_codes = codes[order]
        s_left = is_left[order]
        pos = np.arange(n, dtype=np.int64)
        # forward-fill the sorted position of the last right row...
        filled = np.maximum.accumulate(np.where(~s_left, pos, -1))
        # ...bounded to the current key run
        new_run = np.concatenate(([True], s_codes[1:] != s_codes[:-1]))
        run_start = np.maximum.accumulate(np.where(new_run, pos, -1))
        valid = filled >= run_start
        if tolerance is not None:
            s_ts = ts[order]
            has = filled >= 0
            ok_tol = np.zeros(n, bool)
            ok_tol[has] = (s_ts[has] - s_ts[filled[has]]) <= tolerance
            valid = valid & ok_tol
        # map matched sorted positions back to original row indices
        s_orig = np.concatenate([np.arange(n_l), np.arange(n_r)])[order]
        l_orig = s_orig[s_left]
        l_match = filled[s_left]
        l_valid = valid[s_left]
        if keep_unmatched:
            midx = np.zeros(len(l_orig), np.int64)
            midx[l_valid] = s_orig[l_match[l_valid]]
            idx = pa.array(midx, mask=~l_valid)  # null index -> null value
            return _take_right(lhs.take(pa.array(l_orig)), rhs, idx, right_value_cols)
        r_orig = s_orig[l_match[l_valid]]
        return _take_right(
            lhs.take(pa.array(l_orig[l_valid])), rhs, pa.array(r_orig), right_value_cols
        )

    return _bucketed_join(
        left_ds, right_ds, left_key, right_key, right_value_cols, n_buckets, resolve,
        ts=(left_ts, right_ts),
    )


def interval_overlap_self_join(
    ds: "ray.data.Dataset",
    id_col: str,
    start_col: str,
    end_col: str,
    cell: int,
    max_cell_rows: int = 100_000,
) -> "ray.data.Dataset":
    """Distributed interval-overlap SELF-join: all id pairs whose CLOSED
    integer intervals ``[start, end]`` intersect (``a.start <= b.end AND
    b.start <= a.end``), each pair exactly once with ``id_a < id_b`` —
    the ad-session / genomics overlap shape no equi-join expresses.

    Partitioning: every interval is replicated to the grid cells
    ``start // cell .. end // cell`` (replication factor ≈ interval
    length / cell + 1 — pick ``cell`` near the typical interval length).
    Any overlapping pair meets in the cell of its overlap start, and that
    cell — ``max(a.start, b.start) // cell`` — is the pair's unique
    OWNER, so cross-cell duplicates are dropped locally with no second
    dedup shuffle. Per cell the candidate set is the start-sorted triu
    (all earlier rows), filtered by the actual overlap and ownership
    tests in one vectorized pass; a cell over ``max_cell_rows`` raises —
    repartition with a smaller ``cell`` or pre-split hot ranges rather
    than silently OOMing."""
    import numpy as np

    if cell <= 0:
        raise ValueError("cell must be a positive integer grid size")

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column(start_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = t.column(end_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) and (e < s).any():
            raise ValueError("end < start interval")
        c0 = s // cell
        c1 = e // cell
        reps = (c1 - c0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s)), reps)
        offs = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        return pa.table(
            {
                "cell": pa.array(c0[idx] + offs),
                "iid": pa.array(ids[idx]),
                "s": pa.array(s[idx]),
                "e": pa.array(e[idx]),
            }
        )

    def per_cell(g: pa.Table) -> pa.Table:
        n = len(g)
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        if n > max_cell_rows:
            raise ValueError(
                f"interval_overlap_self_join: cell with {n} intervals exceeds "
                f"max_cell_rows={max_cell_rows}; use a smaller `cell`"
            )
        cell_id = int(g.column("cell")[0].as_py())
        order = np.lexsort(
            (
                g.column("iid").to_numpy(zero_copy_only=False),
                g.column("s").to_numpy(zero_copy_only=False),
            )
        )
        s = g.column("s").to_numpy(zero_copy_only=False)[order].astype(np.int64)
        e = g.column("e").to_numpy(zero_copy_only=False)[order].astype(np.int64)
        ids = g.column("iid").to_numpy(zero_copy_only=False)[order].astype(np.int64)
        iu, ju = np.triu_indices(n, k=1)
        ov = (s[ju] <= e[iu]) & (s[iu] <= e[ju])  # iu earlier (s sorted)
        own = np.maximum(s[iu], s[ju]) // cell == cell_id
        keep = ov & own
        a = ids[iu[keep]]
        b = ids[ju[keep]]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        self_pair = lo == hi
        return pa.table(
            {
                "id_a": pa.array(lo[~self_pair]),
                "id_b": pa.array(hi[~self_pair]),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return exploded.groupby("cell").map_groups(per_cell, batch_format="pyarrow")


def grid_proximity_self_join(
    ds: "ray.data.Dataset",
    id_col: str,
    x_col: str,
    y_col: str,
    radius: int,
    max_cell_rows: int = 100_000,
) -> "ray.data.Dataset":
    """Distributed 2-D proximity SELF-join: all id pairs within Euclidean
    distance ``radius`` on integer coordinates (micro-degrees, projected
    meters), each pair exactly once with ``id_a < id_b`` — the
    geo-blocking shape (nearby-store dedup, LatLong canopies) no
    equi-join expresses. The distance test is exact int64
    ``dx² + dy² <= radius²`` (no haversine float crosses a partition
    boundary; at city scale the planar test IS the blocking predicate,
    refine with :func:`dedupe_ray.distances.haversine_batch` downstream).

    Partitioning (:func:`interval_overlap_self_join`'s grid doctrine in
    2-D): with cell size = ``radius``, any qualifying pair has
    component-wise cell gap <= 1 (``|dx| <= radius < 2·radius``), so the
    pair's unique OWNER cell is ``(max(cx_a, cx_b), max(cy_a, cy_b))``
    and each point reaches every possible owner through its FOUR
    replicas ``(cx + a, cy + b), a, b ∈ {0, 1}`` — constant 4×
    replication, one shuffle, cross-cell duplicates dropped locally by
    the ownership test (no second dedup shuffle). Per cell the
    candidate set is the triu over at most 4-cell-neighborhood
    residents; a cell over ``max_cell_rows`` raises (pre-thin dense
    hotspots upstream) rather than silently OOMing."""
    import numpy as np

    if radius <= 0:
        raise ValueError("radius must be a positive integer")
    r2 = radius * radius

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cx = x // radius
        cy = y // radius
        n = len(ids)
        idx = np.repeat(np.arange(n), 4)
        a = np.tile(np.array([0, 0, 1, 1], np.int64), n)
        b = np.tile(np.array([0, 1, 0, 1], np.int64), n)
        # pack the 2-D cell into one shuffle key (coords bounded by
        # int64 // radius, shifted to non-negative interleave-free halves)
        cell = (cx[idx] + a) * np.int64(1 << 32) + (cy[idx] + b)
        return pa.table(
            {
                "cell": pa.array(cell),
                "pid": pa.array(ids[idx]),
                "px": pa.array(x[idx]),
                "py": pa.array(y[idx]),
            }
        )

    def per_cell(g: pa.Table) -> pa.Table:
        n = len(g)
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        if n > max_cell_rows:
            raise ValueError(
                f"grid_proximity_self_join: cell with {n} points exceeds "
                f"max_cell_rows={max_cell_rows}; pre-thin dense hotspots"
            )
        cell_id = int(g.column("cell")[0].as_py())
        ids = g.column("pid").to_numpy(zero_copy_only=False).astype(np.int64)
        x = g.column("px").to_numpy(zero_copy_only=False).astype(np.int64)
        y = g.column("py").to_numpy(zero_copy_only=False).astype(np.int64)
        iu, ju = np.triu_indices(n, k=1)
        dx = x[iu] - x[ju]
        dy = y[iu] - y[ju]
        near = dx * dx + dy * dy <= r2
        own_cell = (
            np.maximum(x[iu] // radius, x[ju] // radius) * np.int64(1 << 32)
            + np.maximum(y[iu] // radius, y[ju] // radius)
        )
        keep = near & (own_cell == cell_id) & (ids[iu] != ids[ju])
        a = ids[iu[keep]]
        b = ids[ju[keep]]
        return pa.table(
            {
                "id_a": pa.array(np.minimum(a, b)),
                "id_b": pa.array(np.maximum(a, b)),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return exploded.groupby("cell").map_groups(per_cell, batch_format="pyarrow")


def lpm_join(
    ds: "ray.data.Dataset",
    ip_column: str,
    prefix_table: pa.Table,
    out_label: str = "label",
    out_len: str = "matched_len",
) -> "ray.data.Dataset":
    """Longest-prefix-match lookup join (the routing-table / GeoIP /
    firewall-classification shape no equi-join expresses): each integer
    IPv4 value matches the table row whose ``(prefix, length)`` covers
    it with the LONGEST length; non-matching rows keep NULLs. The
    prefix table is the canonical broadcast-small-side case: grouped by
    length into at most 33 hash sets once per task, each batch resolves
    with one vectorized membership test per distinct length, longest
    first with an already-matched mask — zero shuffle, O(lengths) passes.
    Prefix rows must be exact (``prefix`` pre-masked to its length;
    duplicate (prefix, length) rows raise)."""
    import numpy as np

    import numpy as _np

    by_len: dict[int, tuple] = {}
    groups: dict[int, list] = {}
    seen = set()
    for p, ln, lab in zip(
        prefix_table.column("prefix").to_pylist(),
        prefix_table.column("length").to_pylist(),
        prefix_table.column(out_label).to_pylist(),
    ):
        if not 0 <= ln <= 32:
            raise ValueError("prefix length must be in 0..32")
        key = int(p) >> (32 - ln) if ln else 0
        if (key, ln) in seen:
            raise ValueError(f"duplicate prefix ({p}, /{ln})")
        seen.add((key, ln))
        groups.setdefault(int(ln), []).append((key, lab))
    for ln, rows in groups.items():
        rows.sort()
        keys = _np.array([k for k, _ in rows], _np.int64)
        labs = _np.array([l for _, l in rows], object)
        by_len[ln] = (keys, labs)
    lens = sorted(by_len, reverse=True)

    def lookup(b: pa.Table) -> pa.Table:
        ip = b.column(ip_column).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ip)
        lab = np.full(n, None, object)
        mlen = np.full(n, -1, np.int64)
        done = np.zeros(n, bool)
        for ln in lens:
            keys, labs = by_len[ln]
            shifted = (ip >> (32 - ln)) if ln else np.zeros(n, np.int64)
            pos = np.searchsorted(keys, shifted)
            pos_c = np.minimum(pos, len(keys) - 1)
            hit = (keys[pos_c] == shifted) & ~done
            lab[hit] = labs[pos_c[hit]]
            mlen[hit] = ln
            done |= hit
        out = b.append_column(out_label, pa.array(lab, pa.string()))
        return out.append_column(
            out_len,
            pa.array([None if m < 0 else int(m) for m in mlen], pa.int64()),
        )

    return ds.map_batches(lookup, batch_format="pyarrow")
