"""Blocking: predicate key explode → groupby(block_key) → candidate pairs.

Re-creates the reference Fingerprinter + pair generation ([lib:
dedupe/blocking.py Fingerprinter; dedupe/api.py pairs()], driven inside
``partition`` at backend/dedupe_script.py:360) as two Ray Data shuffles:

1. ``map_batches(explode)`` → rows ``(block_key, doc_id)`` — stateless, the
   predicate list is baked into the stage closure (broadcast via task spec).
2. ``groupby("block_key")`` → per-block C(n,2) pair emission (shuffle #1),
   then ``groupby(["id_a","id_b"])`` pair dedup (shuffle #2).

Scale/skew handling (no reference equivalent — it is single-process):
- Per-value key caching inside the explode stage (low-cardinality columns like
  Country hit the cache, not the regex).
- Blocks larger than ``max_block_size`` emit no pairs and are counted in an
  ``oversized`` side-channel: a key shared by thousands of records carries no
  discriminative signal, and emitting its O(n²) pairs is the classic blocking
  skew bomb. The block learner's cost term already steers away from such
  predicates; the cap is the hard backstop. The dropped-block count is
  reported so recall loss is never silent.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pyarrow as pa

import ray.data

from dedupe_ray.config import MISSING
from dedupe_ray.predicates import Predicate


# Bucketed-groupby fan-in: grouping by the raw key (block_key, pair) would
# call a python fn once per tiny group — per-call overhead dominates at
# millions of groups. Instead rows carry `bucket = crc32(key) % N_BUCKETS`,
# the shuffle groups by bucket (N_BUCKETS groups total), and the per-bucket
# fn processes all contained keys vectorized. Same exchange volume, ~100×
# less per-group overhead; N_BUCKETS bounds reducer fan-in at any scale.
N_BUCKETS = 1024


# --- vectorized per-family key kernels --------------------------------------
#
# The explode stage is the hottest stage of the flagship at scale: every
# record × every learned predicate. The whole/prefix/token families are pure
# Arrow kernels (zero Python per row); everything else goes through a
# dictionary-encode fallback (the predicate fn runs once per UNIQUE value,
# numpy expands to rows). Key STRINGS are byte-identical to the scalar
# ``Predicate.keys`` path (asserted by tests vs ``brute_force_pairs``).
# Values are ASCII by the preprocess contract, so RE2's ASCII ``\w`` agrees
# with Python's unicode ``\w`` here.

_VEC_REGEX = {
    "tok1": r"^(?P<k>[\w']+)",
    "tok2": r"^(?P<k>[\w']+\s+[\w']+)",
    "firstint": r"^(?P<k>[0-9]+)",
}
_VEC_START = {"start3": 3, "start5": 5, "start7": 7}

_EMPTY_KEYS = (pa.array([], pa.string()), np.zeros(0, np.int64))


def _valid_values(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """null / "" / MISSING → "" (emits no keys); returns a plain Array."""
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not pa.types.is_string(arr.type) and not pa.types.is_large_string(arr.type):
        arr = pc.cast(arr, pa.string())
    arr = pc.fill_null(arr, "")
    out = pc.if_else(pc.equal(arr, MISSING), "", arr)
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def _keys_single(name: str, arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Families emitting ≤1 key per row, fully Arrow."""
    import pyarrow.compute as pc

    if name == "whole":
        keys = arr
    elif name in _VEC_START:
        s = pc.replace_substring_regex(arr, r"\s+", "")
        keys = pc.utf8_slice_codeunits(s, 0, _VEC_START[name])
    else:
        ex = pc.extract_regex(arr, _VEC_REGEX[name])
        keys = pc.fill_null(pc.struct_field(ex, "k"), "")
    mask = pc.not_equal(keys, "")
    rows = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
    return keys.filter(mask), rows


def _keys_token(arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """token family: every [\\w']+ token is a key (multi-key per row).
    Within-row duplicate tokens are emitted as-is — every consumer dedups at
    the (key, doc) or pair level, and skipping the per-row set() keeps this
    a pure Arrow kernel."""
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(arr, r"[^\w']+")
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    flat = toks.flatten()
    rows = np.repeat(np.arange(len(arr), dtype=np.int64), np.diff(offsets))
    mask = pc.not_equal(flat, "")
    keep = mask.to_numpy(zero_copy_only=False)
    return flat.filter(mask), rows[keep]


def _keys_fallback(fn, arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """Python fn per UNIQUE value (dictionary-encode), numpy row expansion."""
    import pyarrow.compute as pc

    enc = pc.dictionary_encode(arr)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = enc.dictionary.to_pylist()
    keys_u = [fn(u) if u else () for u in uniq]
    cnt_u = np.fromiter((len(k) for k in keys_u), np.int64, len(keys_u))
    if not cnt_u.any():
        return _EMPTY_KEYS
    flat_u = np.array([k for ks in keys_u for k in ks], dtype=object)
    off_u = np.concatenate(([0], np.cumsum(cnt_u)))[:-1]
    c = cnt_u[idx]
    total = int(c.sum())
    if total == 0:
        return _EMPTY_KEYS
    starts = np.repeat(np.concatenate(([0], np.cumsum(c)))[:-1], c)
    within = np.arange(total, dtype=np.int64) - starts
    out_idx = np.repeat(off_u[idx], c) + within
    rows = np.repeat(np.arange(len(arr), dtype=np.int64), c)
    return pa.array(flat_u[out_idx], pa.string()), rows


def _combine_parts(
    a: tuple[pa.Array, np.ndarray], b: tuple[pa.Array, np.ndarray], n_rows: int
) -> tuple[pa.Array, np.ndarray]:
    """Per-row cartesian product of two key sets, joined with ':' —
    the CompoundPredicate conjunction, fully vectorized."""
    import pyarrow.compute as pc

    flat_a, rows_a = a
    flat_b, rows_b = b
    if len(flat_a) == 0 or len(flat_b) == 0:
        return _EMPTY_KEYS
    c_a = np.bincount(rows_a, minlength=n_rows)
    c_b = np.bincount(rows_b, minlength=n_rows)
    c = c_a * c_b
    total = int(c.sum())
    if total == 0:
        return _EMPTY_KEYS
    off_a = np.concatenate(([0], np.cumsum(c_a)))[:-1]
    off_b = np.concatenate(([0], np.cumsum(c_b)))[:-1]
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), c)
    starts = np.repeat(np.concatenate(([0], np.cumsum(c)))[:-1], c)
    within = np.arange(total, dtype=np.int64) - starts
    cb_out = np.repeat(c_b, c)
    a_idx = np.repeat(off_a, c) + within // cb_out
    b_idx = np.repeat(off_b, c) + within % cb_out
    keys = pc.binary_join_element_wise(
        pc.take(flat_a, pa.array(a_idx)), pc.take(flat_b, pa.array(b_idx)), ":"
    )
    return keys, rows


def make_block_explode_stage(
    predicate_ids: list[str],
    with_bucket: bool = False,
    index_tables: dict | None = None,
    key_hash: bool = False,
):
    """Stateless map_batches fn: flat record batch → (block_key, doc_id) rows.

    ``block_key`` is namespaced with the predicate index so identical raw keys
    from different predicates never collide. Index predicates
    (``canopy4|<field>``) are reconstructed from ``index_tables`` —
    {pid: {"field", "df", "n_docs"}} — the broadcast train-time DF state.

    ``key_hash=True`` (requires ``with_bucket``) replaces the key string
    with its fixed-key 64-bit siphash (``key_hash: uint64``) — blocking
    only needs key EQUALITY downstream, and the hash roughly halves the
    bytes through the pair-emission shuffle. A collision merges two blocks,
    which adds (benign, scored-then-rejected) candidate pairs and can never
    drop one; at 2⁶⁴ the expected collision count is ~0 below 10⁹ keys.

    Vectorized: whole/prefix/token families run as Arrow kernels, the rest
    once per unique value via dictionary encoding; compound conjunctions are
    a numpy cartesian expansion + one Arrow string join (see kernels above).
    """
    from dedupe_ray.predicates import (
        SIMPLE_PREDICATES,
        NGramCanopyPredicate,
        TfidfTokenCanopyPredicate,
    )

    # (pid, [(family_name_or_None, fallback_fn_or_None, field, piece_id), ...])
    # piece_id keys a per-batch memo: compound predicates reuse pieces
    # (e.g. six learned conjunctions sharing `2gfprint|Name 1`), and the
    # piece transforms dominate explode CPU — computing each distinct
    # piece once per batch cut the 800k explode stage ~2× (measured).
    plans: list[list[tuple[str | None, object, str, str]]] = []
    for p in predicate_ids:
        if p.startswith("lcanopy"):
            from dedupe_ray.predicates import LevenshteinCanopyPredicate

            t = (index_tables or {})[p]
            lp = LevenshteinCanopyPredicate(t["field"], t["values"], t["radius"])
            plans.append([(None, lp.keys_from_value, t["field"], p)])
            continue
        if p.startswith("canopy"):
            t = (index_tables or {})[p]
            cp = NGramCanopyPredicate(t["field"], t["df"], t["n_docs"])
            plans.append([(None, cp.keys_from_value, t["field"], p)])
            continue
        if p.startswith("tcanopy"):
            t = (index_tables or {})[p]
            tp = TfidfTokenCanopyPredicate(
                t["field"], t["df"], t["n_docs"], t["threshold"]
            )
            plans.append([(None, tp.keys_from_value, t["field"], p)])
            continue
        parts = []
        for piece in p.split("+"):
            name, field = piece.split("|", 1)
            if name == "whole" or name == "token" or name in _VEC_REGEX or name in _VEC_START:
                parts.append((name, None, field, piece))
            else:
                parts.append((None, SIMPLE_PREDICATES[name], field, piece))
        plans.append(parts)

    def _stage(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = len(batch)
        col_cache: dict[str, pa.Array] = {}

        def col(f: str) -> pa.Array:
            if f not in col_cache:
                col_cache[f] = _valid_values(batch.column(f))
            return col_cache[f]

        part_cache: dict[str, tuple[pa.Array, np.ndarray]] = {}

        def piece_keys(name, fb_fn, field, piece_id):
            if piece_id not in part_cache:
                if name == "token":
                    part = _keys_token(col(field))
                elif name is not None:
                    part = _keys_single(name, col(field))
                else:
                    part = _keys_fallback(fb_fn, col(field))
                part_cache[piece_id] = part
            return part_cache[piece_id]

        key_chunks: list[pa.Array] = []
        row_chunks: list[np.ndarray] = []
        for pi, parts in enumerate(plans):
            result: tuple[pa.Array, np.ndarray] | None = None
            for name, fb_fn, field, piece_id in parts:
                part = piece_keys(name, fb_fn, field, piece_id)
                result = part if result is None else _combine_parts(result, part, n)
                if len(result[0]) == 0:
                    break
            keys, rows = result if result is not None else _EMPTY_KEYS
            if len(keys) == 0:
                continue
            key_chunks.append(
                pc.binary_join_element_wise(pa.scalar(f"{pi}\x1f"), keys, "")
            )
            row_chunks.append(rows)

        if key_chunks:
            all_keys = pa.concat_arrays([k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k for k in key_chunks])
            all_rows = np.concatenate(row_chunks)
            out_ids = pc.take(
                _valid_values(batch.column("doc_id")), pa.array(all_rows)
            )
        else:
            all_keys = pa.array([], pa.string())
            out_ids = pa.array([], pa.string())
        if not with_bucket:
            return pa.table({"block_key": all_keys, "doc_id": out_ids})
        import pandas as pd

        # grouping-only hash (cross-process deterministic — fixed-key
        # siphash); bucket choice never affects output content
        h = pd.util.hash_array(all_keys.to_numpy(zero_copy_only=False))
        buckets = (h % N_BUCKETS).astype(np.int32)
        if key_hash:
            return pa.table(
                {"key_hash": pa.array(h), "doc_id": out_ids, "bucket": pa.array(buckets)}
            )
        return pa.table(
            {"block_key": all_keys, "doc_id": out_ids, "bucket": pa.array(buckets)}
        )

    return _stage


def _neighbor_neq(arr: pa.Array) -> np.ndarray:
    """Boolean[n-1]: arr[i+1] != arr[i] — zero-copy Arrow slice compare."""
    import pyarrow.compute as pc

    n = len(arr)
    return pc.not_equal(arr.slice(1), arr.slice(0, n - 1)).to_numpy(
        zero_copy_only=False
    )


def make_bucket_pair_emit_fn(max_block_size: int, key_col: str = "block_key"):
    """Per-BUCKET pair emitter: one call processes every block hashed into
    the bucket. Fully vectorized: Arrow sort_by + neighbor-compare dedup of
    (key, doc), then a numpy triangular expansion emits every within-run
    C(n,2) pair at once. Emits canonical (id_a < id_b) pairs + a pair-hash
    bucket column for the dedup shuffle; oversized blocks emit one marker
    row instead. ``key_col`` may be the key string or its uint64 hash —
    only run boundaries (key equality) are consumed."""

    def _emit(group: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        t = group.select([key_col, "doc_id"]).sort_by(
            [(key_col, "ascending"), ("doc_id", "ascending")]
        )
        keys = t.column(key_col).combine_chunks()
        ids = t.column("doc_id").combine_chunks()
        n = len(t)
        if n > 1:
            dup = ~(_neighbor_neq(keys) | _neighbor_neq(ids))
            if dup.any():
                keep = np.concatenate(([True], ~dup))
                sel = pa.array(np.nonzero(keep)[0])
                keys = pc.take(keys, sel)
                ids = pc.take(ids, sel)
                n = len(keys)
        empty = pa.table(
            {
                "id_a": pa.array([], pa.string()),
                "id_b": pa.array([], pa.string()),
                "oversized": pa.array([], pa.int8()),
                "pbucket": pa.array([], pa.int32()),
            }
        )
        if n == 0:
            return empty
        # runs of equal block_key
        new_run = np.concatenate(([True], _neighbor_neq(keys))) if n > 1 else np.array([True])
        run_starts = np.nonzero(new_run)[0]
        run_lengths = np.diff(np.append(run_starts, n))
        m_per_elem = np.repeat(run_lengths, run_lengths)
        pos_in_run = np.arange(n) - np.repeat(run_starts, run_lengths)
        ok = m_per_elem <= max_block_size
        counts = np.where(ok, m_per_elem - 1 - pos_in_run, 0)
        total = int(counts.sum())
        n_oversized = int((run_lengths > max_block_size).sum())
        if total == 0 and n_oversized == 0:
            return empty
        a_idx = np.repeat(np.arange(n), counts)
        cum = np.concatenate(([0], np.cumsum(counts)))[:-1]
        off = np.arange(total, dtype=np.int64) - np.repeat(cum, counts)
        b_idx = a_idx + 1 + off
        out_a = pc.take(ids, pa.array(a_idx))
        out_b = pc.take(ids, pa.array(b_idx))
        # pair-hash bucket for the dedup shuffle (grouping-only; fixed-key
        # siphash via pandas — cross-process deterministic)
        ha = pd.util.hash_array(out_a.to_numpy(zero_copy_only=False))
        hb = pd.util.hash_array(out_b.to_numpy(zero_copy_only=False))
        pbucket = ((ha * np.uint64(31) + hb) % np.uint64(N_BUCKETS)).astype(np.int32)
        if n_oversized:
            out_a = pa.concat_arrays([out_a, pa.array([""] * n_oversized, pa.string())])
            out_b = pa.concat_arrays([out_b, pa.array([""] * n_oversized, pa.string())])
            pbucket = np.concatenate([pbucket, np.zeros(n_oversized, np.int32)])
        return pa.table(
            {
                "id_a": out_a,
                "id_b": out_b,
                "oversized": pa.array(
                    np.concatenate(
                        [np.zeros(total, np.int8), np.ones(n_oversized, np.int8)]
                    )
                ),
                "pbucket": pa.array(pbucket),
            }
        )

    return _emit


def _dedup_bucket(group: pa.Table) -> pa.Table:
    """Distinct (id_a, id_b) within a pair-hash bucket: Arrow sort +
    neighbor compare (no pandas round-trip)."""
    import pyarrow.compute as pc

    t = group.select(["id_a", "id_b"]).sort_by(
        [("id_a", "ascending"), ("id_b", "ascending")]
    )
    n = len(t)
    if n < 2:
        return t
    a = t.column("id_a").combine_chunks()
    b = t.column("id_b").combine_chunks()
    keep = np.concatenate(([True], _neighbor_neq(a) | _neighbor_neq(b)))
    if keep.all():
        return t
    return t.take(pa.array(np.nonzero(keep)[0]))


def candidate_pairs_raw(
    flat_ds: "ray.data.Dataset",
    predicate_ids: list[str],
    max_block_size: int = 1024,
    map_batch_size: int = 8192,
    index_tables: dict | None = None,
) -> "ray.data.Dataset":
    """Block-key explode + per-bucket pair emission, NOT yet deduped:
    rows (id_a, id_b, oversized, pbucket) where oversized==1 rows are
    dropped-block markers. Checkpointable as ONE artifact so both the
    deduped pairs and the oversized count derive from it without
    re-running the blocking pass."""
    blocked = flat_ds.map_batches(
        make_block_explode_stage(
            predicate_ids, with_bucket=True, index_tables=index_tables, key_hash=True
        ),
        batch_format="pyarrow",
        batch_size=map_batch_size,
    )
    return blocked.groupby("bucket").map_groups(
        make_bucket_pair_emit_fn(max_block_size, key_col="key_hash"),
        batch_format="pyarrow",
    )


def dedup_pairs(raw_pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Raw emitted pairs → globally distinct canonical pairs (drops marker
    rows; bucketed dedup shuffle)."""
    return (
        raw_pairs.filter(expr="oversized == 0")
        .drop_columns(["oversized"])
        .groupby("pbucket")
        .map_groups(_dedup_bucket, batch_format="pyarrow")
    )


def candidate_pairs(
    flat_ds: "ray.data.Dataset",
    predicate_ids: list[str],
    max_block_size: int = 1024,
    map_batch_size: int = 8192,
    index_tables: dict | None = None,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """flat record Dataset → (unique candidate pair Dataset, oversized-block marker Dataset).

    Pairs schema: (id_a: string, id_b: string), id_a < id_b, globally
    distinct. Two bucketed shuffles (see N_BUCKETS note): block-key buckets
    → vectorized pair emission, pair-hash buckets → vectorized dedup.
    """
    raw_pairs = candidate_pairs_raw(
        flat_ds, predicate_ids, max_block_size, map_batch_size, index_tables
    )
    oversized = raw_pairs.filter(expr="oversized == 1")
    return dedup_pairs(raw_pairs), oversized


def brute_force_pairs(flat_records: list[dict], predicate_ids: list[str]) -> set[tuple[str, str]]:
    """Driver-side oracle for tests: same semantics, no Ray."""
    preds = [Predicate.from_id(p) for p in predicate_ids]
    blocks: dict[str, set[str]] = {}
    for rec in flat_records:
        for pi, pred in enumerate(preds):
            for k in pred.keys(rec):
                blocks.setdefault(f"{pi}\x1f{k}", set()).add(rec["doc_id"])
    out: set[tuple[str, str]] = set()
    for members in blocks.values():
        if len(members) > 1:
            for a, b in combinations(sorted(members), 2):
                out.add((a, b))
    return out
