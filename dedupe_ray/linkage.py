"""Two-dataset record linkage (L20 — [lib: dedupe/api.py RecordLink]).

The reference app never calls RecordLink (it merges files into one table,
A20/A21), but the library surface exists; this re-creates it on the same
Ray stages as dedupe: blocking and scoring run over the UNION of both
sides with side-prefixed ids, candidate pairs are filtered to cross-side
only, and matches are reduced per-left — ``many_to_one`` as a bucketed
distributed argmax, ``one_to_one`` as the greedy highest-score-first
assignment ([lib: dedupe/api.py RecordLink.join one-to-one semantics],
driver-side over the thresholded match list, which is ≤ min(|A|,|B|)
after the per-side pre-reduction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dedupe_ray.blocking import candidate_pairs
from dedupe_ray.pipeline import RayDeduper
from dedupe_ray.scoring import assemble_pairs, score_pairs

_A = "a\x1f"
_B = "b\x1f"


class Gazetteer:
    """Streaming search against an indexed canonical set
    ([lib: dedupe/api.py Gazetteer] — index once, ``search`` repeatedly).

    The canonical table and its block index are broadcast ONCE via
    ``ray.put``; ``search`` is a single stateless ``map_batches`` pass over
    the stream — explode the stream record's block keys, look up canonical
    candidates in the broadcast index, score against the broadcast
    canonical records, keep the per-record top-n. No shuffle: the canonical
    side is the bounded one (a gazetteer), the stream may be unbounded.

    The index build itself is DISTRIBUTED: the block-key computation
    (regex / phonetic / canopy predicates — the expensive part) fans out as
    a ``map_batches`` pass over the canonical dataset; only the
    (block_key, doc_id) edge list returns to the driver, where the index is
    assembled as sorted fixed-width byte arrays (key array + offsets +
    row positions) — ~10× smaller to broadcast than a dict-of-lists and
    probed by vectorized ``np.searchsorted`` in ``search``."""

    def __init__(self, deduper: RayDeduper, canonical_flat_ds: "ray.data.Dataset"):
        import pyarrow as _pa

        from dedupe_ray.blocking import make_block_explode_stage

        if not deduper.predicate_ids:
            raise ValueError("deduper is not trained")
        self.deduper = deduper
        cfg = deduper.config
        sel = canonical_flat_ds.select_columns(["doc_id"] + cfg.field_names()).materialize()
        explode = make_block_explode_stage(
            deduper.predicate_ids, index_tables=deduper.index_tables
        )
        keyed = _pa.concat_tables(
            [
                t
                for t in ray.get(
                    sel.map_batches(explode, batch_format="pyarrow").to_arrow_refs()
                )
                if t.num_columns > 0
            ]
        )
        tbl = _pa.concat_tables(
            [t for t in ray.get(sel.to_arrow_refs()) if t.num_columns > 0]
        ).combine_chunks()

        # sort records by encoded doc_id so (block_key, doc_id) edges map to
        # row positions with one searchsorted — no per-row dict build
        ids_raw = [s.encode() for s in tbl.column("doc_id").to_pylist()]
        idw = max((len(b) for b in ids_raw), default=1) or 1
        ids = np.asarray(ids_raw, dtype=f"S{idw}") if ids_raw else np.empty(0, "S1")
        order = np.argsort(ids, kind="stable")
        tbl = tbl.take(pa.array(order)).combine_chunks()
        ids = ids[order]

        kd_raw = [s.encode() for s in keyed.column("doc_id").to_pylist()]
        kb_raw = [k.encode() for k in keyed.column("block_key").to_pylist()]
        if kd_raw:
            pos = np.searchsorted(ids, np.asarray(kd_raw, dtype=f"S{idw}")).astype(np.int32)
            kw = max(len(b) for b in kb_raw) or 1
            keys = np.asarray(kb_raw, dtype=f"S{kw}")
            korder = np.argsort(keys, kind="stable")
            keys_s, pos_s = keys[korder], pos[korder]
            new = np.concatenate(([True], keys_s[1:] != keys_s[:-1]))
            uniq_keys = keys_s[new]
            starts = np.nonzero(new)[0]
            offsets = np.append(starts, len(keys_s)).astype(np.int64)
        else:
            uniq_keys = np.empty(0, "S1")
            offsets = np.zeros(1, np.int64)
            pos_s = np.empty(0, np.int32)
        self._state_ref = ray.put((tbl, uniq_keys, offsets, pos_s))

    def search(
        self,
        stream_ds: "ray.data.Dataset",
        threshold: float | None = None,
        n_matches: int = 1,
    ) -> "ray.data.Dataset":
        """→ (doc_id, match_id, score) — top-n canonical matches ≥ threshold
        per stream record."""
        from dedupe_ray.blocking import make_block_explode_stage
        from dedupe_ray.features import pair_features
        from dedupe_ray.learning import LogisticClassifier

        deduper = self.deduper
        cfg = deduper.config
        if threshold is None:
            threshold = cfg.similarity_threshold
        state_ref = self._state_ref
        model = deduper.classifier.to_dict()
        pred_ids = deduper.predicate_ids
        index_tables = deduper.index_tables
        fields = cfg.field_names()
        idf = deduper.idf_tables or None

        def _search(batch: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "match_id": pa.array([], pa.string()),
                    "score": pa.array([], pa.float32()),
                }
            )
            tbl, uniq_keys, offsets, pos_s = ray.get(state_ref)
            explode = make_block_explode_stage(pred_ids, index_tables=index_tables)
            clf = LogisticClassifier.from_dict(model)
            keyed = explode(batch)
            if len(keyed) == 0 or len(uniq_keys) == 0:
                return empty
            # candidate (stream row, canonical pos) pairs — vectorized probe
            # of the sorted broadcast key array, then a ragged gather of each
            # hit key's canonical positions
            kw = uniq_keys.dtype.itemsize
            kb_raw = [k.encode() for k in keyed.column("block_key").to_pylist()]
            # probes longer than the stored width cannot match (S-dtype would
            # silently truncate, so mask them invalid instead)
            lens_ok = np.fromiter((len(b) <= kw for b in kb_raw), bool, len(kb_raw))
            probe = np.asarray(kb_raw, dtype=f"S{kw}")
            ki = np.searchsorted(uniq_keys, probe)
            ki_c = np.minimum(ki, len(uniq_keys) - 1)
            valid = lens_ok & (ki < len(uniq_keys)) & (uniq_keys[ki_c] == probe)
            pos = {d: i for i, d in enumerate(batch.column("doc_id").to_pylist())}
            row_ids = np.fromiter(
                (pos[d] for d in keyed.column("doc_id").to_pylist()), np.int64, len(keyed)
            )
            ki_v, row_v = ki_c[valid], row_ids[valid]
            if not len(ki_v):
                return empty
            counts = offsets[ki_v + 1] - offsets[ki_v]
            rows_l = np.repeat(row_v, counts)
            csum = np.cumsum(counts)
            ragged = np.arange(csum[-1]) - np.repeat(csum - counts, counts)
            cans_l = pos_s[np.repeat(offsets[ki_v], counts) + ragged]
            if not len(rows_l):
                return empty
            n_can = len(tbl)
            codes = np.unique(
                rows_l.astype(np.int64) * n_can + cans_l.astype(np.int64)
            )
            row_idx = codes // n_can
            can_idx = codes % n_can
            # ONE feature matrix + ONE classifier pass for the whole batch
            data = {}
            for f in fields:
                data[f"a_{f}"] = pc.fill_null(
                    pc.take(batch.column(f), pa.array(row_idx)), ""
                )
                data[f"b_{f}"] = pc.fill_null(pc.take(tbl.column(f), pa.array(can_idx)), "")
            p = clf.predict_proba(pair_features(pa.table(data), cfg, idf))
            ok = p >= threshold
            if not ok.any():
                return empty
            row_idx, can_idx, p = row_idx[ok], can_idx[ok], p[ok]
            # per-stream-record top-n: stable lexsort (row, -score, canonical
            # pos) — same tie order as the former per-record argsort
            order = np.lexsort((can_idx, -p, row_idx))
            r_s, c_s, p_s = row_idx[order], can_idx[order], p[order]
            new = np.concatenate(([True], r_s[1:] != r_s[:-1]))
            starts = np.nonzero(new)[0]
            lens = np.diff(np.append(starts, len(r_s)))
            rank = np.arange(len(r_s)) - np.repeat(starts, lens)
            keep = rank < n_matches
            return pa.table(
                {
                    "doc_id": pc.take(batch.column("doc_id"), pa.array(r_s[keep])),
                    "match_id": pc.take(tbl.column("doc_id"), pa.array(c_s[keep])),
                    "score": pa.array(p_s[keep].astype(np.float32)),
                }
            )

        return stream_ds.map_batches(_search, batch_format="pyarrow")


def _prefix(ds: "ray.data.Dataset", prefix: str) -> "ray.data.Dataset":
    def _fn(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("doc_id")
        col = pc.binary_join_element_wise(
            pa.array([prefix] * len(t), pa.string()), pc.cast(t.column("doc_id"), pa.string()), ""
        )
        return t.set_column(i, "doc_id", col)

    return ds.map_batches(_fn, batch_format="pyarrow")


def link_records(
    flat_a: "ray.data.Dataset",
    flat_b: "ray.data.Dataset",
    deduper: RayDeduper,
    threshold: float | None = None,
    match_mode: str = "one_to_one",
    one_to_one_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Link records of ``flat_a`` to records of ``flat_b`` using a trained
    :class:`RayDeduper` model. Returns (id_a, id_b, score) — ids are the
    ORIGINAL doc_ids of each side.

    match_mode:
    - ``"pairs"``: every cross-side pair above threshold.
    - ``"many_to_one"``: best B-match per A record (distributed argmax).
    - ``"one_to_one"``: greedy mutual assignment, highest score first
      (after a distributed per-A-record top-1 pre-reduction, the greedy
      list is ≤ |A| rows; ``one_to_one_limit`` guards the driver pull).
    """
    if threshold is None:
        threshold = deduper.config.similarity_threshold
    if not deduper.predicate_ids:
        raise ValueError("deduper is not trained")
    cfg = deduper.config
    both = _prefix(flat_a, _A).union(_prefix(flat_b, _B)).materialize()
    pairs, _oversized = candidate_pairs(
        both,
        deduper.predicate_ids,
        max_block_size=cfg.max_block_size,
        map_batch_size=cfg.map_batch_size,
        index_tables=deduper.index_tables,
    )

    # cross-side only: canonical id_a < id_b ordering puts the A-side id
    # (prefix 'a\\x1f') first in every cross pair; same-side pairs share a
    # prefix and are dropped.
    def cross_only(t: pa.Table) -> pa.Table:
        pa_side = pc.utf8_slice_codeunits(t.column("id_a"), 0, 2)
        pb_side = pc.utf8_slice_codeunits(t.column("id_b"), 0, 2)
        return t.filter(pc.and_(pc.equal(pa_side, _A), pc.equal(pb_side, _B)))

    cross = pairs.map_batches(cross_only, batch_format="pyarrow")
    assembled = assemble_pairs(
        cross,
        both,
        cfg.field_names(),
        broadcast_limit=cfg.broadcast_record_limit,
        batch_size=cfg.score_batch_size,
    )
    scored = score_pairs(
        assembled,
        deduper.classifier.to_dict(),
        cfg,
        idf_tables=deduper.idf_tables or None,
        batch_size=cfg.score_batch_size,
    ).filter(expr=f"score >= {threshold}")

    def strip(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": pc.utf8_slice_codeunits(t.column("id_a"), 2, 2**30),
                "id_b": pc.utf8_slice_codeunits(t.column("id_b"), 2, 2**30),
                "score": t.column("score"),
            }
        )

    if match_mode == "pairs":
        return scored.map_batches(strip, batch_format="pyarrow")

    # per-A-record top-1 (bucketed argmax — vectorized per bucket)
    from dedupe_ray.blocking import N_BUCKETS

    def bucketize(t: pa.Table) -> pa.Table:
        import pandas as pd

        h = (
            pd.util.hash_array(t.column("id_a").to_numpy(zero_copy_only=False)) % N_BUCKETS
        ).astype(np.int32)
        return t.append_column("abucket", pa.array(h))

    top_k = 1 if match_mode == "many_to_one" else 3

    def top1(group: pa.Table) -> pa.Table:
        df = group.select(["id_a", "id_b", "score"]).to_pandas()
        # deterministic: max score, ties to smallest id_b; one_to_one keeps
        # top-3 per A so the greedy can fall back to a second choice when
        # an A record's best B is claimed by a higher-scoring pair
        df = df.sort_values(["id_a", "score", "id_b"], ascending=[True, False, True])
        df = df.groupby("id_a", as_index=False).head(top_k)
        return pa.Table.from_pandas(df, preserve_index=False)

    best = (
        scored.map_batches(bucketize, batch_format="pyarrow")
        .groupby("abucket")
        .map_groups(top1, batch_format="pyarrow")  # selects its own columns
    )
    if match_mode == "many_to_one":
        return best.map_batches(strip, batch_format="pyarrow")
    if match_mode != "one_to_one":
        raise ValueError(match_mode)

    n = best.count()
    if n > one_to_one_limit:
        raise ValueError(
            f"one_to_one match list has {n} rows (> {one_to_one_limit}); "
            f"use many_to_one or raise the limit"
        )
    import pandas as pd

    df = best.to_pandas().sort_values(["score", "id_a", "id_b"], ascending=[False, True, True])
    # greedy highest-score-first assignment over factorized int codes —
    # sequential by nature (a skipped row must NOT claim its ids), but the
    # loop body is two array reads + two writes, not an iterrows row object
    code_a, _ = pd.factorize(df["id_a"], sort=False)
    code_b, _ = pd.factorize(df["id_b"], sort=False)
    used_a = np.zeros(code_a.max() + 1 if len(code_a) else 0, bool)
    used_b = np.zeros(code_b.max() + 1 if len(code_b) else 0, bool)
    keep = np.zeros(len(df), bool)
    for i in range(len(df)):
        a, b = code_a[i], code_b[i]
        if not used_a[a] and not used_b[b]:
            keep[i] = True
            used_a[a] = used_b[b] = True
    out = df.loc[keep, ["id_a", "id_b", "score"]].reset_index(drop=True)
    out["id_a"] = out["id_a"].str[2:]
    out["id_b"] = out["id_b"].str[2:]
    return ray.data.from_pandas(out)


# ---------------------------------------------------------------------------
# Fellegi–Sunter probabilistic linkage weights via EM (Winkler 1988, public)
# ---------------------------------------------------------------------------


def fellegi_sunter_em(
    pairs_ds: "ray.data.Dataset",
    agree_columns: list[str],
    iters: int = 100,
    p_init: float = 0.1,
    m_init: float = 0.9,
    u_init: float = 0.1,
) -> dict:
    """Unsupervised Fellegi–Sunter parameter estimation: given candidate
    pairs with BOOLEAN per-field agreement columns, estimate each field's
    m = P(agree | match) and u = P(agree | non-match) plus the match
    prevalence p, by EM under conditional independence.

    Scale shape: the 2^k agreement PATTERNS are sufficient statistics, so
    ONE distributed pass reduces the pair stream to ≤ 2^k (pattern, count)
    rows (per-batch bincount combiner → tiny groupby Sum) and EM then
    iterates driver-side on that bounded table — re-scanning nothing.
    Deterministic: fixed init, fixed iteration count, float64 driver math.

    Returns {"p": float, "fields": [{field, m, u, log2_agree,
    log2_disagree}], "patterns": pa.Table(pattern, n, match_prob)}.
    """
    import numpy as np
    from ray.data.aggregate import Sum

    k = len(agree_columns)
    if not 0 < k <= 20:
        raise ValueError("need 1..20 agreement columns")

    def pattern_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        code = np.zeros(len(batch), np.int64)
        for i, c in enumerate(agree_columns):
            bits = (
                pc.fill_null(pc.cast(batch.column(c), pa.bool_()), False)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            code |= bits << i
        up, cnt = np.unique(code, return_counts=True)
        return pa.table({"pattern": pa.array(up), "n": pa.array(cnt.astype(np.int64))})

    pat = (
        pairs_ds.map_batches(pattern_partial, batch_format="pyarrow")
        .groupby("pattern")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: ≤ 2^k rows
        # sort by code: float sums below run in ROW order, so a groupby
        # layout change must not reorder them (parallelism-invariance by
        # construction, and the order the SQL oracle's folds reproduce)
        .sort_values("pattern", ignore_index=True)
    )
    codes = pat["pattern"].to_numpy(np.int64)
    counts = pat["n"].to_numpy(np.float64)
    bits = ((codes[:, None] >> np.arange(k)[None, :]) & 1).astype(np.float64)

    p = float(p_init)
    m = np.full(k, float(m_init))
    u = np.full(k, float(u_init))
    eps = 1e-12
    for _ in range(iters):
        lm = bits @ np.log(m + eps) + (1 - bits) @ np.log(1 - m + eps)
        lu = bits @ np.log(u + eps) + (1 - bits) @ np.log(1 - u + eps)
        wm = p * np.exp(lm)
        wu = (1 - p) * np.exp(lu)
        g = wm / np.maximum(wm + wu, eps)  # E-step: P(match | pattern)
        nm = float((g * counts).sum())
        nu = float(((1 - g) * counts).sum())
        p = nm / max(nm + nu, eps)
        m = (bits * (g * counts)[:, None]).sum(0) / max(nm, eps)
        u = (bits * ((1 - g) * counts)[:, None]).sum(0) / max(nu, eps)
        m = np.clip(m, 1e-6, 1 - 1e-6)
        u = np.clip(u, 1e-6, 1 - 1e-6)

    lm = bits @ np.log(m + eps) + (1 - bits) @ np.log(1 - m + eps)
    lu = bits @ np.log(u + eps) + (1 - bits) @ np.log(1 - u + eps)
    wm = p * np.exp(lm)
    wu = (1 - p) * np.exp(lu)
    g = wm / np.maximum(wm + wu, eps)
    fields = [
        {
            "field": c,
            "m": float(m[i]),
            "u": float(u[i]),
            "log2_agree": float(np.log2(m[i] / u[i])),
            "log2_disagree": float(np.log2((1 - m[i]) / (1 - u[i]))),
        }
        for i, c in enumerate(agree_columns)
    ]
    patterns = pa.table(
        {
            "pattern": pa.array(codes),
            "n": pa.array(counts.astype(np.int64)),
            "match_prob": pa.array(g),
        }
    )
    return {"p": p, "fields": fields, "patterns": patterns}


def tf_adjustment_table(
    ds: "ray.data.Dataset",
    value_column: str,
    m_num: int = 9,
    m_den: int = 10,
) -> "ray.data.Dataset":
    """Term-frequency adjustment table for Fellegi–Sunter scoring
    (Winkler 1988; the feature Splink ships as
    ``term_frequency_adjustments``): agreement on a RARE value is much
    stronger match evidence than agreement on a common one, so the
    per-value u-probability ``u_v = cnt_v / N`` replaces the field-level
    ``u`` and the agreement weight becomes ``log2(m / u_v)``.

    This materializes the per-value lookup table the scorer joins
    against (broadcast when small, bucketed join when not):
    ``(value, cnt, n, w_micro)`` with the weight in integer
    micro-log2-units, ``w_micro = floor(1e6 · log2((m_num·N) /
    (m_den·cnt_v)))`` — m passed as a RATIONAL so the whole chain is
    exact ints → one double division → libm log2 → floor, identical in
    the SQL mirror and order-free at any parallelism (the
    quantize-the-transcendental doctrine).

    Shape: per-batch value pre-count (the combiner) → groupby Sum
    finishes the counts → N folds from the bounded count table → one
    broadcast-constant map adds the weight. Nothing corpus-sized ever
    sits on the driver; the output stays a Dataset keyed by value.
    """
    import math

    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        vals = b.column(value_column).to_pandas()
        g = vals.groupby(vals, dropna=False).size()
        return pa.table(
            {
                "value": pa.array(g.index.to_numpy(object), pa.string()),
                "cnt": pa.array(g.to_numpy(np.int64)),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("value")
        .aggregate(Sum("cnt", alias_name="cnt"))
    ).materialize()
    n = int(counts.sum("cnt"))

    def weight(b: pa.Table) -> pa.Table:
        cnt = b.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        # identical IEEE chain to the SQL mirror: exact int products →
        # double division → libm log2 → ×1e6 → floor
        w = np.floor(
            1000000.0
            * np.log2(
                (float(m_num) * float(n)) / (float(m_den) * cnt.astype(np.float64))
            )
        ).astype(np.int64)
        return pa.table(
            {
                "value": b.column("value"),
                "cnt": pa.array(cnt),
                "n": pa.array(np.full(len(cnt), n, np.int64)),
                "w_micro": pa.array(w),
            }
        )

    return counts.map_batches(weight, batch_format="pyarrow")
