"""Pair scoring: record join + actor-pool scorer.

Re-creates [lib: dedupe/core.py scoreDuplicates] (the reference's
multiprocessing pool writing a memmapped score array) as a Ray Data actor
pool: trained weights + field config load ONCE per actor in ``__init__``;
``__call__`` computes vectorized feature matrices per Arrow batch and emits
``(id_a, id_b, score: float32)``.

The pair→record join (needed twice, once per pair side) has two strategies:

- **broadcast** (default when the record table is small enough): the flat
  record table, sorted by doc_id, is ``ray.put`` ONCE and each stateless
  assembler task looks pair ids up in it with ``np.searchsorted`` — the
  pairs stream through map_batches with zero shuffle. This is the
  100 TB-friendly path whenever the *record* side fits in a node's object
  store (pairs may be arbitrarily large).
- **bucketed join**: two :func:`dedupe_ray.joins.bucketed_lookup_join`
  calls on doc_id (one per pair side) for record tables too large to
  broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dedupe_ray.config import EngineConfig
from dedupe_ray.features import pair_features
from dedupe_ray.learning import LogisticClassifier


class Scorer:
    """Actor-pool callable: (a_*, b_*) pair batches → scored edges."""

    def __init__(self, model: dict, config: EngineConfig, idf_tables: dict | None = None):
        self.clf = LogisticClassifier.from_dict(model)
        self.config = config
        self.idf_tables = idf_tables or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        X = pair_features(batch, self.config, self.idf_tables)
        p = self.clf.predict_proba(X).astype(np.float32)
        return pa.table(
            {
                "id_a": batch.column("id_a"),
                "id_b": batch.column("id_b"),
                "score": pa.array(p),
            }
        )


class BroadcastPairAssembler:
    """Pair→record assembly against a broadcast record table.

    The table is ``ray.put`` ONCE (driver), sorted by doc_id; lookup is a
    vectorized ``np.searchsorted`` per batch — no python dict build, so the
    stage works equally well as a stateless task (zero-copy ray.get per
    task) or an actor (state pinned once). Tasks are the default: the state
    is a shared-memory Arrow table, and task workers skip actor-pool
    startup latency."""

    def __init__(self, records_ref, fields: list[str], strict: bool = True):
        # records_ref → (table sorted by doc_id, doc_id as fixed-width bytes
        # ndarray). The bytes array is built ONCE on the driver and shipped
        # zero-copy (fixed-width numpy shares pages via the object store);
        # workers skip the 10⁶-string decode entirely. searchsorted on bytes
        # runs in C. ``strict=True`` raises on a pair id absent from the
        # record table (ER invariant); ``strict=False`` drops such pairs
        # (inner-join semantics for ad-hoc verification kernels).
        tbl, ids_arr = ray.get(records_ref)
        self.fields = fields
        self.strict = strict
        self.sorted_ids = ids_arr
        self._width = ids_arr.dtype.itemsize
        self.cols = {f: tbl.column(f) for f in fields}

    def _lookup(self, col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
        """→ (row index, valid mask). utf-8 encode (non-ASCII safe); probes
        longer than the stored width cannot match (S-dtype would silently
        truncate, so they are masked invalid instead); found indices are
        verified by equality — searchsorted alone returns an insertion
        point, not a match."""
        raw = [s.encode() if isinstance(s, str) else bytes(s) for s in col.to_pylist()]
        lens_ok = np.fromiter((len(b) <= self._width for b in raw), bool, len(raw))
        probe = np.asarray(raw, dtype=f"S{self._width}")
        idx = np.searchsorted(self.sorted_ids, probe)
        idx_c = np.minimum(idx, len(self.sorted_ids) - 1)
        valid = lens_ok & (idx < len(self.sorted_ids)) & (self.sorted_ids[idx_c] == probe)
        return idx_c, valid

    def __call__(self, batch: pa.Table) -> pa.Table:
        ia, va = self._lookup(batch.column("id_a"))
        ib, vb = self._lookup(batch.column("id_b"))
        ok = va & vb
        if not ok.all():
            if self.strict:
                bad_a = batch.column("id_a").to_pylist()
                missing = [bad_a[i] for i in np.nonzero(~ok)[0][:5]]
                raise KeyError(
                    f"{(~ok).sum()} pair ids absent from the broadcast record table "
                    f"(first few pairs' id_a: {missing})"
                )
            batch = batch.filter(pa.array(ok))
            ia, ib = ia[ok], ib[ok]
        idx_a = pa.array(ia, pa.int64())
        idx_b = pa.array(ib, pa.int64())
        data: dict[str, pa.Array] = {
            "id_a": batch.column("id_a"),
            "id_b": batch.column("id_b"),
        }
        for f in self.fields:
            col = self.cols[f]
            data[f"a_{f}"] = col.take(idx_a)
            data[f"b_{f}"] = col.take(idx_b)
        return pa.table(data)


_ASSEMBLER_CACHE: dict = {}  # per-WORKER-process cache: the broadcast table's
# id-array decode happens once per worker, not once per task


def make_assembler_fn(records_ref, fields: list[str], strict: bool = True):
    """Stateless-task variant: the assembler builds once per worker process
    from the shared-memory table (module-global cache keyed by object ref)."""
    key = records_ref.hex()

    def _fn(batch: pa.Table) -> pa.Table:
        a = _ASSEMBLER_CACHE.get(key)
        if a is None:
            a = BroadcastPairAssembler(records_ref, fields, strict)
            _ASSEMBLER_CACHE.clear()  # one broadcast table per job generation
            _ASSEMBLER_CACHE[key] = a
        return a(batch)

    return _fn


def assemble_pairs(
    pairs_ds: "ray.data.Dataset",
    flat_records_ds: "ray.data.Dataset",
    fields: list[str],
    broadcast_limit: int = 2_000_000,
    batch_size: int = 4096,
    strict: bool = True,
) -> "ray.data.Dataset":
    """Join candidate pairs back to their records (both sides)."""
    n_records = flat_records_ds.count()
    if n_records <= broadcast_limit:
        cols = ["doc_id"] + fields
        blocks = [
            t
            for t in ray.get(flat_records_ds.select_columns(cols).to_arrow_refs())
            # upstream filters can emit schema-less zero-column empties that
            # poison concat_tables — drop them (they carry no rows)
            if t.num_columns > 0
        ]
        tbl = pa.concat_tables(blocks).combine_chunks()
        order = pa.compute.sort_indices(tbl.column("doc_id"))
        tbl = tbl.take(order)
        ids = [s.encode() for s in tbl.column("doc_id").to_pylist()]
        width = max((len(s) for s in ids), default=1)
        ids_arr = np.asarray(ids, dtype=f"S{width}")
        ref = ray.put((tbl, ids_arr))
        return pairs_ds.map_batches(
            make_assembler_fn(ref, fields, strict),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    # shuffle-join path: rename record columns per side, two bucketed
    # lookup joins (Dataset.join stalls on empty hash partitions — the
    # NOTES_r2 landmine; the bucketed groupby expresses the same exchange
    # with a bounded group count). Inner semantics: pairs whose ids are
    # absent from the record table are dropped.
    from dedupe_ray.joins import bucketed_lookup_join

    def renamer(side: str):
        def _fn(t: pa.Table) -> pa.Table:
            data = {f"id_{side}": t.column("doc_id")}
            for f in fields:
                data[f"{side}_{f}"] = t.column(f)
            return pa.table(data)

        return _fn

    a_side = flat_records_ds.map_batches(renamer("a"), batch_format="pyarrow")
    b_side = flat_records_ds.map_batches(renamer("b"), batch_format="pyarrow")
    joined = bucketed_lookup_join(
        pairs_ds, a_side, "id_a", "id_a", [f"a_{f}" for f in fields]
    )
    return bucketed_lookup_join(
        joined, b_side, "id_b", "id_b", [f"b_{f}" for f in fields]
    )


def score_pairs(
    assembled_ds: "ray.data.Dataset",
    model: dict,
    config: EngineConfig,
    idf_tables: dict | None = None,
    batch_size: int = 4096,
    concurrency=None,
) -> "ray.data.Dataset":
    """Stateless tasks by default (the logistic weights are tiny and ship in
    the task closure — no actor-pool startup in the critical path); pass
    ``concurrency`` to pin an actor pool instead when the scorer state is
    heavy (e.g. large TF-IDF tables for Text fields)."""
    if concurrency is None and not idf_tables:
        scorer = Scorer(model, config, idf_tables)
        return assembled_ds.map_batches(
            lambda b: scorer(b), batch_format="pyarrow", batch_size=batch_size
        )
    return assembled_ds.map_batches(
        Scorer,
        fn_constructor_args=(model, config, idf_tables),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or (1, 8),
    )
