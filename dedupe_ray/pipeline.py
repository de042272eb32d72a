"""End-to-end entity-resolution pipeline — the Ray-native ``Dedupe`` API.

Mirrors the reference lifecycle (SURVEY §3, backend/dedupe_script.py:290-392):

    deduper = RayDeduper(config)
    deduper.prepare_training(flat_ds)        # head-400 sample, active learner
    ... label loop (uncertain_pairs / mark) or mark_pairs(labeled) ...
    deduper.train()                          # classifier + learned predicates
    clusters = deduper.partition(flat_ds, threshold)   # the distributed DAG

``partition`` is the distributed Dataset DAG (SURVEY §3 Ray lifecycle
mapping): block-explode(map_batches) → groupby(block_key) pair-gen →
pair-dedup groupby → record join (broadcast or hash join) → scorer actor
pool → threshold filter → connected components → per-component HAC
map_groups → stats groupby → sort.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dedupe_ray.blocking import candidate_pairs
from dedupe_ray.clustering import cluster_edges
from dedupe_ray.config import EngineConfig
from dedupe_ray.learning import (
    ActiveLearner,
    LogisticClassifier,
    features_for_pairs,
    learn_predicates,
)
from dedupe_ray.features import monotone_feature_dims
from dedupe_ray.preprocess import make_preprocess_stage, preprocess_value
from dedupe_ray.schema import discover_field_names, make_extract_fields_stage
from dedupe_ray.scoring import assemble_pairs, score_pairs


def _keyspace_mask(
    col: "pa.ChunkedArray | pa.Array", prefix: str, frac: float
) -> pa.Array:
    """Deterministic key-space sampling mask: ``zlib.crc32(prefix+value)``
    against a ``frac`` cut of the uint32 space — stable at any parallelism
    or block layout, and bit-identical to every settings checkpoint ever
    trained by this repo.

    Deliberately a per-string C call, not numpy: a columnwise table-driven
    crc32 was built and measured in round 4 — it only ties the listcomp on
    quiet hosts (0.27 s vs 0.16 s per 800k 11-char keys; zlib.crc32 is
    C per string and the Python loop is the cheap part) and its per-column
    temporaries make it 30-60x slower during this host's paging
    pathologies. The genuinely-vectorizable sampler pieces (the pair-record
    fetch via ``pc.is_in``, the grouping-only bucket hashes via
    ``pd.util.hash_array``) are vectorized."""
    import zlib

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    cut = int(frac * 0xFFFFFFFF)
    return pa.array(
        [zlib.crc32(f"{prefix}{v}".encode()) <= cut for v in col.to_pylist()]
    )


def flatten_documents(
    docs_ds: "ray.data.Dataset", field_names: list[str] | None = None, batch_size: int | None = None
) -> tuple["ray.data.Dataset", list[str]]:
    """Span documents → preprocessed flat record Dataset (doc_id, <fields>…).

    Pure projection + normalization, FUSED into one map_batches over whole
    blocks (re-batching a nested-list column costs more than the transform).
    The source dataset (with its spans) is untouched, preserving the
    span-sequence invariant trivially.
    """
    if field_names is None:
        field_names = discover_field_names(docs_ds)
    extract = make_extract_fields_stage(field_names)
    prep = make_preprocess_stage(field_names)

    def fused(batch: pa.Table) -> pa.Table:
        return prep(extract(batch))

    flat = docs_ds.map_batches(fused, batch_format="pyarrow", batch_size=batch_size)
    return flat, field_names


def _clean_pair(pair: tuple[dict, dict], fields: list[str]) -> tuple[dict, dict]:
    return tuple(
        {f: preprocess_value(r.get(f, "")) for f in fields} for r in pair
    )  # type: ignore[return-value]


def _sample_blocked_pairs(
    flat_ds: "ray.data.Dataset",
    fields: list[str],
    n_target: int,
    map_batch_size: int,
    total_records: int | None = None,
) -> list[tuple[tuple[str, str], str]]:
    """Sample candidate pairs that share a cheap predicate block, from the
    full dataset. Per block only ADJACENT sorted-id pairs (+ first/last) are
    emitted — O(n) per block, enough for a training sample; blocks larger
    than 100 members are skipped as non-discriminative.

    Deterministic KEY-SPACE hash sampling, fully STREAMING: the hash key
    filter is fused into the explode pass, so the exploded dataset (5–10×
    the input) is never materialized — only the sampled sliver reaches the
    driver. The sampling rate is sized from a small hash-sample estimate of
    keys-per-record; if a draw surfaces too few multi-member blocks the
    rate doubles and the (linear, stateless) pass re-runs — trading a rare
    extra CPU pass for zero object-store footprint, which is the right
    trade at 10⁹ rows. Output is identical at any parallelism level."""
    from dedupe_ray.blocking import make_block_explode_stage

    sampling_preds = [f"tok1|{f}" for f in fields] + [f"whole|{f}" for f in fields]
    stage = make_block_explode_stage(sampling_preds)
    if total_records is None:
        total_records = flat_ds.count()

    # keys-per-record estimate from a deterministic ~2k-record hash sample
    est_frac = min(1.0, 2000 / max(total_records, 1))

    def est_sample(batch: pa.Table) -> pa.Table:
        return batch.filter(_keyspace_mask(batch.column("doc_id"), "est:", est_frac))

    sample_tbl = pa.Table.from_pylist(
        flat_ds.map_batches(est_sample, batch_format="pyarrow").take_all()
    )
    n_sample = max(len(sample_tbl), 1)
    keys_per_record = max(len(stage(sample_tbl)), 1) / n_sample if len(sample_tbl) else 4.0

    est_rows = total_records * keys_per_record
    budget_keys = n_target * 3
    rate = min(1.0, (budget_keys * 4) / max(est_rows, 1))

    by_pred: dict[str, list[tuple[str, str]]] = {}
    seen: set[tuple[str, str]] = set()
    for _ in range(8):

        def explode_and_sample(batch: pa.Table, _rate: float = rate) -> pa.Table:
            exploded = stage(batch)
            return exploded.filter(
                _keyspace_mask(exploded.column("block_key"), "", _rate)
            )

        members: dict[str, list[str]] = {}
        for r in flat_ds.map_batches(
            explode_and_sample, batch_format="pyarrow", batch_size=map_batch_size
        ).take_all():
            members.setdefault(r["block_key"], []).append(r["doc_id"])

        by_pred.clear()
        seen.clear()
        n_pairs = 0
        for key in sorted(members):
            ids = sorted(set(members[key]))
            if len(ids) < 2 or len(ids) > 100:
                continue
            pred = key.split("\x1f", 1)[0]
            for a, b in zip(ids[:-1], ids[1:]):
                p = (a, b)
                if p not in seen:
                    seen.add(p)
                    by_pred.setdefault(pred, []).append(p)
                    n_pairs += 1
        if n_pairs >= n_target or rate >= 1.0:
            break
        rate = min(1.0, rate * 2)
    out: list[tuple[tuple[str, str], str]] = []
    out_seen: set[tuple[str, str]] = set()
    keys = sorted(by_pred)
    queues = [by_pred[k] for k in keys]
    qi = 0
    while len(out) < n_target and any(queues):
        k = qi % len(queues)
        q = queues[k]
        qi += 1
        if q:
            p = q.pop(0)
            if p not in out_seen:
                out_seen.add(p)
                out.append((p, keys[k]))
    return out


class RayDeduper:
    """Driver-side façade holding config, labels, and the trained model."""

    def __init__(self, config: EngineConfig):
        self.config = config
        neg, pos = monotone_feature_dims(config)
        self.classifier = LogisticClassifier(config.l2_lambda, monotone_dims=neg, positive_dims=pos)
        self.predicate_ids: list[str] = []
        self.index_tables: dict[str, dict] = {}
        self.labeled: list[tuple[tuple[dict, dict], bool]] = []
        self.idf_tables: dict[str, dict] = {}  # Text-field idf broadcasts
        self._learner: ActiveLearner | None = None
        self._sample_records: dict[str, dict] = {}
        self._cost_records: dict[str, dict] = {}

    # ---- training ---------------------------------------------------------

    def prepare_training(self, flat_ds: "ray.data.Dataset") -> None:
        """Build the active-learning candidate pool.

        Mirrors [lib] prepare_training(sample_size≈1500, blocked_proportion=.9)
        — ~90% of candidates are pairs sharing a cheap predicate block **on
        the full dataset** (a Ray blocking pass; a head-N sample alone would
        almost never contain both members of a duplicate pair once the corpus
        outgrows the sample), ~10% are random pairs. The reference app's
        head-400 restriction (dedupe_script.py:254) is reproduced only for
        the uniform record sample used for predicate cost estimation."""
        fields = self.config.field_names()
        cfg = self.config
        total = flat_ds.count()

        # Text-type fields: one doc-frequency groupby over the flat dataset
        # → broadcast idf tables used by training features AND the scorer
        # (L7-Text wiring; without this, Text degrades to unweighted cosine)
        from dedupe_ray.features import compute_idf

        for f in cfg.fields:
            if f.type == "Text" and f.field not in self.idf_tables:
                self.idf_tables[f.field] = compute_idf(flat_ds, f.field)

        # uniform record sample (predicate cost estimation + random pairs) —
        # HASH-based, not random_sample: rows are chosen by a fixed-key hash
        # of doc_id so the sample (and therefore the trained model) is
        # identical at any parallelism level / block layout
        # cost-estimation sample grows with the corpus: block collisions are
        # quadratic, so a fixed 400-row sample wildly underestimates a
        # predicate's pair cost at 10⁶⁺ rows and the set-cover learner picks
        # catastrophic predicates (observed: anagram-fingerprint blocking)
        cost_n = min(10_000, max(cfg.max_training_rows, total // 200))
        frac = min(1.0, (cost_n * 1.3) / max(total, 1))
        seed_prefix = f"{cfg.seed}:"

        def hash_sample(batch: pa.Table) -> pa.Table:
            return batch.filter(
                _keyspace_mask(batch.column("doc_id"), seed_prefix, frac)
            )

        all_rows = sorted(
            flat_ds.map_batches(hash_sample, batch_format="pyarrow").take_all(),
            key=lambda r: r["doc_id"],
        )
        rows = all_rows[: cfg.max_training_rows]
        # records keep their doc_id (non-feature key) so scripted/oracle
        # labelers can identify them; predicates/features only read config fields
        def _rec(r: dict) -> dict:
            return {"doc_id": r["doc_id"], **{f: (r.get(f) or "") for f in fields}}

        self._sample_records = {r["doc_id"]: _rec(r) for r in rows}
        self._cost_records = {r["doc_id"]: _rec(r) for r in all_rows[:cost_n]}

        # blocked pair sample over the FULL dataset
        n_blocked = int(cfg.sample_size * cfg.blocked_proportion)
        tagged_pairs = _sample_blocked_pairs(
            flat_ds, fields, n_blocked, cfg.map_batch_size, total_records=total
        )
        pair_ids = [p for p, _ in tagged_pairs]

        # fetch the records behind the sampled pairs (bounded ≤ 2·n_blocked)
        need = {i for p in pair_ids for i in p} - set(self._sample_records)
        records = dict(self._sample_records)
        if need:
            need_ref = ray.put(pa.array(sorted(need), pa.string()))

            def pick(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                wanted = ray.get(need_ref)
                return batch.filter(
                    pc.is_in(batch.column("doc_id"), value_set=wanted)
                )

            for r in flat_ds.map_batches(pick, batch_format="pyarrow").take_all():
                records[r["doc_id"]] = _rec(r)

        candidates = []
        provenance = []
        for (a, b), pred in tagged_pairs:
            if a in records and b in records:
                candidates.append((records[a], records[b]))
                provenance.append(pred)
        # random-pair remainder from the uniform sample
        rng = np.random.RandomState(cfg.seed)
        ids = sorted(self._sample_records)
        seen = set(pair_ids)
        n_random = max(0, cfg.sample_size - len(candidates))
        for _ in range(n_random):
            if len(ids) < 2:
                break
            i, j = rng.choice(len(ids), 2, replace=False)
            a, b = min(ids[i], ids[j]), max(ids[i], ids[j])
            if (a, b) not in seen:
                seen.add((a, b))
                candidates.append((records[a], records[b]))
                provenance.append("rand")
        self._learner = ActiveLearner(
            self.config,
            candidates,
            provenance=provenance,
            idf_tables=self.idf_tables,
        )

    def uncertain_pairs(self) -> list[tuple[dict, dict]]:
        assert self._learner is not None, "call prepare_training first"
        return self._learner.uncertain_pairs()

    def mark_pairs(self, labeled: dict[str, list[tuple[dict, dict]]]) -> None:
        """labeled = {'match': [(rec_a, rec_b)…], 'distinct': […]} — the
        reference label format (dedupe_script.py:322-332). Records may be raw;
        they are preprocessed here."""
        fields = self.config.field_names()
        new: list[tuple[tuple[dict, dict], bool]] = []
        for pair in labeled.get("match", []):
            new.append((_clean_pair(pair, fields), True))
        for pair in labeled.get("distinct", []):
            new.append((_clean_pair(pair, fields), False))
        self.labeled.extend(new)
        if self._learner is not None:
            # one refit per call, so the next uncertain_pairs() query comes
            # from a classifier that has seen these labels
            self._learner._add_labels(new)

    def train(self, recall: float = 1.0) -> None:
        if not self.labeled:
            raise ValueError("no labeled pairs; call mark_pairs first")
        y = np.array([1.0 if lbl else 0.0 for _, lbl in self.labeled])
        if len(set(y)) < 2:
            raise ValueError("need both match and distinct labels")
        X = features_for_pairs([p for p, _ in self.labeled], self.config, self.idf_tables)
        self.classifier.fit(X, y)
        match_pairs = [p for p, lbl in self.labeled if lbl]
        self.predicate_ids, self.index_tables = learn_predicates(
            match_pairs,
            self._sample_records,
            self.config,
            recall=recall,
            cost_records=self._cost_records,
        )

    # ---- settings persistence ([lib] write_settings / StaticDedupe) -------

    def save_settings(self, path: str) -> None:
        state = {
            "config": {
                "fields": [
                    {
                        "field": f.field,
                        "type": f.type,
                        "has_missing": f.has_missing,
                        **({"categories": list(f.categories)} if f.categories else {}),
                        **(
                            {"interaction_fields": list(f.interaction_fields)}
                            if f.interaction_fields
                            else {}
                        ),
                        **({"token_align": True} if f.token_align else {}),
                        **({"comparator": f.comparator} if f.comparator else {}),
                        **({"similarity": True} if f.similarity else {}),
                    }
                    for f in self.config.fields
                ],
            },
            "model": self.classifier.to_dict(),
            "predicates": self.predicate_ids,
            "index_tables": self.index_tables,
            "idf_tables": self.idf_tables,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh)
        os.replace(tmp, path)

    @staticmethod
    def load_settings(path: str, config: EngineConfig | None = None) -> "RayDeduper":
        with open(path) as fh:
            state = json.load(fh)
        if config is None:
            from dedupe_ray.config import FieldConfig

            config = EngineConfig(
                fields=[FieldConfig(**f) for f in state["config"]["fields"]]
            )
        d = RayDeduper(config)
        d.classifier = LogisticClassifier.from_dict(state["model"])
        d.predicate_ids = state["predicates"]
        d.index_tables = state.get("index_tables", {})
        d.idf_tables = state.get("idf_tables", {})
        return d

    # ---- the distributed DAG ---------------------------------------------

    def scored_pairs(self, flat_ds: "ray.data.Dataset") -> "ray.data.Dataset":
        """Flat record Dataset → scored candidate pairs (id_a, id_b,
        score) — the block → assemble → score prefix of
        :meth:`partition`, exposed so callers can consume the scores
        BEFORE thresholding (clerical review, threshold sweeps,
        :meth:`review_band`)."""
        if not self.predicate_ids:
            raise ValueError("not trained; call train() or load_settings()")
        cfg = self.config
        pairs, _oversized = candidate_pairs(
            flat_ds,
            self.predicate_ids,
            max_block_size=cfg.max_block_size,
            map_batch_size=cfg.map_batch_size,
            index_tables=self.index_tables,
        )
        assembled = assemble_pairs(
            pairs,
            flat_ds,
            cfg.field_names(),
            broadcast_limit=cfg.broadcast_record_limit,
            batch_size=cfg.score_batch_size,
        )
        return score_pairs(
            assembled,
            self.classifier.to_dict(),
            cfg,
            idf_tables=self.idf_tables or None,
            batch_size=cfg.score_batch_size,
        )

    def review_band(
        self,
        flat_ds: "ray.data.Dataset",
        lo: float,
        hi: float,
    ) -> "ray.data.Dataset":
        """Clerical-review export (the Splink/Fellegi–Sunter workflow
        step): candidate pairs whose match score lands in ``[lo, hi)`` —
        too uncertain to auto-link, too plausible to auto-reject — as
        (id_a, id_b) for human adjudication; labeled results feed
        :meth:`mark_pairs` → retrain. The score column is dropped from
        the export deliberately: the band TEST is the contract (scores
        are classifier floats; cross-engine consumers compare membership,
        not floats)."""
        scored = self.scored_pairs(flat_ds).filter(
            expr=f"score >= {lo} and score < {hi}"
        )
        return scored.map_batches(
            lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow"
        )

    def partition(
        self,
        flat_ds: "ray.data.Dataset",
        threshold: float | None = None,
        cc_mode: str = "auto",
    ) -> "ray.data.Dataset":
        """Flat record Dataset → cluster membership Dataset
        (cluster_id, doc_id, confidence_score), clusters of size ≥ 2 only."""
        if threshold is None:
            threshold = self.config.similarity_threshold
        cfg = self.config
        scored = self.scored_pairs(flat_ds)
        edges = scored.filter(expr=f"score >= {threshold}")
        return cluster_edges(
            edges,
            threshold,
            driver_edge_limit=cfg.cc_driver_edge_limit,
            max_component_size=cfg.max_component_size,
            cc_mode=cc_mode,
        )


def active_label_loop(
    deduper: RayDeduper,
    is_match,
    max_pairs: int | None = None,
    min_matches: int = 2,
    min_distincts: int = 2,
) -> int:
    """Drain ``uncertain_pairs()`` labeling each via ``is_match(rec_a, rec_b)``
    — the reference's active-learning protocol (dedupe_script.py:295-311 +
    the UI gates of page.tsx:368-369: ≥2 yes, ≥2 no; pair budget
    max_training_pairs=100, main.py:108). ``is_match`` may be a human prompt
    or a truth oracle in tests. Returns the number of labeled pairs."""
    if max_pairs is None:
        max_pairs = deduper.config.max_training_pairs
    n = n_y = n_n = 0
    while n < max_pairs or n_y < min_matches or n_n < min_distincts:
        try:
            pair = deduper.uncertain_pairs()[0]
        except IndexError:
            break
        lbl = bool(is_match(pair[0], pair[1]))
        deduper._learner.mark(pair, lbl)
        deduper.labeled.append((pair, lbl))
        n += 1
        n_y += int(lbl)
        n_n += int(not lbl)
        if n > max_pairs * 3:  # safety against an exhausted-but-one-sided pool
            break
    return n


def labels_from_reviewed_clusters(
    clusters: pa.Table,
    records_by_id: dict[str, dict],
    removals: set[str],
    confirmed_clusters: set[str] | None = None,
    max_pairs_per_cluster: int = 15,
) -> dict[str, list[tuple[dict, dict]]]:
    """The reprocess loop's label derivation (A25, page.tsx:611-727): for
    each reviewed (confirmed) cluster, every pair of KEPT members is a
    'match' label; every kept × removed pair is a 'distinct' label.

    ``removals`` are doc_ids the reviewer marked as wrongly clustered.
    ``confirmed_clusters`` limits to the clusters reviewed so far (the
    reference's cursor); None = all. Pair counts per cluster are capped —
    a 6-member cluster contributes C(6,2)=15 pairs, larger ones are
    truncated deterministically."""
    from itertools import combinations, islice

    by_cluster: dict[str, list[str]] = {}
    for cid, doc in zip(
        clusters.column("cluster_id").to_pylist(), clusters.column("doc_id").to_pylist()
    ):
        by_cluster.setdefault(cid, []).append(doc)

    match: list[tuple[dict, dict]] = []
    distinct: list[tuple[dict, dict]] = []
    for cid in sorted(by_cluster):
        if confirmed_clusters is not None and cid not in confirmed_clusters:
            continue
        members = sorted(by_cluster[cid])
        kept = [d for d in members if d not in removals]
        deleted = [d for d in members if d in removals]
        for a, b in islice(combinations(kept, 2), max_pairs_per_cluster):
            if a in records_by_id and b in records_by_id:
                match.append((records_by_id[a], records_by_id[b]))
        for a in kept:
            for b in deleted:
                if a in records_by_id and b in records_by_id:
                    distinct.append((records_by_id[a], records_by_id[b]))
    return {"match": match, "distinct": distinct}


def reprocess(
    deduper: RayDeduper,
    flat_ds: "ray.data.Dataset",
    derived_labels: dict[str, list[tuple[dict, dict]]],
    threshold: float | None = None,
) -> "ray.data.Dataset":
    """The reference's ``is_reprocessing`` path (SURVEY §3.3): fold the
    reviewer-derived labels into the training set, retrain classifier +
    predicates, re-partition. Returns the refined cluster membership."""
    deduper.mark_pairs(derived_labels)
    deduper.train()
    return deduper.partition(flat_ds, threshold)


def chunk_partition(
    deduper: RayDeduper,
    flat_ds: "ray.data.Dataset",
    threshold: float | None = None,
    chunk_size: int = 1000,
) -> "ray.data.Dataset":
    """A14 quirk replay (backend/dedupe_script.py:345-360): the reference
    clusters each 1,000-row chunk of the id-ordered record dict SEPARATELY,
    silently missing every cross-chunk duplicate. The production path
    (``partition``) deliberately does NOT reproduce this; this shim exists
    only for byte-level golden-output comparison against the reference.
    Driver-side chunking is fine — the quirk is an app-scale artifact."""
    import pandas as pd

    rows = sorted(flat_ds.take_all(), key=lambda r: r["doc_id"])
    parts = []
    for s in range(0, len(rows), chunk_size):
        chunk = ray.data.from_pandas(pd.DataFrame(rows[s: s + chunk_size]))
        clusters = deduper.partition(chunk.materialize(), threshold)
        parts.append(clusters)
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def summarize_clusters(clusters_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cluster stats (A15) sorted by confidence desc (A16):
    (cluster_id, group_size, confidence_score).

    Confidence is upcast to float64 BEFORE the Mean so partial sums
    accumulate at double precision — float32 partials round at a
    block-layout-sensitive point (a 3-member cluster split 2|1 vs 1|2
    summed to different ulps), making the output parallelism-dependent."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Mean

    def upcast(b: pa.Table) -> pa.Table:
        i = b.column_names.index("confidence_score")
        return b.set_column(
            i, "confidence_score", pc.cast(b.column("confidence_score"), pa.float64())
        )

    return (
        clusters_ds.map_batches(upcast, batch_format="pyarrow")
        .groupby("cluster_id")
        .aggregate(Count(alias_name="group_size"), Mean("confidence_score", alias_name="confidence_score"))
        .sort("confidence_score", descending=True)
    )


def dedupe_documents(
    docs_ds: "ray.data.Dataset",
    labeled_pairs: list[tuple[dict, dict, str]] | None = None,
    threshold: float = 0.5,
    config: EngineConfig | None = None,
    field_names: list[str] | None = None,
    label_oracle=None,
) -> tuple["ray.data.Dataset", RayDeduper]:
    """One-call scripted pipeline: span docs + labels → clusters.

    Labels come either as fixed ``labeled_pairs`` entries
    (record_a, record_b, 'y'|'n') — the reference training format
    (FIXTURES.md §3; 'u' entries dropped, page.tsx:253) — or via
    ``label_oracle(rec_a, rec_b) → bool`` driving the active-learning drain
    loop (the reference's interactive path, scripted).
    """
    flat, field_names = flatten_documents(docs_ds, field_names)
    flat = flat.materialize()  # reused by the training pass and partition
    if config is None:
        config = EngineConfig.auto_detect(field_names)
        config.similarity_threshold = threshold
    deduper = RayDeduper(config)
    deduper.prepare_training(flat)
    if labeled_pairs:
        deduper.mark_pairs(
            {
                "match": [(a, b) for a, b, ans in labeled_pairs if ans == "y"],
                "distinct": [(a, b) for a, b, ans in labeled_pairs if ans == "n"],
            }
        )
    if label_oracle is not None:
        active_label_loop(deduper, label_oracle)
    deduper.train()
    clusters = deduper.partition(flat, threshold)
    return clusters, deduper


def incremental_partition(
    deduper: "RayDeduper",
    existing_flat_ds: "ray.data.Dataset",
    existing_clusters_ds: "ray.data.Dataset",
    new_flat_ds: "ray.data.Dataset",
    threshold: float | None = None,
) -> "ray.data.Dataset":
    """Incremental entity resolution: fold a batch of NEW records into an
    EXISTING partition without re-clustering the whole corpus — the
    production shape when a daily delta lands on a resolved base. The
    standard incremental approximation is pinned:

    1. every new record searches the existing corpus through the
       :class:`~dedupe_ray.linkage.Gazetteer` (broadcast block index, one
       stateless ``map_batches`` pass — the existing side never
       reshuffles) and takes its TOP-1 match at ``threshold``;
    2. a matched new record joins the matched record's cluster; if the
       match target was a singleton (absent from ``existing_clusters_ds``
       because partition drops size-1 clusters), the pair founds a new
       cluster whose id is the TARGET's doc_id (the min-doc-id
       convention's incremental analog);
    3. the remaining unmatched new records partition among THEMSELVES
       with the full blocking → scoring → CC machinery.

    Existing clusters are never merged by an increment (that would need
    transitive evidence through the new batch — run a full
    ``partition`` periodically to compact; this is the accepted
    incremental-ER trade-off). Requires globally unique doc_ids across
    both corpora. Scale note: the gazetteer broadcasts the existing
    corpus's records + block index, so shard the existing side (or
    re-partition fully) once it outgrows worker heap. Output matches
    ``partition``: (cluster_id, doc_id, confidence_score) — rows for the
    NEW records only."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dedupe_ray.joins import bucketed_lookup_join
    from dedupe_ray.linkage import Gazetteer

    thr = threshold if threshold is not None else deduper.config.similarity_threshold
    gaz = Gazetteer(deduper, existing_flat_ds)
    matches = gaz.search(new_flat_ds, threshold=thr, n_matches=1).materialize()

    assigned = bucketed_lookup_join(
        matches,
        existing_clusters_ds.select_columns(["doc_id", "cluster_id"]),
        "match_id",
        "doc_id",
        ["cluster_id"],
        how="left",
    )

    def finish(t: pa.Table) -> pa.Table:
        # singleton target -> found a new cluster under the target's id
        cl = pc.coalesce(t.column("cluster_id"), t.column("match_id"))
        return pa.table(
            {
                "cluster_id": cl,
                "doc_id": t.column("doc_id"),
                "confidence_score": pc.cast(t.column("score"), pa.float32()),
            }
        )

    out_matched = assigned.map_batches(finish, batch_format="pyarrow")

    remaining = bucketed_lookup_join(
        new_flat_ds,
        matches.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "__hit": pa.array(np.ones(len(t), np.int8)),
                }
            ),
            batch_format="pyarrow",
        ),
        "doc_id",
        "doc_id",
        ["__hit"],
        how="left",
    )
    unmatched = remaining.map_batches(
        lambda t: t.filter(pc.is_null(t.column("__hit"))).drop_columns(["__hit"]),
        batch_format="pyarrow",
    )
    among_new = deduper.partition(unmatched, threshold=thr)
    return out_matched.union(among_new)
