"""Blocking conformance: Ray candidate pairs == brute-force oracle pairs."""

import pyarrow as pa
import ray.data as rd

from dedupe_ray.blocking import brute_force_pairs, candidate_pairs
from dedupe_ray.fixtures import KNA_FIELDS
from dedupe_ray.pipeline import flatten_documents

PREDICATES = ["whole|Postal Code", "tok1|Name 1", "start3|City+firstint|Postal Code"]


def _flat_records(small_corpus):
    docs, _ = small_corpus
    ds = rd.from_arrow(docs)
    flat, _ = flatten_documents(ds, KNA_FIELDS)
    return flat.materialize()


def test_pairs_match_brute_force(small_corpus):
    flat = _flat_records(small_corpus)
    records = flat.take_all()
    want = brute_force_pairs(records, PREDICATES)
    pairs_ds, oversized = candidate_pairs(flat, PREDICATES, max_block_size=4096)
    got = {(r["id_a"], r["id_b"]) for r in pairs_ds.take_all()}
    assert got == want
    assert oversized.count() == 0


def test_pairs_are_canonical_and_distinct(small_corpus):
    flat = _flat_records(small_corpus)
    pairs_ds, _ = candidate_pairs(flat, PREDICATES, max_block_size=4096)
    rows = pairs_ds.take_all()
    seen = set()
    for r in rows:
        assert r["id_a"] < r["id_b"]
        assert (r["id_a"], r["id_b"]) not in seen
        seen.add((r["id_a"], r["id_b"]))


def test_oversized_blocks_are_dropped_and_reported(small_corpus):
    flat = _flat_records(small_corpus)
    # Country has ~2 distinct values over 1000 rows → every block oversized at cap 50
    pairs_ds, oversized = candidate_pairs(flat, ["whole|Country"], max_block_size=50)
    assert pairs_ds.count() == 0
    assert oversized.count() > 0


def test_invariant_under_repartitioning(small_corpus):
    flat = _flat_records(small_corpus)
    base, _ = candidate_pairs(flat, PREDICATES, max_block_size=4096)
    base_set = {(r["id_a"], r["id_b"]) for r in base.take_all()}
    for k in (1, 7, 32):
        again, _ = candidate_pairs(flat.repartition(k), PREDICATES, max_block_size=4096)
        got = {(r["id_a"], r["id_b"]) for r in again.take_all()}
        assert got == base_set, f"pair set changed at {k} partitions"


def test_compound_piece_memo_matches_brute_force(small_corpus):
    """Predicate set with heavy shared-piece reuse across conjunctions (the
    memoized path) still matches the brute-force oracle exactly."""
    preds = [
        "2gfprint|Name 1+whole|Postal Code",
        "2gfprint|Name 1+whole|City",
        "2gfprint|Name 1+tok1|Street",
        "2gfprint|Name 1",
        "whole|Postal Code+whole|City",
    ]
    flat = _flat_records(small_corpus)
    records = flat.take_all()
    want = brute_force_pairs(records, preds)
    pairs_ds, _ = candidate_pairs(flat, preds, max_block_size=4096)
    got = {(r["id_a"], r["id_b"]) for r in pairs_ds.take_all()}
    assert got == want


def test_lcanopy_explode_path(small_corpus):
    """lcanopy predicate ids rebuild their SymSpell index from index_tables
    inside the explode stage and co-block values within the radius."""
    from dedupe_ray.blocking import candidate_pairs

    flat = _flat_records(small_corpus)
    records = flat.take_all()
    vals = sorted({r.get("Name 1") or "" for r in records} - {""})
    tables = {"lcanopy1|Name 1": {"field": "Name 1", "values": vals, "radius": 1}}
    pairs_ds, _ = candidate_pairs(
        flat, ["lcanopy1|Name 1"], max_block_size=4096, index_tables=tables
    )
    got = {(r["id_a"], r["id_b"]) for r in pairs_ds.take_all()}
    # oracle: pairs sharing an indexed value within radius 1 of both sides
    from dedupe_ray.predicates import LevenshteinCanopyPredicate

    pred = LevenshteinCanopyPredicate("Name 1", vals, 1)
    keys = {r["doc_id"]: set(pred.keys(r)) for r in records}
    want = {
        (a, b)
        for i, a in enumerate(sorted(keys))
        for b in sorted(keys)[i + 1 :]
        if keys[a] & keys[b]
    }
    assert got == want and got  # non-trivial: corpus has near-identical names
