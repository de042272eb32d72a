"""End-to-end golden-cluster conformance (FIXTURES.md §4, BASELINE.md targets):

- pairwise F1 ≥ 0.99 vs planted truth on the synthetic KNA corpus,
- span-sequence equality for every surviving row,
- invariance under input repartitioning,
- settings save/load round-trip (StaticDedupe analogue).
"""

import pyarrow as pa
import pytest

pytestmark = pytest.mark.slow_e2e  # training-loop / multi-run pipeline e2e
import ray.data as rd

from dedupe_ray.eval import clusters_assignment, pairwise_prf, truth_assignment
from dedupe_ray.fixtures import KNA_FIELDS, generate_kna_corpus, labeled_pairs_from_truth
from dedupe_ray.pipeline import (
    RayDeduper,
    active_label_loop,
    dedupe_documents,
    flatten_documents,
    summarize_clusters,
)
from dedupe_ray.schema import span_signature_batch

THRESHOLD = 0.25


@pytest.fixture(scope="module")
def pipeline_result(small_corpus):
    docs, truth = small_corpus
    ta = truth_assignment(truth)
    ds = rd.from_arrow(docs)
    clusters, deduper = dedupe_documents(
        ds,
        threshold=THRESHOLD,
        field_names=KNA_FIELDS,
        label_oracle=lambda a, b: ta[a["doc_id"]] == ta[b["doc_id"]],
    )
    tbl = pa.Table.from_pandas(clusters.to_pandas())
    return docs, truth, tbl, deduper


def test_f1_target(pipeline_result):
    docs, truth, tbl, _ = pipeline_result
    p, r, f1 = pairwise_prf(clusters_assignment(tbl), truth_assignment(truth))
    assert f1 >= 0.99, f"pairwise F1 {f1:.4f} (p={p:.4f}, r={r:.4f}) below target"


def test_cluster_shapes(pipeline_result):
    _, _, tbl, _ = pipeline_result
    import collections

    sizes = collections.Counter(tbl.column("cluster_id").to_pylist())
    assert min(sizes.values()) >= 2  # singletons dropped (A15)
    confs = tbl.column("confidence_score").to_pylist()
    assert all(0.0 <= c <= 1.0 for c in confs)


def test_span_sequence_invariant(pipeline_result):
    """Surviving rows' spans are byte-identical to the source (kind, text,
    media_ref, order) — the pipeline never touches the spans column."""
    docs, _, tbl, _ = pipeline_result
    surviving = set(tbl.column("doc_id").to_pylist())
    src_sig = span_signature_batch(docs)
    sig_of = dict(
        zip(src_sig.column("doc_id").to_pylist(), src_sig.column("span_sig").to_pylist())
    )
    # round-trip the documents through the pipeline's read path
    ds = rd.from_arrow(docs)
    out_sig = ds.map_batches(span_signature_batch, batch_format="pyarrow").take_all()
    for r in out_sig:
        if r["doc_id"] in surviving:
            assert r["span_sig"] == sig_of[r["doc_id"]]


def test_summary_sorted_desc(pipeline_result):
    _, _, tbl, _ = pipeline_result
    summ = summarize_clusters(rd.from_arrow(tbl)).to_pandas()
    assert (summ["group_size"] >= 2).all()
    assert summ["confidence_score"].is_monotonic_decreasing


def test_repartition_invariance(pipeline_result, small_corpus):
    """Cluster assignment is stable under input repartitioning (SURVEY §5.4)."""
    docs, truth, tbl, deduper = pipeline_result
    base = clusters_assignment(tbl)
    ds = rd.from_arrow(docs).repartition(13)
    flat, _ = flatten_documents(ds, KNA_FIELDS)
    tbl2 = pa.Table.from_pandas(deduper.partition(flat, THRESHOLD).to_pandas())
    assert clusters_assignment(tbl2) == base


def test_settings_roundtrip(pipeline_result, small_corpus, tmp_path):
    docs, truth, tbl, deduper = pipeline_result
    path = str(tmp_path / "settings.json")
    deduper.save_settings(path)
    loaded = RayDeduper.load_settings(path)
    assert loaded.predicate_ids == deduper.predicate_ids
    ds = rd.from_arrow(docs)
    flat, _ = flatten_documents(ds, KNA_FIELDS)
    tbl2 = pa.Table.from_pandas(loaded.partition(flat, THRESHOLD).to_pandas())
    assert clusters_assignment(tbl2) == clusters_assignment(tbl)


def test_fixed_labels_path(small_corpus):
    """The mark_pairs (pre-labeled) training path also clears 0.9 F1."""
    docs, truth = small_corpus
    labeled = labeled_pairs_from_truth(docs, truth, n_match=25, n_distinct=25)
    ds = rd.from_arrow(docs)
    clusters, _ = dedupe_documents(ds, labeled, threshold=THRESHOLD, field_names=KNA_FIELDS)
    tbl = pa.Table.from_pandas(clusters.to_pandas())
    _, _, f1 = pairwise_prf(clusters_assignment(tbl), truth_assignment(truth))
    assert f1 >= 0.9


def test_active_learner_protocol(small_corpus):
    """uncertain_pairs drains; label gates (≥2y, ≥2n) are reachable."""
    docs, truth = small_corpus
    ta = truth_assignment(truth)
    ds = rd.from_arrow(docs)
    flat, fields = flatten_documents(ds, KNA_FIELDS)
    from dedupe_ray.config import EngineConfig

    deduper = RayDeduper(EngineConfig.auto_detect(fields))
    deduper.prepare_training(flat.materialize())
    n = active_label_loop(deduper, lambda a, b: ta[a["doc_id"]] == ta[b["doc_id"]], max_pairs=30)
    ys = sum(1 for _, l in deduper.labeled if l)
    ns = sum(1 for _, l in deduper.labeled if not l)
    assert n >= 15 and ys >= 2 and ns >= 2


def test_mark_pairs_refits_the_active_learner(small_corpus):
    """mark_pairs refits the learner once, so the next uncertain_pairs()
    query comes from a classifier that has seen the new labels: the same
    weights and the same next query as marking each pair through the
    learner itself."""
    import numpy as np

    from dedupe_ray.config import EngineConfig
    from dedupe_ray.learning import ActiveLearner
    from dedupe_ray.pipeline import _clean_pair

    docs, truth = small_corpus
    pairs = labeled_pairs_from_truth(docs, truth, n_match=10, n_distinct=10)
    cfg = EngineConfig.auto_detect(KNA_FIELDS)
    fields = cfg.field_names()
    labeled = [p for p in pairs if p[2] == "y"][:3] + [p for p in pairs if p[2] == "n"][:3]
    pool = [_clean_pair((a, b), fields) for a, b, lbl in pairs if (a, b, lbl) not in labeled]

    deduper = RayDeduper(cfg)
    deduper._learner = ActiveLearner(cfg, list(pool))
    deduper.mark_pairs(
        {
            "match": [(a, b) for a, b, lbl in labeled if lbl == "y"],
            "distinct": [(a, b) for a, b, lbl in labeled if lbl == "n"],
        }
    )
    reference = ActiveLearner(cfg, list(pool))
    for pair, lbl in deduper.labeled:
        reference.mark(pair, lbl)
    assert deduper._learner._clf.weights is not None
    np.testing.assert_array_equal(deduper._learner._clf.weights, reference._clf.weights)
    assert deduper.uncertain_pairs() == reference.uncertain_pairs()


def test_active_learner_computes_each_label_feature_row_once(small_corpus, monkeypatch):
    """mark() computes the new label's feature row only: N labels cost N
    rows after the pool (not N(N+1)/2), and the stored rows equal one
    batch call over every label."""
    import numpy as np

    from dedupe_ray import learning
    from dedupe_ray.config import EngineConfig
    from dedupe_ray.pipeline import _clean_pair

    docs, truth = small_corpus
    pairs = labeled_pairs_from_truth(docs, truth, n_match=10, n_distinct=10)
    cfg = EngineConfig.auto_detect(KNA_FIELDS)
    fields = cfg.field_names()
    labels = [(_clean_pair((a, b), fields), lbl == "y") for a, b, lbl in pairs]
    real = learning.features_for_pairs
    rows: list[int] = []

    def counting(pairs, *args, **kwargs):
        rows.append(len(pairs))
        return real(pairs, *args, **kwargs)

    monkeypatch.setattr(learning, "features_for_pairs", counting)
    learner = learning.ActiveLearner(cfg, [p for p, _ in labels])
    rows.clear()
    for pair, lbl in labels:
        learner.mark(pair, lbl)
    assert learner._clf.weights is not None
    assert sum(rows) <= len(labels)
    np.testing.assert_array_equal(learner._label_X, real([p for p, _ in labels], cfg))
