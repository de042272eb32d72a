"""Union-find, distributed CC equivalence, HAC cut, confidence formula."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from dedupe_ray.clustering import (
    UnionFind,
    centroid_hac_cut,
    cluster_component,
    cluster_edges,
    connected_components,
)


def _edges_ds(edges, scores=None):
    a, b = zip(*edges)
    t = {"id_a": pa.array(a, pa.string()), "id_b": pa.array(b, pa.string())}
    if scores is not None:
        t["score"] = pa.array(np.asarray(scores, np.float32))
    return rd.from_arrow(pa.table(t))


EDGES = [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g"), ("g", "h"), ("h", "f")]


def test_union_find_components():
    uf = UnionFind()
    for x, y in EDGES:
        uf.union(x, y)
    assert uf.find("c") == "a"
    assert uf.find("e") == "d"
    assert uf.find("h") == "f"


def test_driver_cc():
    got = {
        r["doc_id"]: r["component_id"]
        for r in connected_components(_edges_ds(EDGES), mode="driver").take_all()
    }
    assert got == {"a": "a", "b": "a", "c": "a", "d": "d", "e": "d", "f": "f", "g": "f", "h": "f"}


def test_distributed_cc_matches_driver():
    # chain graph forces multiple propagation rounds
    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(12)] + EDGES
    drv = {
        r["doc_id"]: r["component_id"]
        for r in connected_components(_edges_ds(chain), mode="driver").take_all()
    }
    dst = {
        r["doc_id"]: r["component_id"]
        for r in connected_components(_edges_ds(chain), mode="distributed").take_all()
    }
    assert drv == dst


@pytest.mark.slow_e2e
def test_distributed_cc_long_chain_and_scale():
    """Pointer-doubling evidence: a 3000-link chain (graph diameter 3000,
    far beyond any per-round propagation budget) plus ~100k clustered edges
    must converge — O(log diameter) rounds — and match the driver
    union-find exactly."""
    import numpy as np

    rng = np.random.RandomState(0)
    chain = [(f"c{i:05d}", f"c{i+1:05d}") for i in range(3000)]
    # 100k edges across 5k small star components
    stars = [
        (f"s{g:05d}_0", f"s{g:05d}_{m}")
        for g in range(5000)
        for m in rng.randint(1, 21, size=20)
    ]
    edges = chain + stars
    drv = {
        r["doc_id"]: r["component_id"]
        for r in connected_components(_edges_ds(edges), mode="driver").take_all()
    }
    dst = {
        r["doc_id"]: r["component_id"]
        for r in connected_components(_edges_ds(edges), mode="distributed").take_all()
    }
    assert drv == dst
    # the whole chain collapsed to one component
    assert len({v for k, v in dst.items() if k.startswith("c")}) == 1


def test_hac_cut_simple():
    # two tight pairs far apart → cut at 0.5 gives 2 clusters
    d = np.array(
        [
            [0.0, 0.1, 0.9, 0.9],
            [0.1, 0.0, 0.9, 0.9],
            [0.9, 0.9, 0.0, 0.1],
            [0.9, 0.9, 0.1, 0.0],
        ]
    )
    labels = centroid_hac_cut(d, 0.5)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_hac_cut_all_merge():
    d = np.full((3, 3), 0.2)
    np.fill_diagonal(d, 0.0)
    labels = centroid_hac_cut(d, 0.5)
    assert len(set(labels.tolist())) == 1


def test_pair_confidence_is_edge_score():
    # reference pattern (test_response.py): pair members share the edge score
    g = pd.DataFrame({"id_a": ["x"], "id_b": ["y"], "score": [0.9857]})
    out = cluster_component(g, threshold=0.5)
    assert sorted(out["doc_id"]) == ["x", "y"]
    assert out["confidence_score"].nunique() == 1
    assert out["confidence_score"].iloc[0] == pytest.approx(0.9857, abs=1e-4)


def test_triple_confidence_formula():
    # confidence_i = 1 - sqrt(mean squared distance to co-members)
    g = pd.DataFrame(
        {"id_a": ["a", "a", "b"], "id_b": ["b", "c", "c"], "score": [0.9, 0.8, 0.7]}
    )
    out = cluster_component(g, threshold=0.3).set_index("doc_id")
    d_ab, d_ac, d_bc = 0.1, 0.2, 0.3
    want_a = 1 - np.sqrt((d_ab**2 + d_ac**2) / 2)
    want_b = 1 - np.sqrt((d_ab**2 + d_bc**2) / 2)
    assert out.loc["a", "confidence_score"] == pytest.approx(want_a, abs=1e-5)
    assert out.loc["b", "confidence_score"] == pytest.approx(want_b, abs=1e-5)
    # larger clusters: per-member confidences differ (reference pattern)
    assert out["confidence_score"].nunique() == 3


def test_giant_component_split():
    # star of 50 weak edges + one strong pair, cap at 10: the star is split
    # by the giant-component splitter before HAC, the pair is untouched
    edges = [("hub", f"s{i:02d}") for i in range(50)] + [("p1", "p2")]
    scores = [0.55] * 50 + [0.99]
    # an over-limit star whose edges all score the same: the splitter never
    # keeps the minimum score, so it drops every edge and emits no cluster
    flat_star = [("hub", f"s{i:02d}") for i in range(12)]
    for kw in ({"cc_mode": "driver"}, {"driver_edge_limit": 0}):
        out = cluster_edges(
            _edges_ds(edges, scores), threshold=0.5, max_component_size=10, **kw
        ).to_pandas()
        sizes = out.groupby("cluster_id").size()
        assert sizes.max() <= 10
        cid = out.set_index("doc_id")["cluster_id"]
        # the strong pair is clustered together
        assert cid["p1"] == cid["p2"]
        flat = cluster_edges(
            _edges_ds(flat_star, [0.55] * 12), threshold=0.5, max_component_size=10, **kw
        )
        assert flat.count() == 0


def test_cluster_edges_end_to_end():
    # a-b-c is a path (a-c unscored → distance 1.0, [lib] condensedDistance
    # semantics), so centroid linkage only absorbs c at a loose threshold;
    # f-g-h is a fully-scored triangle and merges at any threshold.
    scores = [0.95, 0.9, 0.92, 0.96, 0.94, 0.91]
    ds = _edges_ds(EDGES, scores)
    out = cluster_edges(ds, threshold=0.25).to_pandas()
    by_cluster = out.groupby("cluster_id")["doc_id"].apply(sorted).to_dict()
    assert sorted(map(tuple, by_cluster.values())) == [
        ("a", "b", "c"),
        ("d", "e"),
        ("f", "g", "h"),
    ]
    assert out["confidence_score"].between(0, 1).all()

    # tight threshold: the path splits — the weak transitive member drops off
    out_tight = cluster_edges(_edges_ds(EDGES, scores), threshold=0.5).to_pandas()
    tight = sorted(map(tuple, out_tight.groupby("cluster_id")["doc_id"].apply(sorted).to_dict().values()))
    assert ("f", "g", "h") in tight
    assert ("a", "b", "c") not in tight


def test_empty_edges():
    ds = _edges_ds([("x", "y")], [0.9]).filter(expr="score > 2.0")
    out = cluster_edges(ds, threshold=0.5)
    assert out.count() == 0


def test_canonical_reps_centroid_and_ties(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from dedupe_ray.clustering import canonical_reps

    clusters = rd.from_arrow(
        pa.table(
            {
                "cluster_id": ["c1", "c1", "c1", "c2", "c2"],
                "doc_id": ["a", "b", "c", "d", "e"],
            }
        )
    )
    flat = rd.from_arrow(
        pa.table(
            {
                "doc_id": ["a", "b", "c", "d", "e"],
                # c1: two exact copies + one variant → the copy is centroid
                "name": ["acme corp", "acme corp", "acme korp", "zeta", "zeta"],
                # c1: all-missing field → empty rep; c2: single value wins
                "city": ["", "N/A", "", "warsaw", ""],
            }
        )
    )
    out = (
        canonical_reps(clusters, flat, ["name", "city"])
        .to_pandas()
        .set_index("cluster_id")
        .sort_index()
    )
    assert out.loc["c1", "name"] == "acme corp"
    assert out.loc["c1", "city"] == ""
    assert out.loc["c1", "group_size"] == 3
    assert out.loc["c2", "name"] == "zeta" and out.loc["c2", "city"] == "warsaw"


def test_labels_checksum_layout_invariant(ray_session):
    import pandas as pd
    import ray.data as rd

    from dedupe_ray.clustering import _labels_checksum

    df = pd.DataFrame(
        {
            "node": [f"n{i}" for i in range(997)],
            "lbl": [f"n{i % 13}" for i in range(997)],
        }
    )
    sums = {
        _labels_checksum(rd.from_pandas(df).repartition(n)) for n in (1, 3, 17, 64)
    }
    assert len(sums) == 1  # identical content, any block layout

    df2 = df.copy()
    df2.loc[5, "lbl"] = "n999"
    assert _labels_checksum(rd.from_pandas(df2)) not in sums


@pytest.mark.slow_e2e
def test_distributed_cc_sparse_bipartite_matches_driver(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from dedupe_ray.clustering import connected_components

    # sparse random bipartite graph — the shape (many tiny chain
    # components, drifting block layouts round-over-round) that exposed
    # the layout-dependent convergence checksum
    rng = np.random.RandomState(31)
    e = pd.DataFrame(
        {
            "id_a": [f"P{v}" for v in rng.randint(0, 400, 300)],
            "id_b": [f"S{v}" for v in rng.randint(0, 60, 300)],
        }
    )
    # 4 partitions: enough to exercise cross-block propagation without
    # paying a minute per extra pointer-doubling round in the suite
    ds = rd.from_pandas(e).repartition(4)
    dist = (
        connected_components(ds, mode="distributed")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    driver = (
        connected_components(ds, mode="driver")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert dist.equals(driver)
