"""Clustering: connected components → per-component centroid-linkage HAC → confidences.

Re-creates [lib: dedupe/clustering.py] (driven by ``partition`` at
backend/dedupe_script.py:360):

- connected components over thresholded scored edges. A component larger
  than ``max_component_size`` (default 1,500) is split before HAC by one
  recursive rule on both CC paths: drop its weakest quartile of edges,
  re-run connected components inside it, and recurse on each piece
  (dedupe's max_components edge-dropping, without an n×n matrix).
- per-component hierarchical clustering, centroid linkage (fastcluster
  ``method='centroid'`` semantics via Lance–Williams updates on squared
  distances), flat cut at distance ``1 − threshold`` (``fcluster
  criterion='distance'``); non-monotone merge heights are max-propagated the
  way scipy's fcluster treats them.
- per-record confidence = ``1 − sqrt(mean squared distance to co-members)``
  [lib: dedupe/clustering.py confidences] — reproduces the observable
  pattern in backend/test_response.py:1 (pair members share one confidence,
  larger clusters differ per member).

Scale design: components after splitting are small (≤ max_component_size),
so HAC runs inside ``groupby(component_id).map_groups`` in numpy. Connected
components itself has two paths:

- ``driver``: union-find over the collected edge list — exact and fast up to
  ~5M edges (the edge list is orders of magnitude smaller than the input).
- ``distributed``: alternating min-label propagation (repeated
  groupby-min + join rounds, O(log diameter) iterations) for edge sets that
  cannot sit on the driver. Same output, checked against the driver path in
  tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from dedupe_ray.config import EngineConfig

# ---------------------------------------------------------------------------
# Union-find (driver path + per-component utilities)
# ---------------------------------------------------------------------------


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        if p == x:
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller id wins as root → component id is stable
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _components_driver(edges: pa.Table) -> dict[str, str]:
    uf = UnionFind()
    a = edges.column("id_a").to_pylist()
    b = edges.column("id_b").to_pylist()
    for x, y in zip(a, b):
        uf.union(x, y)
    return {node: uf.find(node) for node in uf.parent}


def connected_components(
    edges_ds: "ray.data.Dataset",
    driver_edge_limit: int = 5_000_000,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """Scored-edge Dataset (id_a,id_b[,score]) → (doc_id, component_id).

    component_id is the lexicographically smallest member doc_id —
    content-stable regardless of block order (SURVEY §7.4.3).
    """
    n_edges = None
    if mode == "auto":
        n_edges = edges_ds.count()
        mode = "driver" if n_edges <= driver_edge_limit else "distributed"
    if mode == "driver":
        if n_edges == 0 or (n_edges is None and edges_ds.count() == 0):
            # an empty pair set has no schema to select from — return the
            # typed empty membership the near-dup family expects
            return ray.data.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array([], pa.string()),
                        "component_id": pa.array([], pa.string()),
                    }
                )
            )
        tbl = pa.Table.from_pandas(edges_ds.select_columns(["id_a", "id_b"]).to_pandas())
        mapping = _components_driver(tbl)
        nodes = sorted(mapping)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes, pa.string()),
                    "component_id": pa.array([mapping[n] for n in nodes], pa.string()),
                }
            )
        )
    return _components_distributed(edges_ds)


def _labels_checksum(ds: "ray.data.Dataset") -> int:
    """Content checksum of a (node, lbl) table: per-row hash, wrap-sum mod
    2^64 — commutative/associative, so the total is exactly
    BLOCK-LAYOUT-INVARIANT. The previous per-batch int63 masking made the
    checksum depend on batch boundaries: converged label CONTENT with a
    round-over-round drifting layout never reached a checksum fixpoint and
    the propagation loop burned all max_rounds (seen on the sparse
    part–supplier graph at sf0.1). Partials ride as int64 two's-complement
    reinterpretations; the driver folds them back mod 2^64 (Ray's Sum
    would overflow int64 on the partials — bounded: one row per block)."""

    def h(batch: pa.Table) -> pa.Table:
        hv = pd.util.hash_array(
            np.asarray(
                [
                    f"{n}\x1f{l}"
                    for n, l in zip(
                        batch.column("node").to_pylist(), batch.column("lbl").to_pylist()
                    )
                ],
                object,
            )
        )
        part = int(hv.sum().astype(np.int64)) if len(hv) else 0
        return pa.table({"h": pa.array([part], pa.int64())})

    parts = ds.map_batches(h, batch_format="pyarrow").to_pandas()["h"]
    return sum(int(v) & 0xFFFFFFFFFFFFFFFF for v in parts) & 0xFFFFFFFFFFFFFFFF


def _components_distributed(
    edges_ds: "ray.data.Dataset", max_rounds: int = 48
) -> "ray.data.Dataset":
    """Min-label propagation with pointer doubling — the "iterated
    union-find over scored-edge partitions" path for edge sets too large
    for the driver.

    Each round: (1) every node's current label is min-folded with its
    neighbors' labels (bucketed groupby message passing — N_BUCKETS python
    calls per shuffle, each a vectorized pandas groupby, never one call per
    node); (2) a label-of-label shortcut round (pointer doubling) collapses
    chains, making convergence O(log diameter) rounds instead of
    O(diameter). Convergence is detected by label-table checksum; hitting
    ``max_rounds`` without a fixpoint RAISES — a silently fragmented
    component labeling is wrong clusters, not a degraded answer."""
    from dedupe_ray.blocking import N_BUCKETS

    def _bucket_col(col: pa.Array | pa.ChunkedArray) -> pa.Array:
        h = pd.util.hash_array(np.asarray(col.to_pylist(), object))
        return pa.array((h % N_BUCKETS).astype(np.int32))

    def contract_local(batch: pa.Table) -> pa.Table:
        """Per-block union-find contraction: the block's edges collapse to a
        spanning forest rooted at each component's min id — connectivity is
        preserved exactly while the edge count and the *effective graph
        diameter* drop to roughly the number of blocks, so the propagation
        loop needs only O(log #blocks) rounds."""
        uf = UnionFind()
        for x, y in zip(batch.column("id_a").to_pylist(), batch.column("id_b").to_pylist()):
            uf.union(x, y)
        roots = {n: uf.find(n) for n in uf.parent}
        a = [n for n, r in roots.items() if n != r]
        b = [roots[n] for n in a]
        return pa.table({"id_a": pa.array(a, pa.string()), "id_b": pa.array(b, pa.string())})

    def bidir(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").combine_chunks()
        b = batch.column("id_b").combine_chunks()
        node = pa.concat_arrays([a, b])
        other = pa.concat_arrays([b, a])
        return pa.table({"node": node, "other": other, "bucket": _bucket_col(node)})

    edges_bidir = (
        edges_ds.select_columns(["id_a", "id_b"])
        .map_batches(contract_local, batch_format="pyarrow")
        .map_batches(bidir, batch_format="pyarrow")
        .materialize()
    )

    # initial labels: own id
    labels = (
        edges_bidir.map_batches(
            lambda t: pa.table({"node": t.column("node"), "lbl": t.column("node")}),
            batch_format="pyarrow",
        )
        .groupby("node")
        .min("lbl")
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "lbl": t.column("min(lbl)"),
                    "bucket": _bucket_col(t.column("node")),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def emit_messages(group: pa.Table) -> pa.Table:
        """Bucket of edge rows (node→other) ∪ label rows (node→lbl, other
        null-tagged via the 'is_lbl' col): per node, send its label to every
        neighbor and itself."""
        df = group.select(["node", "other", "is_lbl"]).to_pandas()
        lbls = df[df.is_lbl == 1].groupby("node")["other"].min()
        edges = df[df.is_lbl == 0]
        node_lbl = edges["node"].map(lbls)
        out_node = np.concatenate([edges["other"].to_numpy(object), lbls.index.to_numpy(object)])
        out_cand = np.concatenate([node_lbl.to_numpy(object), lbls.to_numpy(object)])
        h = pd.util.hash_array(out_node)
        return pa.table(
            {
                "node": pa.array(out_node, pa.string()),
                "cand": pa.array(out_cand, pa.string()),
                "mbucket": pa.array((h % N_BUCKETS).astype(np.int32)),
            }
        )

    def min_per_node(group: pa.Table) -> pa.Table:
        df = group.select(["node", "cand"]).to_pandas()
        m = df.groupby("node", as_index=False)["cand"].min()
        return pa.table(
            {
                "node": pa.array(m["node"].to_numpy(object), pa.string()),
                "lbl": pa.array(m["cand"].to_numpy(object), pa.string()),
            }
        )

    def shortcut(labels_ds: "ray.data.Dataset") -> "ray.data.Dataset":
        """Pointer doubling: node→lbl becomes node→label(lbl). One bucketed
        groupby keyed on the LABEL side."""

        def explode(t: pa.Table) -> pa.Table:
            node = t.column("node").combine_chunks()
            lbl = t.column("lbl").combine_chunks()
            # query rows keyed by lbl; definition rows keyed by node
            key = pa.concat_arrays([lbl, node])
            val = pa.concat_arrays([node, lbl])
            is_def = np.concatenate(
                [np.zeros(len(node), np.int8), np.ones(len(node), np.int8)]
            )
            h = pd.util.hash_array(np.asarray(key.to_pylist(), object))
            return pa.table(
                {
                    "key": key,
                    "val": val,
                    "is_def": pa.array(is_def),
                    "kbucket": pa.array((h % N_BUCKETS).astype(np.int32)),
                }
            )

        def resolve(group: pa.Table) -> pa.Table:
            df = group.select(["key", "val", "is_def"]).to_pandas()
            defs = df[df.is_def == 1].groupby("key")["val"].min()
            q = df[df.is_def == 0]
            resolved = q["key"].map(defs).fillna(q["key"])
            return pa.table(
                {
                    "node": pa.array(q["val"].to_numpy(object), pa.string()),
                    "lbl": pa.array(resolved.to_numpy(object), pa.string()),
                }
            )

        return (
            labels_ds.map_batches(explode, batch_format="pyarrow")
            .groupby("kbucket")
            .map_groups(resolve, batch_format="pyarrow")
            .map_batches(
                lambda t: t.append_column("bucket", _bucket_col(t.column("node"))),
                batch_format="pyarrow",
            )
        )

    prev = _labels_checksum(labels)
    converged = False
    for _ in range(max_rounds):
        tagged_edges = edges_bidir.map_batches(
            lambda t: t.append_column("is_lbl", pa.array(np.zeros(len(t), np.int8))),
            batch_format="pyarrow",
        )
        tagged_labels = labels.map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "other": t.column("lbl"),
                    "bucket": t.column("bucket"),
                    "is_lbl": pa.array(np.ones(len(t), np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        propagated = (
            tagged_edges.union(tagged_labels)
            .groupby("bucket")
            .map_groups(emit_messages, batch_format="pyarrow")
            .groupby("mbucket")
            .map_groups(min_per_node, batch_format="pyarrow")
        )
        # repartition before the round materialize: groupby/map_groups
        # outputs inherit block counts and every next-round shuffle then
        # schedules thousands of tiny tasks (the bfs_hops/LPA geometric
        # block-explosion — NOTES r4 §74); labels are node-bounded
        labels = (
            shortcut(shortcut(propagated)).repartition(16).materialize()
        )  # double-hop
        cur = _labels_checksum(labels)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        raise RuntimeError(
            f"distributed connected components did not converge in {max_rounds} "
            f"rounds — graph diameter exceeds 2^{max_rounds} after doubling, "
            f"which indicates a bug, not a legitimate input"
        )
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("node"), "component_id": t.column("lbl")}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Per-component HAC (centroid linkage) + confidences
# ---------------------------------------------------------------------------


def centroid_hac_cut(dist: np.ndarray, t: float) -> np.ndarray:
    """Agglomerative clustering with centroid (Lance–Williams) updates on a
    full squared-distance matrix; returns flat cluster labels after cutting
    the dendrogram at height t (max-propagated heights, fcluster
    'distance' semantics). dist is the condensed-to-square distance matrix."""
    n = dist.shape[0]
    if n == 1:
        return np.zeros(1, np.int64)
    d2 = dist.astype(np.float64) ** 2
    np.fill_diagonal(d2, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, bool)
    # merge tree: node n+k = k-th merge
    children: list[tuple[int, int]] = []
    heights: list[float] = []
    members: list[list[int]] = [[i] for i in range(n)]
    idx_of = list(range(n))  # active slot → tree node id
    for _ in range(n - 1):
        # argmin over the full matrix (inactive rows/cols hold inf) — no
        # per-step submatrix copy
        k = int(np.argmin(d2))
        i, j = divmod(k, n)
        if i > j:
            i, j = j, i
        h2 = d2[i, j]
        h = float(np.sqrt(max(h2, 0.0)))
        ni, nj = sizes[i], sizes[j]
        # Lance-Williams centroid update on squared distances
        alpha_i, alpha_j = ni / (ni + nj), nj / (ni + nj)
        beta = -ni * nj / (ni + nj) ** 2
        new_row = alpha_i * d2[i, :] + alpha_j * d2[j, :] + beta * h2
        d2[i, :] = new_row
        d2[:, i] = new_row
        d2[i, i] = np.inf
        d2[j, :] = np.inf
        d2[:, j] = np.inf
        active[j] = False
        sizes[i] = ni + nj
        children.append((idx_of[i], idx_of[j]))
        heights.append(h)
        members.append(members[idx_of[i]] + members[idx_of[j]])
        idx_of[i] = n + len(children) - 1

    # max-propagate heights (monotonize inversions)
    mono = list(heights)
    for k, (ci, cj) in enumerate(children):
        for c in (ci, cj):
            if c >= n:
                mono[k] = max(mono[k], mono[c - n])

    labels = np.full(n, -1, np.int64)
    next_label = 0
    # maximal subtrees with monotone height <= t, scanning from the root down
    assigned = np.zeros(n + len(children), bool)
    for k in range(len(children) - 1, -1, -1):
        node = n + k
        if assigned[node]:
            continue
        if mono[k] <= t:
            for leaf in members[node]:
                labels[leaf] = next_label
            next_label += 1
            stack = [node]
            while stack:
                cur = stack.pop()
                assigned[cur] = True
                if cur >= n:
                    stack.extend(children[cur - n])
    for i in range(n):
        if labels[i] < 0:
            labels[i] = next_label
            next_label += 1
    return labels


def _cluster_component_arrays(
    ia: np.ndarray,
    ib: np.ndarray,
    sc: np.ndarray,
    threshold: float,
    max_size: int,
    out: list,
) -> None:
    """Array core of :func:`cluster_component`: edges of ONE component →
    (cluster_id, doc_id, confidence) array triples appended to ``out``.
    Bit-identical to the historical pandas version (same quantile dtype,
    same edge-write order, same float32 cast points) — the golden-replay
    byte-determinism test pins this."""
    ids = np.unique(np.concatenate([ia, ib]))
    n = len(ids)
    if n > max_size:
        # giant-component split, the same on both CC paths (full-matrix
        # centroid HAC is O(n²) memory / O(n³) time): drop the weakest
        # quartile of edges, re-component, recurse — mirrors [lib:
        # dedupe/clustering.py] max_components handling without
        # materializing an n×n matrix. The minimum score is never kept, so
        # when every edge has the same score nothing is kept and the
        # component yields no cluster.
        keep = sc > float(np.quantile(sc, 0.25))
        if not keep.any():
            return
        ka, kb, ks = ia[keep], ib[keep], sc[keep]
        uf = UnionFind()
        for a, b in zip(ka, kb):
            uf.union(a, b)
        roots = np.asarray([uf.find(a) for a in ka], object)
        order = np.argsort(roots, kind="stable")  # sorted roots, stable within
        ra, rb, rs, rr = ka[order], kb[order], ks[order], roots[order]
        heads = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
        for s0, s1 in zip(heads, np.append(heads[1:], len(rr))):
            _cluster_component_arrays(
                ra[s0:s1], rb[s0:s1], rs[s0:s1], threshold, max_size, out
            )
        return
    if n == 2:
        conf = np.float32(float(sc.max()))
        out.append(
            (np.full(2, ids[0], object), ids, np.array([conf, conf], np.float32))
        )
        return
    dist = np.ones((n, n), np.float64)
    np.fill_diagonal(dist, 0.0)
    pos_a = np.searchsorted(ids, ia)
    pos_b = np.searchsorted(ids, ib)
    d = 1.0 - sc.astype(np.float64)
    dist[pos_a, pos_b] = d
    dist[pos_b, pos_a] = d
    labels = centroid_hac_cut(dist, 1.0 - threshold)
    d2 = dist ** 2
    for lbl in np.unique(labels):
        m = np.flatnonzero(labels == lbl)
        if len(m) < 2:
            continue
        sub = d2[np.ix_(m, m)]
        mean_sq = sub.sum(axis=1) / (len(m) - 1)
        conf = (1.0 - np.sqrt(mean_sq)).astype(np.float32)
        out.append((np.full(len(m), ids[m[0]], object), ids[m], conf))


def _assemble_cluster_frames(out: list) -> pd.DataFrame:
    if not out:
        return pd.DataFrame(
            {"cluster_id": pd.Series([], dtype=str), "doc_id": pd.Series([], dtype=str),
             "confidence_score": pd.Series([], dtype=np.float32)}
        )
    return pd.DataFrame(
        {
            "cluster_id": np.concatenate([c for c, _, _ in out]),
            "doc_id": np.concatenate([d for _, d, _ in out]),
            "confidence_score": np.concatenate([f for _, _, f in out]),
        }
    )


def cluster_component(
    group: pd.DataFrame,
    threshold: float,
    max_component_size: int = EngineConfig.max_component_size,
) -> pd.DataFrame:
    """Edges of ONE component → (doc_id, cluster_id, confidence_score) rows.

    cluster_id is the min doc_id of the flat cluster. Singletons are dropped
    (group_size > 1 filter — backend/dedupe_script.py:365)."""
    out: list = []
    _cluster_component_arrays(
        group["id_a"].to_numpy(object),
        group["id_b"].to_numpy(object),
        group["score"].to_numpy(),
        threshold,
        max_component_size,
        out,
    )
    return _assemble_cluster_frames(out)


def cluster_edges(
    scored_edges: "ray.data.Dataset",
    threshold: float,
    driver_edge_limit: int = 5_000_000,
    max_component_size: int = EngineConfig.max_component_size,
    cc_mode: str = "auto",
) -> "ray.data.Dataset":
    """Scored, thresholded edges → cluster membership Dataset
    (cluster_id: string, doc_id: string, confidence_score: float32).

    Shuffle plan: CC (iterated groupby or driver UF) → annotate edges with
    component_id (map-side broadcast of the node→component map when small,
    join otherwise) → groupby(component_id).map_groups(HAC)."""
    # the edge set is consumed multiple times (count, CC, annotate+HAC);
    # pin it once so the upstream block/score DAG doesn't re-execute per use
    scored_edges = scored_edges.materialize()
    n_edges = scored_edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "cluster_id": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.string()),
                    "confidence_score": pa.array([], pa.float32()),
                }
            )
        )
    N_CBUCKETS = 512

    use_driver = cc_mode == "driver" or (cc_mode == "auto" and n_edges <= driver_edge_limit)
    if use_driver:
        comp_of = _components_driver(
            pa.Table.from_pandas(scored_edges.select_columns(["id_a", "id_b"]).to_pandas())
        )
        # broadcast as a Series so annotate's lookup is a vectorized hash
        # join (Series.map), not a per-row dict loop; the map covers every
        # edge endpoint, and both endpoints share one component
        comp_ref = ray.put(pd.Series(comp_of, dtype=object))

        def annotate(batch: pa.Table) -> pa.Table:
            a = pd.Series(batch.column("id_a").to_numpy(zero_copy_only=False))
            ca = a.map(ray.get(comp_ref)).to_numpy(object)
            out = batch.append_column("component_id", pa.array(ca, pa.string()))
            return out.append_column(
                "cbucket",
                pa.array((pd.util.hash_array(ca) % N_CBUCKETS).astype(np.int32)),
            )

        edges_with_comp = scored_edges.map_batches(annotate, batch_format="pyarrow")
    else:
        from dedupe_ray.joins import bucketed_lookup_join

        comp_ds = _components_distributed(scored_edges)
        edges_with_comp = bucketed_lookup_join(
            scored_edges,
            comp_ds.map_batches(
                lambda t: pa.table({"id_a": t.column("doc_id"), "component_id": t.column("component_id")}),
                batch_format="pyarrow",
            ),
            "id_a",
            "id_a",
            ["component_id"],
        ).map_batches(
            lambda t: t.append_column(
                "cbucket",
                pa.array(
                    (
                        pd.util.hash_array(
                            t.column("component_id").to_numpy(zero_copy_only=False)
                        )
                        % N_CBUCKETS
                    ).astype(np.int32)
                ),
            ),
            batch_format="pyarrow",
        )

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one call per hash bucket of components (bucketed-groupby pattern:
        # per-group python overhead amortized over many small components).
        # Single-EDGE components are 2-member clusters (pairs are globally
        # deduped, so exactly one edge per member pair) and dominate real
        # partitions — they are emitted WHOLESALE here (cluster_id = min id,
        # confidence = the edge score, matching cluster_component's n==2
        # branch bit for bit), so the per-component python loop only runs
        # for components with ≥2 edges.
        sizes = g.groupby("component_id")["component_id"].transform("size")
        singles = g[sizes == 1]
        outs = []
        if len(singles):
            a = singles["id_a"].to_numpy(object)
            b = singles["id_b"].to_numpy(object)
            lo = np.where(a < b, a, b)
            conf = singles["score"].to_numpy(np.float32)
            outs.append(
                pd.DataFrame(
                    {
                        "cluster_id": np.repeat(lo, 2),
                        "doc_id": np.stack([a, b], axis=1).reshape(-1),
                        "confidence_score": np.repeat(conf, 2),
                    }
                )
            )
        rest = g[sizes > 1]
        if len(rest):
            # component_id-sorted run slicing + the array core: no per-
            # component DataFrame construction (the old groupby loop was
            # the bucket's CPU hot spot)
            comp = rest["component_id"].to_numpy(object)
            order = np.argsort(comp, kind="stable")
            ia = rest["id_a"].to_numpy(object)[order]
            ib = rest["id_b"].to_numpy(object)[order]
            sc = rest["score"].to_numpy()[order]
            oc = comp[order]
            heads = np.flatnonzero(np.r_[True, oc[1:] != oc[:-1]])
            triples: list = []
            for s0, s1 in zip(heads, np.append(heads[1:], len(oc))):
                _cluster_component_arrays(
                    ia[s0:s1], ib[s0:s1], sc[s0:s1], threshold, max_component_size, triples
                )
            outs.append(_assemble_cluster_frames(triples))
        if not outs:
            return pd.DataFrame(
                {"cluster_id": pd.Series([], dtype=str), "doc_id": pd.Series([], dtype=str),
                 "confidence_score": pd.Series([], dtype=np.float32)}
            )
        return pd.concat(outs, ignore_index=True)

    return edges_with_comp.groupby("cbucket").map_groups(_per_bucket, batch_format="pandas")


def canonical_reps(
    clusters_ds: "ray.data.Dataset",
    flat_ds: "ray.data.Dataset",
    fields: list[str],
    sample_limit: int = 100,
) -> "ray.data.Dataset":
    """Canonical representative record per cluster — the dedupe library's
    ``canonicalize`` API ([lib: dedupe/canonical.py getCanonicalRep /
    getCentroid], called by users after ``partition`` to pick the "best"
    surviving value per field): for each field, the member value with the
    minimum mean affine-gap distance to all values in the cluster (self
    included, zero — the library's ``dist_matrix.mean(0)`` semantics);
    ties break to the LONGEST value ([lib] breakCentroidTie), then
    lexicographically smallest for full determinism (the library's
    residual tie order is record-iteration order, which is not
    parallelism-stable — documented deviation).

    Shape: one bucketed lookup join attaches field values to memberships,
    then a cluster-id groupby computes centroids per group (clusters are
    small by construction; ``sample_limit`` caps the O(n²) distance
    matrix for degenerate giant clusters — capped clusters use the first
    ``sample_limit`` members in doc_id order, deterministic).

    Returns (cluster_id, group_size, <field>...).
    """
    from dedupe_ray.config import MISSING
    from dedupe_ray.distances import affine_gap_batch
    from dedupe_ray.joins import bucketed_lookup_join

    joined = bucketed_lookup_join(
        clusters_ds.select_columns(["cluster_id", "doc_id"]),
        flat_ds,
        "doc_id",
        "doc_id",
        list(fields),
    )

    def _centroid(vals: list[str]) -> str:
        vals = [v for v in vals if v and v != MISSING]
        if not vals:
            return ""
        if len(vals) > sample_limit:
            vals = vals[:sample_limit]
        uniq = set(vals)
        if len(uniq) == 1:
            return vals[0]
        n = len(vals)
        iu, ju = np.triu_indices(n, k=1)
        d = affine_gap_batch([vals[i] for i in iu], [vals[j] for j in ju])
        m = np.zeros((n, n), np.float64)
        m[iu, ju] = d
        m[ju, iu] = d
        avg = m.mean(axis=0)
        best = np.nonzero(avg == avg.min())[0]
        cands = [vals[i] for i in best]
        max_len = max(len(c) for c in cands)
        return min(c for c in cands if len(c) == max_len)

    def per_cluster(g: pa.Table) -> pa.Table:
        t = g.sort_by([("doc_id", "ascending")])
        data: dict = {
            "cluster_id": pa.array([t.column("cluster_id")[0].as_py()], pa.string()),
            "group_size": pa.array([len(t)], pa.int64()),
        }
        for f in fields:
            col = [v if v is not None else "" for v in t.column(f).to_pylist()]
            data[f] = pa.array([_centroid(col)], pa.string())
        return pa.table(data)

    return joined.groupby("cluster_id").map_groups(
        per_cluster, batch_format="pyarrow"
    )
