"""The workloads. Each one writes its inputs from the seed
(``write_inputs``, untimed), sets itself up through the program's set-up
calls (``setup``, timed as ``setup_s``), warms the Ray worker pool, and
runs rounds of one user-visible job through the program's public
functions, checking every round's output against computations made here,
apart from the program.

A round returns ``(metrics, problems)``: ``problems`` lists every check
that failed. With a tracer, a round also measures each layer.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.trace import span

HERE = os.path.dirname(os.path.abspath(__file__))
SETTINGS = os.path.join(HERE, "er_settings.json")

ER_DOCS = 3000
TRAIN_DOCS = 2000
TRAIN_CORPORA = 3
TPCH_SCALE = 0.1
TPCH_SETS = 3
THRESHOLD = 0.25  # the production job's match threshold
F1_FLOOR = 0.99
TRAIN_SEED = 42  # the sampler seed of the interactive session
N_LABELS = 100
# classifier floors on pairs sampled from the truth table (README)
PRECISION_FLOOR = 0.95
RECALL_FLOOR = 0.95


def _p90(values: list[float]) -> float:
    return float(np.percentile(values, 90))


def _write_corpus(n_docs: int, seed: int, out_dir: str) -> pa.Table:
    """KNA span-document corpus for ``seed`` as four parquet shards
    (several read tasks); returns the truth table (doc_id, entity_id)."""
    from dedupe_ray.fixtures import generate_kna_corpus

    docs, truth = generate_kna_corpus(n_docs, seed)
    os.makedirs(out_dir)
    step = -(-docs.num_rows // 4)
    for i in range(4):
        pq.write_table(docs.slice(i * step, step), os.path.join(out_dir, f"part-{i}.parquet"))
    return truth


def _field_names(docs: pa.Table, sample_rows: int = 100) -> list[str]:
    """The field names of a span-document corpus, in first-seen order (what
    ``flatten_documents`` discovers)."""
    from dedupe_ray.schema import FIELD_KIND_PREFIX

    seen: list[str] = []
    for spans in docs.column("spans").slice(0, sample_rows).to_pylist():
        for sp in spans:
            k = sp["kind"]
            if k.startswith(FIELD_KIND_PREFIX) and k[len(FIELD_KIND_PREFIX):] not in seen:
                seen.append(k[len(FIELD_KIND_PREFIX):])
    return seen


def _within_pairs(groups: dict) -> set[tuple[str, str]]:
    out = set()
    for members in groups.values():
        m = sorted(members)
        out.update((m[i], m[j]) for i in range(len(m)) for j in range(i + 1, len(m)))
    return out


def check_clusters(tbl: pa.Table, truth: pa.Table) -> tuple[list[str], float]:
    """Properties every partition output must have, plus pairwise F1
    against the generator's truth. Returns (problems, f1)."""
    problems = []
    docs = tbl.column("doc_id").to_pylist()
    cids = tbl.column("cluster_id").to_pylist()
    conf = tbl.column("confidence_score").to_numpy(zero_copy_only=False)
    if len(set(docs)) != len(docs):
        problems.append("a doc is in more than one cluster")
    clusters: dict[str, list[str]] = defaultdict(list)
    for d, c in zip(docs, cids):
        clusters[c].append(d)
    if any(len(m) < 2 for m in clusters.values()):
        problems.append("a cluster has fewer than 2 members")
    if any(c != min(m) for c, m in clusters.items()):
        problems.append("a cluster_id is not its minimum member doc_id")
    if len(conf) and not (np.all(conf >= 0.0) and np.all(conf <= 1.0)):
        problems.append("a confidence is outside [0, 1]")
    entities: dict[int, list[str]] = defaultdict(list)
    for d, e in zip(truth.column("doc_id").to_pylist(), truth.column("entity_id").to_pylist()):
        entities[e].append(d)
    pred, true = _within_pairs(clusters), _within_pairs(entities)
    tp = len(pred & true)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(true) if true else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    if f1 < F1_FLOOR:
        problems.append(f"pairwise F1 {f1:.4f} < {F1_FLOOR}")
    return problems, f1


def _stage_metrics(prefix: str, rec: dict) -> dict[str, float]:
    return {f"{prefix}_{k}": rec[k] for k in ("wall_s", "driver_cpu_s", "task_cpu_s")}


def warm_workers(modules: tuple[str, ...]) -> None:
    """Start the Ray worker pool and import ``modules`` in it, so the first
    measured round does not pay for process start and imports."""
    import ray.data

    def imports(batch):
        import importlib

        for name in modules:
            importlib.import_module(name)
        return batch

    ray.data.range(64, override_num_blocks=8).map_batches(imports).materialize()


class Workload:
    def __init__(self, run_dir: str, seed: int):
        self.run_dir = run_dir
        self.seed = seed

    def input_dir(self) -> str:
        return os.path.join(self.run_dir, "input")


class ErStatic(Workload):
    """The production StaticDedupe job: read → flatten_documents →
    RayDeduper.partition → parquet, with the pinned settings, on the paths
    production takes at this size (broadcast pair assembly, driver CC).

    The traced round also runs the job forced onto the paths production
    takes above its limits (bucketed join assembly, distributed CC) and
    requires the same cluster membership."""

    reference: dict[str, str] | None = None

    def write_inputs(self) -> None:
        self.docs_dir = self.input_dir()
        self.truth = _write_corpus(ER_DOCS, self.seed, self.docs_dir)

    def setup(self) -> None:
        """The job's own set-up: the program's import and the pinned model."""
        from dedupe_ray.pipeline import RayDeduper

        self.deduper = RayDeduper.load_settings(SETTINGS)
        self.broadcast_limit = self.deduper.config.broadcast_record_limit

    def _read(self):
        import ray.data

        return ray.data.read_parquet(self.docs_dir)

    def _job(self, out: str, forced: bool = False) -> None:
        from dedupe_ray.pipeline import flatten_documents

        cfg = self.deduper.config
        cfg.broadcast_record_limit = 0 if forced else self.broadcast_limit
        flat, _ = flatten_documents(self._read(), cfg.field_names())
        cc_mode = "distributed" if forced else "auto"
        self.deduper.partition(flat, THRESHOLD, cc_mode=cc_mode).write_parquet(out)

    def warmup(self) -> list[str]:
        """One untimed job: it warms the worker pool, and its membership is
        the reference every later job must reproduce."""
        out = os.path.join(self.run_dir, "reference")
        self._job(out)
        problems, _ = self._check(out)
        return problems

    @staticmethod
    def _membership(tbl: pa.Table) -> dict[str, str]:
        return dict(zip(tbl.column("doc_id").to_pylist(), tbl.column("cluster_id").to_pylist()))

    def _check(self, out: str) -> tuple[list[str], float]:
        """Partition properties and F1; the first output checked (the
        warm-up's) is the membership every later one must reproduce."""
        tbl = pq.read_table(out)
        problems, f1 = check_clusters(tbl, self.truth)
        membership = self._membership(tbl)
        if self.reference is None:
            self.reference = membership
        elif membership != self.reference:
            problems.append("cluster membership differs from the reference job's")
        return problems, f1

    def round(self, i: int, tracer=None) -> tuple[dict, list[str]]:
        out = os.path.join(self.run_dir, f"out{i}")
        if tracer is None:
            t0 = time.perf_counter()
            self._job(out)
            job_s = time.perf_counter() - t0
            problems, _ = self._check(out)
            return {"job_s": job_s}, problems
        return self._traced_round(out, tracer)

    def _traced_round(self, out: str, tracer) -> tuple[dict, list[str]]:
        """The job as one lazy call (executions it starts); the same job
        stage by stage, each stage materialized so its span holds its own
        work; then the job forced onto the bucketed-join and distributed-CC
        paths, as one lazy call."""
        from dedupe_ray.blocking import candidate_pairs_raw, dedup_pairs, make_block_explode_stage
        from dedupe_ray.clustering import cluster_edges
        from dedupe_ray.pipeline import flatten_documents
        from dedupe_ray.scoring import assemble_pairs, score_pairs

        m: dict[str, float] = {}
        with tracer.span("pipeline.partition_job") as s:
            self._job(out + "_lazy")
        m["pipeline.partition_s"] = s["wall_s"]
        m["ray_data.executions"] = s["executions"]
        problems, m["pipeline.f1"] = self._check(out + "_lazy")

        d, cfg = self.deduper, self.deduper.config
        fields = cfg.field_names()
        t0 = time.perf_counter()
        with tracer.span("pipeline.flatten") as s:
            flat = flatten_documents(self._read(), fields)[0].materialize()
        m.update(_stage_metrics("pipeline.flatten", s))
        with tracer.span("blocking.raw") as s:
            raw = candidate_pairs_raw(
                flat, d.predicate_ids, cfg.max_block_size, cfg.map_batch_size, d.index_tables
            ).materialize()
        m.update(_stage_metrics("blocking.raw", s))
        with tracer.span("blocking.dedup") as s:
            pairs = dedup_pairs(raw).materialize()
        m.update(_stage_metrics("blocking.dedup", s))
        with tracer.span("scoring.assemble") as s:
            assembled = assemble_pairs(
                pairs, flat, fields, broadcast_limit=self.broadcast_limit,
                batch_size=cfg.score_batch_size,
            ).materialize()
        m.update(_stage_metrics("scoring.assemble", s))
        with tracer.span("scoring.score") as s:
            scored = score_pairs(
                assembled, d.classifier.to_dict(), cfg, idf_tables=d.idf_tables or None,
                batch_size=cfg.score_batch_size,
            ).materialize()
        m.update(_stage_metrics("scoring.score", s))
        with tracer.span("clustering.cluster") as s:
            clusters = cluster_edges(
                scored.filter(expr=f"score >= {THRESHOLD}"), THRESHOLD,
                driver_edge_limit=cfg.cc_driver_edge_limit,
                max_component_size=cfg.max_component_size,
            ).materialize()
        m.update(_stage_metrics("clustering.cluster", s))
        with tracer.span("sink.write") as s:
            clusters.write_parquet(out)
        m["sink.write_s"] = s["wall_s"]
        m["pipeline.partition_staged_s"] = time.perf_counter() - t0

        # counters, outside the stage spans
        exploded = flat.map_batches(
            make_block_explode_stage(d.predicate_ids, with_bucket=True,
                                     index_tables=d.index_tables, key_hash=True),
            batch_format="pyarrow", batch_size=cfg.map_batch_size,
        ).count()
        raw_pairs = raw.filter(expr="oversized == 0").count()
        n_pairs = pairs.count()
        edges = scored.filter(expr=f"score >= {THRESHOLD}").count()
        staged_problems, _ = self._check(out)
        tbl = pq.read_table(out, columns=["cluster_id"])
        m.update({
            "blocking.exploded_keys": exploded,
            "blocking.raw_pairs": raw_pairs,
            "blocking.oversized_blocks": raw.filter(expr="oversized == 1").count(),
            "blocking.pairs": n_pairs,
            "blocking.pairs_per_raw": n_pairs / raw_pairs if raw_pairs else 0.0,
            "scoring.edges": edges,
            "scoring.edges_per_pair": edges / n_pairs if n_pairs else 0.0,
            "clustering.clusters": len(set(tbl.column("cluster_id").to_pylist())),
            "clustering.clustered_docs": tbl.num_rows,
        })

        with tracer.span("pipeline.partition_job_shuffle") as s:
            self._job(out + "_shuffle", forced=True)
        m["pipeline.partition_shuffle_s"] = s["wall_s"]
        m["ray_data.executions_shuffle"] = s["executions"]
        shuffle_problems, _ = self._check(out + "_shuffle")
        return m, problems + staged_problems + shuffle_problems


class ErTrain(Workload):
    """Interactive sessions: flatten → prepare_training → 100 labels from
    the generator's truth via uncertain_pairs/mark → train → save. How long
    training takes depends strongly on the corpus (which predicates cover
    the labeled matches), so round ``i`` trains on corpus ``i %
    TRAIN_CORPORA`` of several drawn from the seed, and the median over
    rounds is not one corpus's figure."""

    def write_inputs(self) -> None:
        self.corpora = []
        for j in range(TRAIN_CORPORA):
            docs_dir = os.path.join(self.input_dir(), str(j))
            truth = _write_corpus(TRAIN_DOCS, self.seed * TRAIN_CORPORA + j, docs_dir)
            entity = dict(zip(truth.column("doc_id").to_pylist(),
                              truth.column("entity_id").to_pylist()))
            self.corpora.append((docs_dir, entity))
        self.fields = _field_names(pq.read_table(self.corpora[0][0]))

    def setup(self) -> None:
        """A session's own set-up: the program's import, the auto-detected
        config and an untrained deduper (each round builds its own, as each
        interactive session does)."""
        from dedupe_ray.config import EngineConfig
        from dedupe_ray.pipeline import RayDeduper

        cfg = EngineConfig.auto_detect(self.fields)
        cfg.seed = TRAIN_SEED
        RayDeduper(cfg)

    def warmup(self) -> list[str]:
        warm_workers(("pandas", "pyarrow.compute", "dedupe_ray.pipeline"))
        return []

    def round(self, i: int, tracer=None) -> tuple[dict, list[str]]:
        import ray.data

        from dedupe_ray.config import EngineConfig
        from dedupe_ray.pipeline import RayDeduper, flatten_documents

        m: dict[str, float] = {}
        ask_ms: list[float] = []
        mark_ms: list[float] = []
        docs_dir, entity = self.corpora[i % len(self.corpora)]
        path = os.path.join(self.run_dir, f"settings{i}.json")
        mark0 = tracer.probe.mark() if tracer else 0
        t0 = time.perf_counter()
        with span(tracer, "pipeline.flatten") as s:
            flat, fields = flatten_documents(ray.data.read_parquet(docs_dir))
            flat = flat.materialize()
        cfg = EngineConfig.auto_detect(fields)
        cfg.seed = TRAIN_SEED
        deduper = RayDeduper(cfg)
        with span(tracer, "pipeline.prepare_training") as prep:
            deduper.prepare_training(flat)
        n_yes = 0
        for k in range(N_LABELS):
            with span(tracer, "learning.uncertain_pairs") as ask:
                pair = deduper.uncertain_pairs()[0]
            if k == 0:
                m["learning.first_pair_s"] = time.perf_counter() - t0
            is_match = entity[pair[0]["doc_id"]] == entity[pair[1]["doc_id"]]
            with span(tracer, "learning.mark") as mark:
                # the learner refits on each label only through its own
                # mark() (RayDeduper.mark_pairs appends without refitting)
                deduper._learner.mark(pair, is_match)
                deduper.labeled.append((pair, is_match))
            ask_ms.append(ask["wall_s"] * 1e3)
            mark_ms.append(mark["wall_s"] * 1e3)
            n_yes += is_match
        with span(tracer, "pipeline.train") as fit:
            deduper.train()
        with span(tracer, "pipeline.save_settings"):
            deduper.save_settings(path)
        m["job_s"] = time.perf_counter() - t0
        if tracer:
            m.update(_stage_metrics("pipeline.flatten", s))
            m.update({
                "ray_data.executions": tracer.probe.mark() - mark0,
                "pipeline.prepare_training_s": prep["wall_s"],
                "pipeline.train_fit_s": fit["wall_s"],
                "learning.uncertain_pairs_ms": statistics.median(ask_ms),
                "learning.uncertain_pairs_p90_ms": _p90(ask_ms),
                "learning.mark_ms": statistics.median(mark_ms),
                "learning.mark_p90_ms": _p90(mark_ms),
                "learning.predicates": len(deduper.predicate_ids),
            })
        problems = []
        if not 2 <= n_yes <= N_LABELS - 2:
            problems.append(f"{n_yes} of {N_LABELS} labels were matches")
        problems += self._check_model(deduper, path, flat, entity, m)
        return m, problems

    def _check_model(self, deduper, path: str, flat, entity: dict, m: dict) -> list[str]:
        """The saved settings load back to the same model, and the model
        meets the precision and recall floors on truth-sampled pairs."""
        from dedupe_ray.pipeline import RayDeduper
        from dedupe_ray.scoring import Scorer

        problems = []
        loaded = RayDeduper.load_settings(path)
        if (loaded.predicate_ids != deduper.predicate_ids
                or loaded.classifier.to_dict() != deduper.classifier.to_dict()):
            problems.append("saved settings do not load back to the trained model")
        recs = pa.concat_tables(list(flat.iter_batches(batch_format="pyarrow")))
        pairs, labels = self._sample_pairs(recs, entity)
        fields = loaded.config.field_names()
        ia = pa.array([p[0] for p in pairs], pa.int64())
        ib = pa.array([p[1] for p in pairs], pa.int64())
        batch = {"id_a": recs.column("doc_id").take(ia), "id_b": recs.column("doc_id").take(ib)}
        for f in fields:
            batch[f"a_{f}"] = recs.column(f).take(ia)
            batch[f"b_{f}"] = recs.column(f).take(ib)
        scorer = Scorer(loaded.classifier.to_dict(), loaded.config, loaded.idf_tables or None)
        score = scorer(pa.table(batch)).column("score").to_numpy()
        pred = score >= THRESHOLD
        truth = np.asarray(labels)
        tp = int(np.sum(pred & truth))
        precision = tp / max(int(pred.sum()), 1)
        recall = tp / max(int(truth.sum()), 1)
        m["learning.precision"], m["learning.recall"] = precision, recall
        if precision < PRECISION_FLOOR:
            problems.append(f"model precision {precision:.3f} < {PRECISION_FLOOR}")
        if recall < RECALL_FLOOR:
            problems.append(f"model recall {recall:.3f} < {RECALL_FLOOR}")
        return problems

    def _sample_pairs(self, recs: pa.Table, entity: dict) -> tuple[list[tuple[int, int]], list[bool]]:
        """Every within-entity pair, and as many distinct-entity pairs: half
        from the same city (they share blocking keys), half at random."""
        rng = np.random.RandomState(self.seed)
        ids = recs.column("doc_id").to_pylist()
        ent = [entity[d] for d in ids]
        by_ent: dict[int, list[int]] = defaultdict(list)
        by_city: dict[str, list[int]] = defaultdict(list)
        for row, (e, city) in enumerate(zip(ent, recs.column("City").to_pylist())):
            by_ent[e].append(row)
            by_city[city].append(row)
        pos = [(m[i], m[j]) for m in by_ent.values()
               for i in range(len(m)) for j in range(i + 1, len(m))]
        neg: list[tuple[int, int]] = []
        cities = sorted(c for c, rows in by_city.items() if len(rows) > 1)
        while len(neg) < len(pos):
            if len(neg) % 2:
                a, b = rng.randint(len(ids), size=2)
            else:
                rows = by_city[cities[rng.randint(len(cities))]]
                a, b = (rows[k] for k in rng.randint(len(rows), size=2))
            if ent[a] != ent[b]:
                neg.append((int(a), int(b)))
        return pos + neg, [True] * len(pos) + [False] * len(neg)


class Queries(Workload):
    """Two queries from the driver query registry: ``orders_nation`` (a
    broadcast star join, orders → customer → nation) and
    ``customer_order_keys`` (``ops.tabular.grouped_concat``). Round ``i`` reads
    table set ``i % TPCH_SETS`` of several drawn from the seed, so the
    median over rounds is not one table set's figure."""

    def write_inputs(self) -> None:
        from perfbench import tpch

        self.data_dirs = []
        for j in range(TPCH_SETS):
            data_dir = os.path.join(self.input_dir(), str(j))
            tpch.write(tpch.generate(TPCH_SCALE, self.seed * TPCH_SETS + j), data_dir)
            self.data_dirs.append(data_dir)

    def setup(self) -> None:
        """The driver contract's set-up: import ``__ray_entry__`` and build
        its query registry."""
        import __ray_entry__

        self.queries = __ray_entry__.queries()

    def warmup(self) -> list[str]:
        from perfbench import tpch

        self.oracles = [tpch.oracle_results(d) for d in self.data_dirs]
        _, problems = self.round(-1)
        return problems

    def _run(self, name: str, data_dir: str):
        res = self.queries[name](data_dir)
        return res.to_pandas() if hasattr(res, "to_pandas") else res

    def round(self, i: int, tracer=None) -> tuple[dict, list[str]]:
        from perfbench import tpch

        m: dict[str, float] = {}
        got = {}
        j = i % len(self.data_dirs)
        mark0 = tracer.probe.mark() if tracer else 0
        t0 = time.perf_counter()
        for name in tpch.QUERIES:
            with span(tracer, name) as s:
                got[name] = self._run(name, self.data_dirs[j])
            if tracer:
                m.update({f"{name}.{k}": s[k]
                          for k in ("wall_s", "executions", "task_cpu_s", "driver_cpu_s")})
        m["job_s"] = time.perf_counter() - t0
        if tracer:
            m["ray_data.executions"] = tracer.probe.mark() - mark0
        problems = [f"{name} differs from its DuckDB oracle" for name in tpch.QUERIES
                    if not tpch.same_result(got[name], self.oracles[j][name])]
        return m, problems


WORKLOADS = {
    "er_static": ErStatic,
    "er_train": ErTrain,
    "queries": Queries,
}
