"""Regenerate the pinned StaticDedupe settings (``er_settings.json``) that
``er_static`` partitions with.

    python3 perfbench/make_settings.py --docs 10000 --corpus-seed 42 --train-seed 46

Trains the way an interactive user would: the KNA corpus of
(``--docs``, ``--corpus-seed``) is flattened, ``prepare_training`` samples
candidate pairs with the sampler seed ``--train-seed``, the generator's
truth answers the reference's 100-label active-learning loop, and
``train`` learns the classifier and the blocking predicates. Training is
deterministic: the same arguments give the same model (the JSON may list
keys in another order). Run it from the root of a checkout; it starts its
own Ray session.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=10000)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--train-seed", type=int, default=46)
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "er_settings.json"))
    args = ap.parse_args()

    import pyarrow.parquet as pq
    import ray
    import ray.data

    from dedupe_ray.config import EngineConfig
    from dedupe_ray.fixtures import generate_kna_corpus
    from dedupe_ray.pipeline import RayDeduper, active_label_loop, flatten_documents

    work = tempfile.mkdtemp(prefix="settings-", dir=ROOT)
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR")
    try:
        docs, truth = generate_kna_corpus(args.docs, args.corpus_seed)
        pq.write_table(docs, os.path.join(work, "docs.parquet"))
        entity = dict(zip(truth.column("doc_id").to_pylist(),
                          truth.column("entity_id").to_pylist()))
        flat, fields = flatten_documents(ray.data.read_parquet(work))
        flat = flat.materialize()
        cfg = EngineConfig.auto_detect(fields)
        cfg.seed = args.train_seed
        deduper = RayDeduper(cfg)
        deduper.prepare_training(flat)
        active_label_loop(deduper, lambda a, b: entity[a["doc_id"]] == entity[b["doc_id"]])
        deduper.train()
        deduper.save_settings(args.out)
        print(f"predicates: {deduper.predicate_ids}")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
