"""Print the content digests of the inputs each seed gives, to compare
with the table in README.md (a changed digest means the inputs changed).

    python3 perfbench/digest.py 1 2 3

Digests are SHA-256 over the rows as JSON, so they do not depend on the
parquet encoder's version.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def table_digest(tables) -> str:
    h = hashlib.sha256()
    for tbl in tables:
        for row in tbl.to_pylist():
            h.update(json.dumps(row, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


def main() -> None:
    from dedupe_ray.fixtures import generate_kna_corpus
    from perfbench import tpch
    from perfbench.workloads import ER_DOCS, TPCH_SCALE, TPCH_SETS, TRAIN_CORPORA, TRAIN_DOCS

    for seed in (int(s) for s in sys.argv[1:]):
        er = table_digest(generate_kna_corpus(ER_DOCS, seed))
        train = table_digest(
            t for j in range(TRAIN_CORPORA)
            for t in generate_kna_corpus(TRAIN_DOCS, seed * TRAIN_CORPORA + j)
        )
        sets = [tpch.generate(TPCH_SCALE, seed * TPCH_SETS + j) for j in range(TPCH_SETS)]
        tp = table_digest(t[name] for t in sets for name in sorted(t))
        print(f"seed {seed}: er corpus {er}  train corpora {train}  query tables {tp}")


if __name__ == "__main__":
    main()
