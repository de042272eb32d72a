"""Driver-side learning: pairwise classifier, blocking learner, active learner.

Re-creates the reference library's training stack with pure numpy (sklearn is
not available in this environment):

- :class:`LogisticClassifier` — L2-regularized logistic regression fit by
  Newton/IRLS; plays the role of dedupe's sklearn LogisticRegression
  classifier [lib: dedupe/api.py ActiveMatching.classifier], trained at
  backend/dedupe_script.py:337.
- :func:`learn_predicates` — greedy ε-set-cover (Chvátal) over the candidate
  predicate pool: choose predicates covering the labeled match pairs while
  minimizing expected candidate-pair cost on the sample [lib:
  dedupe/training.py DedupeBlockLearner].
- :class:`ActiveLearner` — uncertainty sampling over a blocked+random
  candidate pool, the ``uncertain_pairs()`` drain loop of
  backend/dedupe_script.py:295-311 [lib: dedupe/labeler.py RLRLearner].
  It keeps the feature rows of the pool and of its labels: a label's row
  is computed once, when it is marked, and each refit reuses the rows.

All of this is deliberately driver-local: training pairs are ≤ a few hundred
(max_training_pairs=100, backend/main.py:108) — distributing it would be pure
overhead. The *products* (weights + predicate ids) are broadcast into Ray
stages via closure/actor constructor args.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np
import pyarrow as pa

from dedupe_ray.config import EngineConfig
from dedupe_ray.features import pair_features
from dedupe_ray.predicates import Predicate, default_predicate_pool


class LogisticClassifier:
    """L2-regularized logistic regression (bias unpenalized), Newton/IRLS.

    ``monotone_dims`` marks feature columns that are DISTANCES: a larger
    distance must never increase match probability, so their weights are
    projected to ≤ 0 each Newton step (sign-constrained GLM). Without the
    constraint a skewed label set can learn a positive distance weight,
    which extrapolates catastrophically on pairs far outside the labeled
    range (observed on the KNA2 golden replay: city-distance weight went
    positive and glued cross-city records together)."""

    def __init__(
        self,
        l2_lambda: float = 1.0,
        monotone_dims: list[int] | None = None,
        positive_dims: list[int] | None = None,
    ):
        self.l2 = l2_lambda
        self.monotone_dims = list(monotone_dims) if monotone_dims else []
        self.positive_dims = list(positive_dims) if positive_dims else []
        self.weights: np.ndarray | None = None  # [d]
        self.bias: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, max_iter: int = 50, tol: float = 1e-8) -> None:
        n, d = X.shape
        Xb = np.column_stack([X, np.ones(n)])
        w = np.zeros(d + 1)
        reg_diag = np.full(d + 1, self.l2)
        reg_diag[d] = 0.0  # don't penalize bias
        reg = np.diag(reg_diag)
        mono = [i for i in self.monotone_dims if i < d]
        pos = [i for i in self.positive_dims if i < d]

        def project(v: np.ndarray) -> np.ndarray:
            if mono:
                v[mono] = np.minimum(v[mono], 0.0)
            if pos:
                v[pos] = np.maximum(v[pos], 0.0)
            return v

        def nll(v: np.ndarray) -> float:
            z = Xb @ v
            # log(1 + e^z) - y·z, numerically stable
            return float(
                np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * np.sum(reg_diag * v * v)
            )

        # damped projected Newton: a raw Newton step followed by projection
        # can diverge (the clipped iterate leaves the quadratic model's
        # trust region and the unconstrained dims blow up compensating) —
        # backtracking on the penalized NLL guarantees monotone descent.
        cur = nll(w)
        for _ in range(max_iter):
            z = Xb @ w
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
            g = Xb.T @ (p - y) + reg_diag * w
            s = np.maximum(p * (1 - p), 1e-6)
            H = (Xb * s[:, None]).T @ Xb + reg
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, g, rcond=None)[0]
            t = 1.0
            w_new, new = w, cur
            for _bt in range(25):
                cand = project(w - t * step)
                val = nll(cand)
                if val <= cur + 1e-12:
                    w_new, new = cand, val
                    break
                t *= 0.5
            delta = np.abs(w_new - w).max()
            w, cur = w_new, new
            if delta < tol:
                break
        self.weights = w[:d].astype(np.float64)
        self.bias = float(w[d])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = X @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "l2": self.l2,
            "monotone_dims": self.monotone_dims,
            "positive_dims": self.positive_dims,
        }

    @staticmethod
    def from_dict(d: dict) -> "LogisticClassifier":
        clf = LogisticClassifier(d.get("l2", 1.0), d.get("monotone_dims"), d.get("positive_dims"))
        clf.weights = np.asarray(d["weights"], np.float64)
        clf.bias = float(d["bias"])
        return clf


# ---------------------------------------------------------------------------
# Blocking learner (greedy set cover)
# ---------------------------------------------------------------------------


def _coverage(pred: Predicate, records: dict[str, dict]) -> dict[str, set[str]]:
    """block key → member doc_ids on the sample."""
    blocks: dict[str, set[str]] = {}
    for doc_id, rec in records.items():
        for k in pred.keys(rec):
            blocks.setdefault(k, set()).add(doc_id)
    return blocks


def _typo_audit_pairs(
    records: list[dict], fields: list[str], n: int, seed: int = 0
) -> list[tuple[dict, dict]]:
    """Synthetic duplicate pairs under a GENERIC typo model (char
    transposition, char drop, field replacement, whitespace/case noise —
    the standard record-linkage corruption classes). Each side gets 0–2
    independent corruptions, so the set includes the multi-corruption
    combinations that a ~100-pair labeled sample almost never contains.
    Used as a blocking-recall audit: every audit pair SHOULD share a block
    key under the learned predicates."""
    rng = np.random.RandomState(seed)
    out: list[tuple[dict, dict]] = []
    if not records:
        return out
    for _ in range(n):
        base = records[rng.randint(len(records))]
        pair = []
        for _side in range(2):
            rec = {f: base.get(f) or "" for f in fields}
            for _k in range(rng.randint(0, 3)):
                f = fields[rng.randint(len(fields))]
                v = rec[f]
                c = rng.randint(4)
                if c == 0 and len(v) > 3:  # adjacent-char transposition
                    j = rng.randint(1, len(v) - 2)
                    rec[f] = v[:j] + v[j + 1] + v[j] + v[j + 2:]
                elif c == 1:  # field replaced wholesale (wrong entry)
                    rec[f] = records[rng.randint(len(records))].get(f) or ""
                elif c == 2 and len(v) > 3:  # char drop
                    j = rng.randint(len(v))
                    rec[f] = v[:j] + v[j + 1:]
                elif " " in v.strip():  # word-boundary shift ('ab cd'→'abc d')
                    j = v.index(" ")
                    if j + 2 < len(v):
                        rec[f] = v[:j] + v[j + 1] + " " + v[j + 2:]
            pair.append(rec)
        out.append((pair[0], pair[1]))
    return out


def _greedy_pick(cost: dict[str, float], chosen: list[str], gain) -> str | None:
    """One greedy set-cover step: the unchosen candidate with the best
    ``gain(pid) / cost[pid]``, skipping zero gains; the first maximum in
    ``cost`` order wins. None when no candidate gains anything."""
    best_pid, best_score = None, 0.0
    for pid in cost:
        if pid in chosen:
            continue
        g = gain(pid)
        if g and g / cost[pid] > best_score:
            best_pid, best_score = pid, g / cost[pid]
    return best_pid


def learn_predicates(
    match_pairs: list[tuple[dict, dict]],
    sample_records: dict[str, dict],
    config: EngineConfig,
    recall: float = 1.0,
    max_predicates: int = 8,
    compound: bool = True,
    cost_records: dict[str, dict] | None = None,
) -> tuple[list[str], dict[str, dict]]:
    """Greedy ε-cover: pick predicate ids covering ≥ recall of match pairs,
    preferring low candidate-pair cost.

    match_pairs are (record_a, record_b) cleaned field dicts. Cost is the
    within-block pair count on ``cost_records`` (a LARGE uniform sample —
    block-size collisions are quadratic, so a few hundred rows wildly
    underestimate a predicate's cost at 10⁶⁺ rows; the caller sizes this
    sample with the corpus). Coverage is tested on the labeled matches
    first so the expensive costing only touches covering predicates.
    """
    pool = list(default_predicate_pool(config.field_names()))
    cost_records = cost_records or sample_records

    # index predicates (L5): TF-IDF n-gram canopies + token canopies at the
    # reference thresholds {.2,.4,.6,.8}, DF built from the cost sample —
    # the learner can choose them like any other predicate
    # ([lib] train(index_predicates=True))
    from dedupe_ray.predicates import (
        NGramCanopyPredicate,
        TfidfTokenCanopyPredicate,
        ngram_df,
        token_df,
    )

    index_tables: dict[str, dict] = {}
    for fname in config.field_names():
        values = [r.get(fname) or "" for r in cost_records.values()]
        df = ngram_df(values)
        if df:
            pred = NGramCanopyPredicate(fname, df, len(cost_records))
            pool.append(pred)
            index_tables[pred.pid] = {"field": fname, "df": df, "n_docs": len(cost_records)}
        tdf = token_df(values)
        if tdf:
            for thr in TfidfTokenCanopyPredicate.THRESHOLDS:
                tp = TfidfTokenCanopyPredicate(fname, tdf, len(cost_records), thr)
                pool.append(tp)
                index_tables[tp.pid] = {
                    "field": fname, "df": tdf, "n_docs": len(cost_records), "threshold": thr,
                }
        # L6: true BK-tree Levenshtein radius canopies (radii 1, 2), indexed
        # on the cost-sample's distinct values like the canopy DF tables
        from dedupe_ray.predicates import LevenshteinCanopyPredicate

        uniq_vals = sorted({v for v in values if v})
        if uniq_vals:
            for rad in LevenshteinCanopyPredicate.RADII:
                lp = LevenshteinCanopyPredicate(fname, uniq_vals, rad)
                pool.append(lp)
                index_tables[lp.pid] = {
                    "field": fname, "values": lp.values, "radius": rad,
                }

    # per-predicate: which match pairs it covers + candidate pair cost +
    # which records it REACHES (emits ≥1 key for). A record with no key
    # under a predicate can never pair under it, so a low reach rate is a
    # recall hazard invisible to pair-level set cover (the labeled matches
    # may all happen to sit in the reachable part) — the cost is divided by
    # the reach rate so blind-spotted predicates look expensive, and the
    # backstop below guarantees near-total record reachability.
    cover: dict[str, set[int]] = {}
    cost: dict[str, float] = {}
    reach: dict[str, set[str]] = {}
    pool_by_id = {p.pid: p for p in pool}
    n_cost = max(len(cost_records), 1)

    def add_candidate(pred: Predicate, covered: set[int]) -> None:
        blocks = _coverage(pred, cost_records)
        c = sum(len(m) * (len(m) - 1) // 2 for m in blocks.values())
        reached = set().union(*blocks.values()) if blocks else set()
        cover[pred.pid] = covered
        cost[pred.pid] = (c + 1.0) / max((len(reached) / n_cost) ** 2, 1e-4)
        reach[pred.pid] = reached
        pool_by_id[pred.pid] = pred

    def covers(pred: Predicate, a: dict, b: dict) -> bool:
        return bool(set(pred.keys(a)) & set(pred.keys(b)))

    for pred in pool:
        covered = {i for i, (a, b) in enumerate(match_pairs) if covers(pred, a, b)}
        if covered:
            add_candidate(pred, covered)

    # compound candidates: conjunctions of two useful simples on the same
    # pairs. The pool must NOT be only the cheapest simples: the predicates
    # that are robust to single-word corruption (any-common-token tok1|f)
    # are expensive SOLO (a shared name stem is a huge block) but cheap and
    # high-recall inside a conjunction (token ∧ exact postal) — exactly the
    # cover for the transposed-name class that cheap-only compounds miss.
    if compound:
        by_cost = [
            p for p in sorted(cover, key=lambda q: cost[q])
            if not p.startswith(("canopy", "tcanopy", "lcanopy"))
        ]
        simple_ids = by_cost[:12]
        # force the per-field any-token and whole-field predicates into the
        # conjunction pool (bounded: ≤ 2 per field)
        for p in by_cost:
            if p in simple_ids:
                continue
            if p.startswith(("token|", "tok1|", "whole|")):
                simple_ids.append(p)
        simple_ids = simple_ids[:28]
        for pa_, pb_ in combinations(simple_ids, 2):
            # a pair shares a compound key iff it shares a key under each part
            covered = cover[pa_] & cover[pb_]
            if covered:
                add_candidate(Predicate.from_id(f"{pa_}+{pb_}"), covered)

    total = len(match_pairs)
    target = int(np.ceil(recall * total))
    chosen: list[str] = []
    counts = np.zeros(total, np.int32)  # per-match coverage multiplicity

    # 3-cover greedy: first satisfy the recall target, then keep adding the
    # cheapest predicates until every labeled match is covered by ≥2, then
    # ≥3 predicates (or the budget runs out). A single covering predicate
    # is brittle — its blind spots (e.g. an n-gram key that emits nothing
    # on short values) silently drop every duplicate class the labels
    # happened not to sample; the MULTI-corruption classes (transposed name
    # AND changed street AND postal variant) are only reachable through
    # redundant, differently-shaped covers.
    for required in (1, 2, 3):
        while int((counts >= required).sum()) < target and len(chosen) < max_predicates:
            best = _greedy_pick(
                cost, chosen, lambda pid: sum(1 for i in cover[pid] if counts[i] < required)
            )
            if best is None:
                break
            chosen.append(best)
            for i in cover[best]:
                counts[i] += 1
    if not chosen:  # degenerate: fall back to whole-field on every field
        chosen = [f"whole|{f}" for f in config.field_names()]

    # reachability backstop: every cost-sample record must emit a key under
    # ≥1 chosen predicate, else its duplicates are unreachable BY
    # CONSTRUCTION regardless of the model (the 2M-doc recall gap: short
    # postal codes emit no 6-grams, so `6gram|Postal`-based covers drop the
    # whole class). Add the best-reaching predicates (canopies reach every
    # non-empty value) until < 0.2% of records are unreached.
    unreached = set(cost_records) - set().union(*(reach.get(p, set()) for p in chosen))
    extra_budget = 2
    while len(unreached) / n_cost > 0.002 and extra_budget > 0:
        best = _greedy_pick(cost, chosen, lambda pid: len(reach[pid] & unreached))
        if best is None:
            break
        chosen.append(best)
        unreached -= reach[best]
        extra_budget -= 1

    # typo-audit backstop: sample synthetic corruption pairs (generic typo
    # model, including multi-corruption combos the ~100 labels never show)
    # and, when more than 0.25% of them share no block key, extend the
    # cover. This is what catches the "transposed name AND replaced street"
    # class at corpus scale — pair-level set cover over labels cannot see it.
    # Every pick is scored against the pairs uncovered before the first
    # pick, not re-scored as the cover grows (every measured model was
    # trained this way; re-scoring changes the learned predicates), so the
    # backstop adds up to 5 predicates, ranked by how many of those pairs
    # each covers per unit cost.
    audit_recs = list(cost_records.values())[:400]
    audit = _typo_audit_pairs(audit_recs, config.field_names(), n=800)
    uncovered = [
        (a, b) for a, b in audit
        if not any(covers(pool_by_id[pid], a, b) for pid in chosen)
    ]
    if len(uncovered) > 0.0025 * len(audit):
        # every costed predicate (simple, compound, canopy) is a candidate
        fixes = {
            pid: sum(covers(pool_by_id[pid], a, b) for a, b in uncovered) for pid in cost
        }
        for _ in range(5):
            best = _greedy_pick(cost, chosen, fixes.get)
            if best is None:
                break
            chosen.append(best)

    chosen_tables = {pid: index_tables[pid] for pid in chosen if pid in index_tables}
    return chosen, chosen_tables


# ---------------------------------------------------------------------------
# Active learner
# ---------------------------------------------------------------------------


def _pairs_table(pairs: list[tuple[dict, dict]], fields: list[str]) -> pa.Table:
    data: dict[str, list] = {}
    for side, k in (("a", 0), ("b", 1)):
        for f in fields:
            data[f"{side}_{f}"] = [p[k].get(f, "") for p in pairs]
    return pa.table(data)


def features_for_pairs(
    pairs: list[tuple[dict, dict]], config: EngineConfig, idf_tables=None
) -> np.ndarray:
    if not pairs:
        return np.zeros((0, 1), np.float32)
    return pair_features(_pairs_table(pairs, config.field_names()), config, idf_tables)


@dataclass
class ActiveLearner:
    """Uncertainty-sampling active learner over an explicit candidate pool.

    The pool is built by the caller (RayDeduper.prepare_training) mirroring
    [lib] prepare_training: ~blocked_proportion of candidates are pairs
    sharing a predicate block *on the full dataset* (sampled via a Ray
    blocking pass), the rest are random pairs.
    """

    config: EngineConfig
    candidates: list[tuple[dict, dict]]
    labels: list[tuple[tuple[dict, dict], bool]] = dc_field(default_factory=list)
    # blocking provenance per candidate (which sampling predicate surfaced
    # it; "rand" for random pairs) — match-seeking queries stratify across
    # these so the labeled matches span every duplicate family, not just the
    # one whose blocks happen to rank first
    provenance: list[str] | None = None
    # broadcast idf tables for Text-type fields ({field: {"idf", "default_idf"}})
    idf_tables: dict | None = None

    def __post_init__(self) -> None:
        self._X = features_for_pairs(self.candidates, self.config, self.idf_tables)
        # feature rows of ``labels``, in order: each label's row is computed
        # once, when it is added, and every refit reads this matrix
        self._label_X = features_for_pairs(
            [p for p, _ in self.labels], self.config, self.idf_tables
        )
        from dedupe_ray.features import monotone_feature_dims

        neg, pos = monotone_feature_dims(self.config)
        self._clf = LogisticClassifier(self.config.l2_lambda, monotone_dims=neg, positive_dims=pos)
        if self.provenance is None:
            self.provenance = ["rand"] * len(self.candidates)
        self._prov_groups = sorted(set(self.provenance))
        self._prov_i = 0
        self._query_i = -1

    def _add_labels(self, new: list[tuple[tuple[dict, dict], bool]]) -> None:
        """Append labels with their feature rows (one feature call for the
        batch), then refit once."""
        if not new:
            return
        X = features_for_pairs([p for p, _ in new], self.config, self.idf_tables)
        self.labels.extend(new)
        # features_for_pairs([]) has one column, so the first rows replace it
        self._label_X = np.concatenate([self._label_X, X]) if len(self._label_X) else X
        if len({lbl for _, lbl in self.labels}) < 2:
            return
        y = np.array([1.0 if lbl else 0.0 for _, lbl in self.labels])
        self._clf.fit(self._label_X, y)

    def uncertain_pairs(self) -> list[tuple[dict, dict]]:
        """Pop the most informative candidate (reference drain loop,
        dedupe_script.py:295-304 — raises IndexError when exhausted).

        Queries round-robin over probability targets (0.5 → 0.85 → 0.15):
        maximum-uncertainty, probable-match, hard-negative. Pure uncertainty
        sampling on an imbalanced pool yields a one-sided label set — the
        predicate learner then sees too few covered matches (or the
        classifier too few hard negatives); the rotation plays the role of
        dedupe's DisagreementLearner mixing the RLR learner with the blocking
        learner [lib: dedupe/labeler.py]."""
        if not self.candidates:
            raise IndexError("no more candidates")
        if self._clf.weights is None:
            # cold start (classifier needs one label of each class): query by
            # raw mean distance — closest pair while a 'y' is missing, then
            # farthest while an 'n' is missing — mirroring RLRLearner's
            # bootstrapped first queries
            scores = self._X[:, : len(self.config.fields)].mean(axis=1)
            have_y = any(lbl for _, lbl in self.labels)
            i = int(np.argmax(scores)) if have_y else int(np.argmin(scores))
        else:
            p = self._clf.predict_proba(self._X)
            targets = (0.5, 0.85, 0.15)
            self._query_i += 1
            t = targets[self._query_i % len(targets)]
            if t == 0.85 and self._prov_groups:
                # stratified match query: restrict to one provenance group,
                # rotating — so every blocking family contributes matches
                for _ in range(len(self._prov_groups)):
                    g = self._prov_groups[self._prov_i % len(self._prov_groups)]
                    self._prov_i += 1
                    idxs = [k for k, pv in enumerate(self.provenance) if pv == g]
                    if idxs:
                        sub = np.asarray(idxs)
                        i = int(sub[np.argmin(np.abs(p[sub] - t))])
                        break
                else:
                    i = int(np.argmin(np.abs(p - t)))
            else:
                i = int(np.argmin(np.abs(p - t)))
        pair = self.candidates.pop(i)
        self.provenance.pop(i)
        self._X = np.delete(self._X, i, axis=0)
        return [pair]

    def mark(self, pair: tuple[dict, dict], is_match: bool) -> None:
        self._add_labels([(pair, is_match)])
