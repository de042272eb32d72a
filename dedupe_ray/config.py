"""Engine configuration.

Mirrors the reference's field/variable definitions and fixed hyperparameters
(reference: backend/dedupe_script.py:159-162,184-194 and backend/main.py:82-112)
as plain dataclasses. A field config is ``{'field', 'type', 'has_missing'}`` in
the reference; here it is :class:`FieldConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

# Missing-value sentinel — the literal string the reference preprocess maps
# empty / NaN cells to (backend/dedupe_script.py:18-31). Part of observable
# output semantics, so kept verbatim.
MISSING = "N/A"

FIELD_TYPES = (
    # call-site types (dedupe_script.py:273-286)
    "String", "Text", "Price", "DateTime", "Exact",
    # library-only variable types ([lib: dedupe/variables/*], SURVEY §1.2)
    "ShortString", "Categorical", "LatLong", "Set", "Interaction", "Exists",
    # user-extension surface ([lib: dedupe/variables/base.py custom
    # Variable subclasses]: user supplies comparator + predicates)
    "Custom",
)


@dataclass(frozen=True)
class FieldConfig:
    """One matching field (reference variable definition, dedupe_script.py:266-286).

    ``categories`` is required for Categorical (the declared category list,
    [lib: dedupe/variables/categorical_type.py]); ``interaction_fields``
    names the member fields of an Interaction variable ([lib:
    dedupe/variables/interaction.py] — the feature is the product of the
    members' primary features)."""

    field: str
    type: str = "String"
    has_missing: bool = True
    categories: tuple[str, ...] | None = None
    interaction_fields: tuple[str, ...] | None = None
    # Adds a second feature column (`ta_<field>`): worst-token alignment
    # distance (distances.token_align_batch) — separates "a token was
    # corrupted" (duplicate) from "a token was replaced" (distinct entity
    # sharing the surrounding name frame). String-family fields only.
    token_align: bool = False
    # Custom type only: dotted "module:attr" path to a BATCH comparator
    # (list[str], list[str]) -> array-like of float32. A path (not a
    # callable) so settings JSON round-trips and Ray workers resolve it by
    # import — the reference pickles custom Variable comparators into its
    # settings file; an import path is the JSON-safe equivalent.
    comparator: str | None = None
    # Custom type only: True if the comparator returns a SIMILARITY
    # (classifier weight constrained ≥ 0); False for a distance (≤ 0).
    similarity: bool = False

    def __post_init__(self) -> None:
        if self.type not in FIELD_TYPES:
            raise ValueError(f"unknown field type {self.type!r}; one of {FIELD_TYPES}")
        if self.type == "Custom" and not self.comparator:
            raise ValueError('Custom fields require comparator="module:attr"')
        if self.token_align and self.type not in ("String", "ShortString", "Text"):
            raise ValueError("token_align applies to String/ShortString/Text fields")
        if self.type == "Categorical" and not self.categories:
            raise ValueError("Categorical fields require a declared category list")
        if self.type == "Interaction" and not self.interaction_fields:
            raise ValueError("Interaction fields require interaction_fields")
        # JSON round-trips lists; dataclass equality/persistence want tuples
        if self.categories is not None and not isinstance(self.categories, tuple):
            object.__setattr__(self, "categories", tuple(self.categories))
        if self.interaction_fields is not None and not isinstance(self.interaction_fields, tuple):
            object.__setattr__(self, "interaction_fields", tuple(self.interaction_fields))


@dataclass
class EngineConfig:
    """Pipeline tunables.

    Defaults track the reference's fixed hyperparameters
    (backend/main.py:101-112, backend/dedupe_script.py:184-194) where one
    exists; scale knobs (salting, caps, batch sizes) are new — the reference
    is single-process and has no equivalents.
    """

    fields: list[FieldConfig] = dc_field(default_factory=list)

    # --- reference-mirrored knobs ---
    similarity_threshold: float = 0.5  # dedupe_script.py:186 default
    max_training_rows: int = 400  # dedupe_script.py:193
    max_training_pairs: int = 100  # main.py:108
    sample_size: int = 1500  # [lib] prepare_training default
    blocked_proportion: float = 0.9  # [lib] prepare_training default

    # --- scale knobs (Ray-native; no reference equivalent) ---
    # Blocks larger than this emit no pairs, only one ``oversized`` marker row
    # each (blocking.make_bucket_pair_emit_fn); candidate_pairs returns the
    # markers next to the pairs so the dropped-block count is reported.
    max_block_size: int = 1024
    # Records-side broadcast join limit: below this row count the record table
    # is ray.put() once (shared-memory Arrow) and looked up map-side; above
    # it, two bucketed_lookup_joins (one per pair side) attach the records.
    # Short-string entity records are ~200 B/row → 2M rows ≈ 400 MB in the
    # object store, comfortably broadcastable on a production node; the
    # bucketed join is the 10⁹+-row path.
    broadcast_record_limit: int = 2_000_000
    # Connected components: below this edge count a driver-side union-find is
    # exact and fast; above it, distributed min-label propagation runs.
    cc_driver_edge_limit: int = 5_000_000
    # dedupe's max_components analogue and the full-matrix HAC bound: a
    # component larger than this is split before HAC by dropping its weakest
    # quartile of edges and recursing on the pieces, the same way on both CC
    # paths ([lib: dedupe/clustering.py]). HAC costs O(n²) memory per
    # component, which is why the default is far below dedupe's 30,000.
    max_component_size: int = 1_500
    # Scoring stage batch size (distance kernels are batched DPs — bigger
    # batches amortize per-task overhead; memory per batch is tiny).
    score_batch_size: int = 16384
    # Block-explode / preprocess batch size.
    map_batch_size: int = 8192
    # L2 regularization strength for the pairwise logistic classifier
    # (sklearn LogisticRegression C=1.0 equivalent: lambda = 1/C).
    l2_lambda: float = 1.0
    # Random seed for sampling stages.
    seed: int = 42

    def field_names(self) -> list[str]:
        return [f.field for f in self.fields]

    @staticmethod
    def auto_detect(columns: list[str]) -> "EngineConfig":
        """Reference field auto-detection: every column becomes a String field
        with has_missing=True (backend/dedupe_script.py:159-162). This engine
        additionally enables the token-alignment feature column on every
        auto-detected String field (no reference counterpart; see
        FieldConfig.token_align)."""
        return EngineConfig(
            fields=[
                FieldConfig(field=c, type="String", has_missing=True, token_align=True)
                for c in columns
            ]
        )
