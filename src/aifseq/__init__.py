"""aifseq: classify IDS alerts into Action-Intent States and sequence them.

Pipeline: parse Suricata EVE / Snort fast alerts into normalized records
(:mod:`aifseq.ingest`), map each to a micro/macro Action-Intent State with
declarative rules (:mod:`aifseq.classify`), then group per attacker into
episode-segmented sequences with transition and similarity analytics
(:mod:`aifseq.sequence`). The two-tier AIS catalog lives in
:mod:`aifseq.taxonomy`; the ``aifseq`` CLI wires the stages together.
"""

from aifseq.classify import (
    Classification,
    MappingError,
    MappingRule,
    MappingSpec,
    classify_alert,
    classify_stream,
    coverage_report,
    load_mapping,
    starter_mapping_document,
)
from aifseq.ingest import (
    AlertParseError,
    IngestStats,
    NormalizedAlert,
    RawRef,
    Signature,
    parse_eve_record,
    parse_snort_fast_line,
    read_alert_stream,
    render_eve_record,
    render_snort_fast_line,
)
from aifseq.sequence import (
    AisSequence,
    AttackerKey,
    Episode,
    OutOfOrderError,
    SequenceStep,
    TransitionMatrix,
    build_sequences,
    collapse_repeats,
    extract_ngrams,
    sequence_similarity,
    transition_matrix,
)
from aifseq.taxonomy import (
    AisLevel,
    AisRecord,
    LintFinding,
    Taxonomy,
    TaxonomyError,
    UnknownAisKey,
    builtin_taxonomy,
    load_taxonomy,
    validate_extension,
)

__version__ = "0.1.0"

__all__ = [
    "AisLevel",
    "AisRecord",
    "AisSequence",
    "AlertParseError",
    "AttackerKey",
    "Classification",
    "Episode",
    "IngestStats",
    "LintFinding",
    "MappingError",
    "MappingRule",
    "MappingSpec",
    "NormalizedAlert",
    "OutOfOrderError",
    "RawRef",
    "SequenceStep",
    "Signature",
    "Taxonomy",
    "TaxonomyError",
    "TransitionMatrix",
    "UnknownAisKey",
    "builtin_taxonomy",
    "build_sequences",
    "classify_alert",
    "classify_stream",
    "collapse_repeats",
    "coverage_report",
    "extract_ngrams",
    "load_mapping",
    "load_taxonomy",
    "parse_eve_record",
    "parse_snort_fast_line",
    "read_alert_stream",
    "render_eve_record",
    "render_snort_fast_line",
    "sequence_similarity",
    "starter_mapping_document",
    "transition_matrix",
    "validate_extension",
    "__version__",
]
