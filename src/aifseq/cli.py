"""Command-line surface: ingestion, classification, sequencing as batch runs.

Subcommands: ``taxonomy`` (show/export), ``validate-mapping``, ``classify``,
``sequence``. Runs are reproducible: every resolved setting lands in a
``manifest.json`` next to the outputs, record outputs are newline-delimited
JSON or RFC-4180 CSV, and output bytes depend only on inputs and config
(the manifest's ``generated_at`` is the one wall-clock field).

Exit codes: 0 success, 2 usage, 3 input I/O, 4 invalid mapping or
taxonomy, 5 input unsorted beyond the skew window.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from aifseq import __version__
from aifseq.classify import (
    MappingError,
    classify_stream,
    coverage_report,
    load_mapping,
    starter_mapping_document,
)
from aifseq.ingest import (
    EVE_FORMAT,
    SNORT_FAST_FORMAT,
    FormatDetectionError,
    read_alert_stream,
)
from aifseq.sequence import (
    STEP_COLUMNS,
    OutOfOrderError,
    build_sequences,
    episode_step_rows,
    sequence_similarity,
    sequence_to_document,
    transition_matrix,
)
from aifseq.taxonomy import TaxonomyError, builtin_taxonomy, load_taxonomy, to_document

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVALID = 4
EXIT_ORDER = 5

_FORMATS = {"eve": EVE_FORMAT, "fast": SNORT_FAST_FORMAT, "auto": "auto"}
_KEYS = {"src": "src", "src-dst": "src_dst"}


def _number(convert, ok, rule: str):
    """An argparse type that reports ``rule`` for a non-number and a value ``ok`` rejects."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(rule) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


# NaN passes every "< 0" test, and neither NaN nor inf is valid JSON.
_seconds = _number(
    float, lambda value: math.isfinite(value) and value >= 0, "must be a finite non-negative number"
)


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="alert file to read")
    sub.add_argument(
        "--format",
        choices=sorted(_FORMATS),
        default="auto",
        help="input format (auto: first line starting with '{' means eve)",
    )
    sub.add_argument(
        "--assumed-year",
        # datetime's range: a year outside it would make every fast line malformed.
        type=_number(int, lambda value: 1 <= value <= 9999, "must be a year from 1 to 9999"),
        default=None,
        help="year for fast-format timestamps (the format carries none); required for fast input",
    )
    sub.add_argument("--mapping", default=None, help="mapping JSON (default: builtin starter)")
    sub.add_argument("--taxonomy", default=None, help="taxonomy JSON (default: builtin)")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--output-format", choices=["json", "csv"], default="json")
    sub.add_argument(
        "--include-unclassified",
        action="store_true",
        help="keep sentinel verdicts in sequence outputs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aifseq",
        description="Classify IDS alerts into action-intent states and extract attacker sequences.",
    )
    parser.add_argument("--version", action="version", version=f"aifseq {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    tax = commands.add_parser("taxonomy", help="show or export the active taxonomy")
    tax_sub = tax.add_subparsers(dest="taxonomy_command", required=True)
    show = tax_sub.add_parser("show", help="list macro groups and their micro states")
    show.add_argument("--taxonomy", default=None)
    show.add_argument("--macro", default=None, help="limit the listing to one macro group")
    show.set_defaults(handler=_cmd_taxonomy_show)
    export = tax_sub.add_parser("export", help="write the taxonomy document as JSON")
    export.add_argument("--taxonomy", default=None)
    export.add_argument("-o", "--output", required=True)
    export.set_defaults(handler=_cmd_taxonomy_export)

    validate = commands.add_parser("validate-mapping", help="check a mapping document")
    validate.add_argument("--mapping", required=True)
    validate.add_argument("--taxonomy", default=None)
    validate.set_defaults(handler=_cmd_validate_mapping)

    classify = commands.add_parser("classify", help="classify an alert file")
    _add_input_args(classify)
    classify.set_defaults(handler=_cmd_classify)

    sequence = commands.add_parser("sequence", help="extract per-attacker sequences")
    _add_input_args(sequence)
    sequence.add_argument(
        "--gap-seconds",
        type=_seconds,
        default=600.0,
        help="episode boundary: split where the gap exceeds this (default 600)",
    )
    sequence.add_argument(
        "--skew-seconds",
        type=_seconds,
        default=5.0,
        help="re-sort window for slightly out-of-order input (default 5)",
    )
    sequence.add_argument("--key", choices=sorted(_KEYS), default="src")
    sequence.add_argument(
        "--transitions",
        choices=["micro", "macro", "both"],
        default=None,
        help="also write transition matrix CSVs at this level",
    )
    sequence.add_argument(
        "--similarity",
        choices=["lcs", "ngram"],
        default=None,
        help="also write pairwise attacker similarity CSV",
    )
    sequence.add_argument(
        "--ngram-n", type=_number(int, lambda value: value >= 1, "must be >= 1"), default=2
    )
    sequence.add_argument(
        "--uncollapsed-transitions",
        action="store_true",
        help="count transitions on raw step lists instead of collapsed runs",
    )
    sequence.set_defaults(handler=_cmd_sequence)
    return parser


def _load_active_taxonomy(path: str | None):
    return load_taxonomy(path) if path else builtin_taxonomy()


def _load_mapping_spec(path: str | None, taxonomy):
    if path is None:
        return load_mapping(starter_mapping_document(), taxonomy), "builtin:starter"
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep, too many digits
        raise MappingError([f"{path} is not valid JSON: {exc}"]) from None
    return load_mapping(document, taxonomy), path


def _cmd_taxonomy_show(args: argparse.Namespace) -> int:
    taxonomy = _load_active_taxonomy(args.taxonomy)
    macros = taxonomy.macro_keys()
    if args.macro is not None:
        if not taxonomy.has("macro", args.macro):
            print(f"error: unknown macro {args.macro!r}", file=sys.stderr)
            return EXIT_USAGE
        macros = [args.macro]
    else:
        print(
            f"taxonomy {taxonomy.version}: {len(taxonomy.macros)} macro states, "
            f"{len(taxonomy.micros)} micro states"
        )
    for macro_key in macros:
        record = taxonomy.describe("macro", macro_key)
        print(f"{macro_key}: {record.display_name}")
        for micro_key in taxonomy.micros_of(macro_key):
            micro = taxonomy.describe("micro", micro_key)
            print(f"  - {micro_key}: {micro.display_name}")
    return EXIT_OK


def _cmd_taxonomy_export(args: argparse.Namespace) -> int:
    taxonomy = _load_active_taxonomy(args.taxonomy)
    path = Path(args.output)
    path.write_text(json.dumps(to_document(taxonomy), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate_mapping(args: argparse.Namespace) -> int:
    taxonomy = _load_active_taxonomy(args.taxonomy)
    spec, _ = _load_mapping_spec(args.mapping, taxonomy)
    print(f"mapping OK: {len(spec.rules)} rules, spec_version {spec.spec_version}")
    return EXIT_OK


def _read_classified(args: argparse.Namespace):
    taxonomy = _load_active_taxonomy(args.taxonomy)
    spec, mapping_source = _load_mapping_spec(args.mapping, taxonomy)
    alerts, stats = read_alert_stream(args.input, _FORMATS[args.format], args.assumed_year)
    return taxonomy, spec, mapping_source, classify_stream(alerts, spec, taxonomy), stats


_CLASSIFICATION_COLUMNS = (
    "alert_ref", "ts", "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
    "gid", "sid", "rev", "msg", "category", "severity", "micro", "macro",
    "matched_rule", "confidence",
)


def _classification_row(alert, verdict) -> list:
    """One record's values, in ``_CLASSIFICATION_COLUMNS`` order."""
    return [
        str(alert.raw_ref),
        alert.timestamp.isoformat(),
        alert.src_ip,
        alert.src_port,
        alert.dst_ip,
        alert.dst_port,
        alert.protocol,
        alert.generator_id,
        alert.signature_id,
        alert.revision,
        alert.signature_msg,
        alert.category,
        alert.severity,
        verdict.micro,
        verdict.macro,
        verdict.matched_rule,
        verdict.confidence,
    ]


def _write_ndjson(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several fields.

    Minimal quoting: a field holding a comma, a double quote, CR or LF is
    quoted with its quotes doubled, and ``None`` is an empty field.
    """
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(map(_csv_field, row)) + "\r\n" for row in rows)


def _write_manifest(out_dir: Path, command: str, config: dict, stats, outputs: list[str]) -> None:
    manifest = {
        "tool": f"aifseq {__version__}",
        "command": command,
        "config": config,
        "ingest_stats": stats.to_dict(),
        "outputs": outputs,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _base_config(args: argparse.Namespace, taxonomy, spec, mapping_source: str) -> dict:
    return {
        "input": args.input,
        "format": args.format,
        "assumed_year": args.assumed_year,
        "mapping": mapping_source,
        "taxonomy": args.taxonomy or "builtin",
        "taxonomy_version": taxonomy.version,
        "spec_version": spec.spec_version,
        "default_confidence": spec.default_confidence,
        "output_format": args.output_format,
        "include_unclassified": args.include_unclassified,
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    taxonomy, spec, mapping_source, classified, stats = _read_classified(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = []

    def rows():
        for alert, verdict in classified:
            verdicts.append(verdict)
            yield _classification_row(alert, verdict)

    if args.output_format == "json":
        name = "classifications.ndjson"
        _write_ndjson(out_dir / name, (dict(zip(_CLASSIFICATION_COLUMNS, row)) for row in rows()))
    else:
        name = "classifications.csv"
        _write_csv(out_dir / name, chain([_CLASSIFICATION_COLUMNS], rows()))

    report = coverage_report(spec, verdicts)
    (out_dir / "coverage.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    outputs = [name, "coverage.json"]

    config = _base_config(args, taxonomy, spec, mapping_source)
    _write_manifest(out_dir, "classify", config, stats, outputs)
    print(
        f"classified {report.total} alerts "
        f"({report.unclassified_fraction:.3f} unclassified fraction) -> {out_dir}"
    )
    return EXIT_OK


def _write_sequences_csv(path: Path, sequences) -> None:
    """``sequences.csv``: the key and episode columns are formatted once per episode."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["key", "episode", "start", "end", "step", *STEP_COLUMNS]) + "\r\n")
        for seq in sequences:
            key = _csv_field(seq.key.label())
            for ep_index, episode in enumerate(seq.episodes):
                # ISO-8601 times never hold a comma, a quote, CR or LF.
                prefix = f"{key},{ep_index},{episode.start.isoformat()},{episode.end.isoformat()},"
                # One write per episode: writelines would call write once per row.
                fh.write("".join(
                    f"{prefix}{step},{ts},{_csv_field(micro)},{_csv_field(macro)},"
                    f"{run},{_csv_field(ref)}\r\n"
                    for step, (ts, micro, macro, run, ref) in enumerate(episode_step_rows(episode))
                ))


def _write_similarity_csv(path: Path, sequences, method: str, n: int) -> None:
    """``similarity.csv``: one row per pair, each key label formatted once."""
    labels = [_csv_field(seq.key.label()) for seq in sequences]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("key_a,key_b,method,score\r\n")
        for i, left in enumerate(sequences):
            prefix = f"{labels[i]},"
            fh.writelines(
                f"{prefix}{label},{method},{sequence_similarity(left, right, method, n=n):.6f}\r\n"
                for right, label in zip(sequences[i + 1 :], labels[i + 1 :])
            )


def _cmd_sequence(args: argparse.Namespace) -> int:
    taxonomy, spec, mapping_source, classified, stats = _read_classified(args)
    sequences = build_sequences(
        list(classified),
        key_config=_KEYS[args.key],
        gap_threshold=args.gap_seconds,
        include_unclassified=args.include_unclassified,
        skew_seconds=args.skew_seconds,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    if args.output_format == "json":
        docs = (sequence_to_document(seq) for seq in sequences)
        _write_ndjson(out_dir / "sequences.ndjson", docs)
        outputs.append("sequences.ndjson")
    else:
        _write_sequences_csv(out_dir / "sequences.csv", sequences)
        outputs.append("sequences.csv")

    if args.transitions:
        levels = ["micro", "macro"] if args.transitions == "both" else [args.transitions]
        for level in levels:
            matrix = transition_matrix(
                sequences, level, collapsed=not args.uncollapsed_transitions
            )
            name = f"transitions_{level}.csv"
            _write_csv(out_dir / name, matrix.to_rows())
            outputs.append(name)

    if args.similarity:
        method = "lcs_ratio" if args.similarity == "lcs" else "ngram_jaccard"
        _write_similarity_csv(out_dir / "similarity.csv", sequences, method, args.ngram_n)
        outputs.append("similarity.csv")

    config = _base_config(args, taxonomy, spec, mapping_source)
    config.update(
        {
            "gap_seconds": args.gap_seconds,
            "skew_seconds": args.skew_seconds,
            "key": args.key,
            "transitions": args.transitions,
            "similarity": args.similarity,
            "ngram_n": args.ngram_n,
            "uncollapsed_transitions": args.uncollapsed_transitions,
        }
    )
    _write_manifest(out_dir, "sequence", config, stats, outputs)
    print(f"wrote {len(sequences)} sequences -> {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The run holds every alert until build_sequences ends, and the cyclic
    # collector would rescan them all for nothing: the pipeline builds no
    # reference cycles per record, so reference counting frees what it makes.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TaxonomyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MappingError as exc:
        for finding in exc.findings:
            print(f"finding: {finding}", file=sys.stderr)
        return EXIT_INVALID
    except OutOfOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except FormatDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
