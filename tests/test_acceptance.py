"""Acceptance checks: one criterion per test, one printed verdict line each.

Each test prints ``[ACCEPTANCE] criterion N (<label>): PASS|FAIL`` outside
pytest's capture so the verdict survives into any piped log. Criteria 1-7
gate; criterion 8 is a documented throughput measurement and always
reports its number without gating.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import time
from datetime import datetime, timedelta, timezone
from itertools import groupby, product
from pathlib import Path

from aifseq.classify import (
    Classification,
    classify_alert,
    load_mapping,
    starter_mapping_document,
)
from aifseq.cli import main as cli_main
from aifseq.ingest import (
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
    SequenceStep,
    build_sequences,
    collapse_repeats,
    sequence_similarity,
    transition_matrix,
)
from aifseq.taxonomy import builtin_taxonomy, from_document, to_document

DATA_DIR = Path(__file__).parent / "data"
BASE = datetime(2021, 3, 1, 8, 0, 0, tzinfo=timezone.utc)


def _report(capsys, number: int, label: str, ok: bool, extra: str = "") -> None:
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{extra}")


def test_criterion_1_taxonomy_fidelity(capsys):
    ok = False
    try:
        builtin_taxonomy.cache_clear()
        started = time.perf_counter()
        taxonomy = builtin_taxonomy()
        assert len(taxonomy.macros) == 11
        assert len(taxonomy.micros) == 35
        generated = [
            (micro.key, micro.display_name, taxonomy.macro_of(micro.key))
            for micro in taxonomy.micros
        ]
        with open(DATA_DIR / "micro_macro_table.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            expected = [
                (row["micro_key"], row["micro_display"], row["macro_key"]) for row in reader
            ]
        assert generated == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        ok = True
    finally:
        _report(capsys, 1, "taxonomy fidelity", ok)


def _randomized_taxonomy_mutation(doc: dict, rng: random.Random, tag: int) -> dict:
    for op_index in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        if op == 0:
            doc["macros"].append(
                {
                    "key": f"zz_macro_{tag}_{op_index}",
                    "display_name": "Added Macro",
                    "description": "Synthetic macro state added by the mutation suite.",
                }
            )
        elif op == 1:
            parent = rng.choice(doc["macros"])["key"]
            doc["micros"].append(
                {
                    "key": f"zz_micro_{tag}_{op_index}",
                    "display_name": "Added Micro",
                    "description": "Synthetic micro state added by the mutation suite.",
                    "parent": parent,
                }
            )
        elif op == 2 and len(doc["micros"]) > 1:
            doc["micros"].pop(rng.randrange(len(doc["micros"])))
        elif op == 3:
            entry = rng.choice(doc["micros"] + doc["macros"])
            entry["description"] = f"Edited description {tag}-{op_index}."
        elif op == 4:
            rng.shuffle(doc["micros"])
        elif op == 5:
            rng.shuffle(doc["macros"])
        else:
            doc["version"] = f"mut-{tag}.{op_index}"
    return doc


def _assert_partition(taxonomy) -> None:
    grouped = [key for macro in taxonomy.macro_keys() for key in taxonomy.micros_of(macro)]
    assert len(grouped) == len(taxonomy.micros)
    assert sorted(grouped) == sorted(taxonomy.micro_keys())
    for macro in taxonomy.macro_keys():
        for key in taxonomy.micros_of(macro):
            assert taxonomy.macro_of(key) == macro


def test_criterion_2_partition_and_round_trip(capsys):
    ok = False
    try:
        rng = random.Random(20240815)
        base = to_document(builtin_taxonomy())
        for iteration in range(1000):
            doc = json.loads(json.dumps(base))
            _randomized_taxonomy_mutation(doc, rng, iteration)
            taxonomy = from_document(doc)
            _assert_partition(taxonomy)
            assert from_document(to_document(taxonomy)) == taxonomy
        ok = True
    finally:
        _report(capsys, 2, "partition and round-trip, 1000 mutations", ok)


_CORPUS_MSGS = [
    "GPL ATTACK_RESPONSE id check returned root",
    "ET SCAN Behavioral unusual port 445 traffic",
    "ET POLICY Outbound document transfer",
    "ET DOS SYN flood inbound",
    "ICMP PING undefined code",
]
_CORPUS_CATEGORIES = [
    "Detection of a Network Scan",
    "Attempted Administrator Privilege Gain",
    "Misc activity",
    None,
]


def _corpus_alert(rng: random.Random, index: int) -> NormalizedAlert:
    protocol = rng.choice(["TCP", "UDP", "ICMP"])
    portful = protocol in ("TCP", "UDP")
    if rng.random() < 0.2:
        src, dst = "2001:db8::5", "2001:db8::20"
    else:
        src, dst = f"10.0.{rng.randint(0, 9)}.{rng.randint(1, 254)}", "192.168.1.20"
    return NormalizedAlert(
        timestamp=BASE + timedelta(seconds=index * 7.3, microseconds=rng.randrange(1_000_000)),
        src_ip=src,
        src_port=rng.randint(1024, 65535) if portful else None,
        dst_ip=dst,
        dst_port=rng.randint(1, 1024) if portful else None,
        signature=Signature(
            protocol,
            rng.choice([1, 1, 3]),
            rng.randint(1, 3_000_000),
            rng.randint(0, 9),
            rng.choice(_CORPUS_MSGS),
            rng.choice(_CORPUS_CATEGORIES),
            rng.choice([None, 1, 2, 3]),
        ),
        source_format="eve",
        raw_ref=RawRef("corpus", index),
    )


def _mutate_line(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        if not line:
            break
        i = rng.randrange(len(line))
        op = rng.randrange(6)
        if op == 0:
            line = line[:i] + line[i + 1 :]
        elif op == 1:
            line = line[:i] + chr(rng.randrange(32, 127)) + line[i:]
        elif op == 2:
            line = line[:i] + chr(rng.randrange(32, 127)) + line[i + 1 :]
        elif op == 3:
            line = line[:i]
        elif op == 4:
            line = line + line[:i]
        else:
            j = rng.randrange(len(line))
            chars = list(line)
            chars[i], chars[j] = chars[j], chars[i]
            line = "".join(chars)
    return line


def test_criterion_3_parser_equivalence_and_fuzz(capsys):
    ok = False
    try:
        rng = random.Random(20240816)
        corpus = [_corpus_alert(rng, i) for i in range(60)]
        assert len(corpus) >= 50
        for alert in corpus:
            from_eve = parse_eve_record(render_eve_record(alert))
            from_fast = parse_snort_fast_line(render_snort_fast_line(alert), assumed_year=2021)
            assert from_eve.content_fields() == alert.content_fields()
            assert from_fast.content_fields() == alert.content_fields()
            assert from_eve.content_fields() == from_fast.content_fields()

        eve_lines = [render_eve_record(a) for a in corpus]
        fast_lines = [render_snort_fast_line(a) for a in corpus]
        mutated_eve = [_mutate_line(rng, rng.choice(eve_lines)) for _ in range(5000)]
        mutated_fast = [_mutate_line(rng, rng.choice(fast_lines)) for _ in range(5000)]

        alerts, stats = read_alert_stream(mutated_eve, fmt="eve")
        list(alerts)
        assert stats.reconciles()
        alerts, stats = read_alert_stream(mutated_fast, fmt="snort_fast", assumed_year=2021)
        list(alerts)
        assert stats.reconciles()
        ok = True
    finally:
        _report(capsys, 3, "parser equivalence and 10000-line fuzz", ok)


_RULE_CATEGORIES = ["Alpha", "Beta", "Gamma"]
_RULE_TOKENS = ["scan", "probe", "root", "login", "flood", "beacon"]
_RULE_TARGETS = [
    "host_discovery",
    "service_discovery",
    "root_privilege_escalation",
    "end_point_dos",
    "data_exfiltration",
    "lateral_movement",
    "unclassified",
]


def _random_mapping_doc(rng: random.Random) -> dict:
    rules = []
    for i in range(rng.randint(1, 10)):
        match: dict = {}
        if rng.random() < 0.5:
            match["category_equals"] = rng.choice(_RULE_CATEGORIES)
        if rng.random() < 0.5:
            match["msg_contains_all"] = rng.sample(_RULE_TOKENS, rng.randint(1, 2))
        if rng.random() < 0.3:
            match["msg_regex"] = rng.choice(_RULE_TOKENS) + r"\b"
        if rng.random() < 0.4:
            lo = rng.randint(1, 60)
            match["sid_in"] = [[lo, lo + rng.randint(0, 25)]]
        if rng.random() < 0.2:
            match["gid_equals"] = rng.randint(1, 2)
        if rng.random() < 0.3:
            match["severity_at_most"] = rng.randint(1, 4)
        if not match:
            match["category_equals"] = rng.choice(_RULE_CATEGORIES)
        rules.append(
            {
                "rule_id": f"r{i:02d}",
                "priority": rng.randint(0, 5),
                "match": match,
                "target_micro": rng.choice(_RULE_TARGETS),
                "confidence": round(rng.uniform(0.1, 1.0), 2),
            }
        )
    return {"spec_version": "rand", "default_confidence": 0.5, "rules": rules}


def _random_alert_for_rules(rng: random.Random, index: int) -> NormalizedAlert:
    return NormalizedAlert(
        timestamp=BASE + timedelta(seconds=index),
        src_ip="10.0.0.5",
        src_port=40000,
        dst_ip="192.168.1.20",
        dst_port=80,
        signature=Signature(
            "TCP",
            rng.randint(1, 2),
            rng.randint(1, 100),
            1,
            " ".join(rng.sample(_RULE_TOKENS, rng.randint(1, 4))),
            rng.choice(_RULE_CATEGORIES + [None]),
            rng.choice([None, 1, 2, 3, 4]),
        ),
        source_format="eve",
        raw_ref=RawRef("rand", index),
    )


def test_criterion_4_classifier_determinism(capsys):
    ok = False
    try:
        taxonomy = builtin_taxonomy()
        rng = random.Random(20240817)
        for iteration in range(1000):
            doc = _random_mapping_doc(rng)
            spec = load_mapping(doc, taxonomy)
            alert = _random_alert_for_rules(rng, iteration)

            # Oracle: evaluate every rule, then apply the tie-break chain; the
            # winner's target comes from its document, not from the compiled rule.
            msg_lower = alert.signature.signature_msg.lower()
            matching = [r for r in spec.rules if r.matches(alert.signature, msg_lower)]
            if matching:
                best = sorted(
                    matching, key=lambda r: (-r.priority, -r.predicate_count, r.rule_id)
                )[0]
                expected_micro = next(
                    raw["target_micro"] for raw in doc["rules"] if raw["rule_id"] == best.rule_id
                )
                expected_rule = best.rule_id if expected_micro != "unclassified" else None
            else:
                expected_micro, expected_rule = "unclassified", None

            verdict = classify_alert(alert, spec, taxonomy)
            assert (verdict.micro, verdict.matched_rule) == (expected_micro, expected_rule)
            assert verdict.macro == taxonomy.macro_of(verdict.micro)

            shuffled = json.loads(json.dumps(doc))
            rng.shuffle(shuffled["rules"])
            again = classify_alert(alert, load_mapping(shuffled, taxonomy), taxonomy)
            assert (again.micro, again.macro, again.matched_rule, again.confidence) == (
                verdict.micro,
                verdict.macro,
                verdict.matched_rule,
                verdict.confidence,
            )
        ok = True
    finally:
        _report(capsys, 4, "classifier determinism, 1000 instances", ok)


def _step_pair(offset: float, micro: str, src: str):
    taxonomy = builtin_taxonomy()
    index = int(offset * 1000) % 1_000_000
    alert = NormalizedAlert(
        timestamp=BASE + timedelta(seconds=offset),
        src_ip=src,
        src_port=40000,
        dst_ip="192.168.1.20",
        dst_port=80,
        signature=Signature("TCP", 1, 1, 1, "x", None, 2),
        source_format="eve",
        raw_ref=RawRef("seq", index),
    )
    return alert, Classification(
        micro=micro,
        macro=taxonomy.macro_of(micro),
        matched_rule="r",
        confidence=0.9,
    )


def _oracle_split(times: list[datetime], gap: float) -> list[list[datetime]]:
    if not times:
        return []
    breaks = [i for i in range(1, len(times)) if (times[i] - times[i - 1]).total_seconds() > gap]
    bounds = [0, *breaks, len(times)]
    return [times[a:b] for a, b in zip(bounds, bounds[1:])]


def test_criterion_5_sequencing_oracle(capsys):
    ok = False
    try:
        rng = random.Random(20240818)
        micros = ["host_discovery", "service_discovery", "root_privilege_escalation", "end_point_dos"]
        for _ in range(500):
            length = rng.randint(0, 50)
            offsets = sorted(round(rng.uniform(0, 8000), 3) for _ in range(length))
            gap = rng.choice([30.0, 120.0, 600.0])
            stream = [_step_pair(o, rng.choice(micros), "10.0.0.5") for o in offsets]
            seqs = build_sequences(stream, gap_threshold=gap)

            got = [[step.ts for step in ep.steps] for seq in seqs for ep in seq.episodes]
            expected = _oracle_split([BASE + timedelta(seconds=o) for o in offsets], gap)
            assert got == expected

            labels = [rng.choice("abcd") for _ in range(rng.randint(0, 30))]
            once = collapse_repeats(labels)
            assert collapse_repeats(once) == once
            assert len(once) <= len(labels)
            assert [k for k, _ in groupby(labels)] == [label for label, _ in once]
            assert sum(run for _, run in once) == len(labels)

            for level in ("micro", "macro"):
                matrix = transition_matrix(seqs, level)
                expected_total = sum(
                    len(ep_labels) - 1
                    for seq in seqs
                    for ep_labels in seq.collapsed_episode_labels()
                )
                assert matrix.total() == expected_total
        ok = True
    finally:
        _report(capsys, 5, "sequencing oracle, 500 timestamp sets", ok)


def _label_sequence(labels: tuple[str, ...], who: str) -> AisSequence:
    key = AttackerKey(key_fields=("src_ip",), value=(who,))
    if not labels:
        return AisSequence(key=key, episodes=(), gap_threshold=600.0)
    steps = tuple(
        SequenceStep(BASE + timedelta(seconds=i), label, label, RawRef("sim", i))
        for i, label in enumerate(labels)
    )
    return AisSequence(key=key, episodes=(Episode(steps=steps),), gap_threshold=600.0)


def _oracle_collapse(labels) -> list[str]:
    return [label for label, _ in groupby(labels)]


def _oracle_lcs_len_table(x, y) -> int:
    table = [[0] * (len(y) + 1) for _ in range(len(x) + 1)]
    for i in range(1, len(x) + 1):
        for j in range(1, len(y) + 1):
            if x[i - 1] == y[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(x)][len(y)]


def _is_subsequence(candidate, sequence) -> bool:
    it = iter(sequence)
    return all(item in it for item in candidate)


def _oracle_lcs_len_enumeration(x, y) -> int:
    # Truly brute force: try every subsequence of x, longest first.
    best = 0
    for mask in range(1 << len(x)):
        sub = [x[i] for i in range(len(x)) if mask >> i & 1]
        if len(sub) > best and _is_subsequence(sub, y):
            best = len(sub)
    return best


def _oracle_lcs_ratio(x_labels, y_labels, lcs_len) -> float:
    cx, cy = _oracle_collapse(x_labels), _oracle_collapse(y_labels)
    if not cx and not cy:
        return 1.0
    if not cx or not cy:
        return 0.0
    return lcs_len(cx, cy) / max(len(cx), len(cy))


def _oracle_jaccard(x_labels, y_labels, n: int) -> float:
    cx, cy = _oracle_collapse(x_labels), _oracle_collapse(y_labels)
    if not cx and not cy:
        return 1.0
    if not cx or not cy:
        return 0.0
    grams_x = {tuple(cx[i : i + n]) for i in range(len(cx) - n + 1)}
    grams_y = {tuple(cy[i : i + n]) for i in range(len(cy) - n + 1)}
    union = grams_x | grams_y
    if not union:
        return 1.0 if cx == cy else 0.0
    return len(grams_x & grams_y) / len(union)


def test_criterion_6_similarity_exhaustive(capsys):
    ok = False
    try:
        alphabet = ("a", "b", "c")

        # Every ordered pair over lengths <= 4, against the
        # subsequence-enumeration LCS oracle and the n-gram oracle.
        short = [()]
        for length in range(1, 5):
            short.extend(product(alphabet, repeat=length))
        short_seqs = {labels: _label_sequence(labels, "x") for labels in short}
        partner = {labels: _label_sequence(labels, "y") for labels in short}
        for x_labels in short:
            for y_labels in short:
                x, y = short_seqs[x_labels], partner[y_labels]
                lcs = sequence_similarity(x, y, "lcs_ratio")
                jac = sequence_similarity(x, y, "ngram_jaccard", n=2)
                assert lcs == _oracle_lcs_ratio(x_labels, y_labels, _oracle_lcs_len_enumeration)
                assert jac == _oracle_jaccard(x_labels, y_labels, 2)
                assert 0.0 <= lcs <= 1.0 and 0.0 <= jac <= 1.0
                assert lcs == sequence_similarity(y, x, "lcs_ratio")
                assert jac == sequence_similarity(y, x, "ngram_jaccard", n=2)

        # Every sequence over lengths <= 10: self-similarity is exactly 1,
        # and both methods agree with the full-table oracle against the
        # reversed partner.
        for length in range(0, 11):
            for labels in product(alphabet, repeat=length):
                seq = _label_sequence(labels, "x")
                assert sequence_similarity(seq, seq, "lcs_ratio") == 1.0
                assert sequence_similarity(seq, seq, "ngram_jaccard", n=2) == 1.0
                reversed_labels = labels[::-1]
                if labels <= reversed_labels:
                    rev = _label_sequence(reversed_labels, "y")
                    assert sequence_similarity(seq, rev, "lcs_ratio") == _oracle_lcs_ratio(
                        labels, reversed_labels, _oracle_lcs_len_table
                    )
                    assert sequence_similarity(seq, rev, "ngram_jaccard", n=2) == _oracle_jaccard(
                        labels, reversed_labels, 2
                    )
        ok = True
    finally:
        _report(capsys, 6, "similarity exhaustive over 3-symbol alphabet", ok)


def test_criterion_7_golden_run(capsys, tmp_path):
    ok = False
    try:
        golden = DATA_DIR / "golden_scenario.eve.json"
        runs = []
        elapsed = None
        for name in ("run1", "run2"):
            cls_dir = tmp_path / name / "classify"
            seq_dir = tmp_path / name / "sequence"
            started = time.perf_counter()
            assert cli_main(["classify", "--input", str(golden), "--out", str(cls_dir)]) == 0
            assert (
                cli_main(
                    [
                        "sequence",
                        "--input", str(golden),
                        "--out", str(seq_dir),
                        "--transitions", "both",
                        "--similarity", "lcs",
                    ]
                )
                == 0
            )
            if elapsed is None:
                elapsed = time.perf_counter() - started
            runs.append((cls_dir, seq_dir))

        for rel in ("classifications.ndjson", "coverage.json"):
            assert (runs[0][0] / rel).read_bytes() == (runs[1][0] / rel).read_bytes()
        for rel in (
            "sequences.ndjson",
            "transitions_micro.csv",
            "transitions_macro.csv",
            "similarity.csv",
        ):
            assert (runs[0][1] / rel).read_bytes() == (runs[1][1] / rel).read_bytes()

        manifest = json.loads((runs[0][0] / "manifest.json").read_text())
        assert manifest["ingest_stats"]["alerts_emitted"] == 200
        assert manifest["ingest_stats"]["malformed"] == 0

        docs = {
            json.loads(line)["key"]: json.loads(line)
            for line in (runs[0][1] / "sequences.ndjson").read_text().splitlines()
        }
        assert set(docs) == {"10.0.0.5", "10.0.0.66"}
        flat_macros = [
            step["macro"]
            for episode in docs["10.0.0.5"]["episodes"]
            for step in episode["steps"]
        ]
        assert _is_subsequence(
            ["active_recon", "privilege_escalation", "disclosure"], flat_macros
        )
        assert elapsed is not None and elapsed < 5.0
        ok = True
    finally:
        _report(capsys, 7, "golden two-attacker run", ok)


CRITERION_8_PASSES = 5


def _timed_pass(lines, step) -> tuple[int, float]:
    """How many lines one pass hands to ``step``, and how many per second."""
    started = time.perf_counter()
    count = 0
    for line in lines:
        step(line)
        count += 1
    return count, count / (time.perf_counter() - started)


def test_criterion_8_throughput_documented(capsys):
    ok = False
    report = ""
    try:
        taxonomy = builtin_taxonomy()
        spec = load_mapping(starter_mapping_document(), taxonomy)
        rng = random.Random(20240819)
        lines = [render_eve_record(_corpus_alert(rng, i)) for i in range(10_000)] * 6

        def parse_and_classify(line):
            classify_alert(parse_eve_record(line), spec, taxonomy)

        # One pass swings by up to 2x on a shared machine, so each rate is
        # the median and the best of several passes, the two kinds alternating.
        steps = {"parse+classify": parse_and_classify, "parse alone": parse_eve_record}
        rates = {label: [] for label in steps}
        for _ in range(CRITERION_8_PASSES):
            for label, step in steps.items():
                count, rate = _timed_pass(lines, step)
                assert count == 60_000
                assert rate > 0
                rates[label].append(rate)
        report = ", ".join(
            f"{label} median {statistics.median(values):,.0f} best {max(values):,.0f}"
            for label, values in rates.items()
        )
        ok = True
    finally:
        _report(
            capsys,
            8,
            "throughput",
            ok,
            f" - alerts/s over {CRITERION_8_PASSES} passes: {report}"
            " (target 50,000 parse+classify; documented, non-gating)",
        )
