"""Tests for EVE JSON / Snort fast parsing and the tolerant stream reader."""

from __future__ import annotations

import copy
import gc
import io
import json
import random
import re
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aifseq import classify, ingest
from aifseq.classify import classify_alert, classify_stream, load_mapping, starter_mapping_document
from aifseq.cli import main
from aifseq.ingest import (
    MEMO_TEXT_LIMIT,
    AlertParseError,
    FormatDetectionError,
    NormalizedAlert,
    RawRef,
    Signature,
    parse_eve_record,
    parse_snort_fast_line,
    read_alert_stream,
    render_eve_record,
    render_snort_fast_line,
    _split_fast_line,
)
from aifseq.taxonomy import builtin_taxonomy


def eve_line(**overrides) -> str:
    record = {
        "timestamp": "2019-05-01T08:00:00.000001+0000",
        "event_type": "alert",
        "src_ip": "10.0.0.5",
        "src_port": 51823,
        "dest_ip": "192.168.1.20",
        "dest_port": 80,
        "proto": "TCP",
        "alert": {
            "gid": 1,
            "signature_id": 2100498,
            "rev": 7,
            "signature": "GPL ATTACK_RESPONSE id check returned root",
            "category": "Potentially Bad Traffic",
            "severity": 2,
        },
    }
    alert_overrides = overrides.pop("alert", None)
    record.update(overrides)
    if alert_overrides is not None:
        record["alert"] = alert_overrides
    return json.dumps(record)


FAST_LINE = (
    "05/01-08:00:00.000001  [**] [1:2100498:7] "
    "GPL ATTACK_RESPONSE id check returned root [**] "
    "[Classification: Potentially Bad Traffic] [Priority: 2] "
    "{TCP} 10.0.0.5:51823 -> 192.168.1.20:80"
)


def test_eve_parse_full_record():
    alert = parse_eve_record(eve_line())
    assert alert is not None
    assert alert.timestamp == datetime(2019, 5, 1, 8, 0, 0, 1, tzinfo=timezone.utc)
    assert alert.src_ip == "10.0.0.5"
    assert alert.src_port == 51823
    assert alert.dst_ip == "192.168.1.20"
    assert alert.dst_port == 80
    assert alert.protocol == "TCP"
    assert alert.generator_id == 1
    assert alert.signature_id == 2100498
    assert alert.revision == 7
    assert alert.signature_msg == "GPL ATTACK_RESPONSE id check returned root"
    assert alert.category == "Potentially Bad Traffic"
    assert alert.severity == 2
    assert alert.source_format == "eve"


def test_eve_gid_and_rev_default_when_absent():
    line = eve_line(alert={"signature_id": 99, "signature": "x"})
    alert = parse_eve_record(line)
    assert (alert.generator_id, alert.revision) == (1, 0)
    assert alert.category is None
    assert alert.severity is None


@pytest.mark.parametrize(
    "stamp",
    [
        "2019-05-01T08:00:00.000001+0000",
        "2019-05-01T08:00:00.000001+00:00",
        "2019-05-01T08:00:00.000001Z",
        "2019-05-01T10:00:00.000001+02:00",
    ],
)
def test_eve_timestamp_offsets_normalize_to_utc(stamp):
    alert = parse_eve_record(eve_line(timestamp=stamp))
    assert alert.timestamp == datetime(2019, 5, 1, 8, 0, 0, 1, tzinfo=timezone.utc)
    assert alert.timestamp.tzinfo == timezone.utc


def test_eve_naive_timestamp_rejected():
    with pytest.raises(AlertParseError, match="no UTC offset"):
        parse_eve_record(eve_line(timestamp="2019-05-01T08:00:00.000001"))


def _utc(*fields: int) -> datetime:
    return datetime(*fields, tzinfo=timezone.utc)


# The EVE timestamp grammar, one row per spelling: the UTC value it parses
# to, or the error that makes the record malformed. It is
# datetime.fromisoformat's from Python 3.11 on, with an offset required.
# Suricata writes the first row; the next five are other offsets and the
# space separator. The six after them are what 3.11 accepts beyond that:
# week dates, the basic format, an hour alone, and fractions longer than
# microseconds, which are truncated. The rest are malformed. Of those, the
# first two parsed and the third was a naive time while a retry that
# rewrote every Z to +00:00 and a trailing +HHMM to +HH:MM was kept for
# Python 3.10.
TIMESTAMP_GRAMMAR = [
    ("2019-05-01T08:00:00.000001+0000", _utc(2019, 5, 1, 8, 0, 0, 1)),
    ("2019-05-01T08:00:00.000001+00:00", _utc(2019, 5, 1, 8, 0, 0, 1)),
    ("2019-05-01T08:00:00.000001Z", _utc(2019, 5, 1, 8, 0, 0, 1)),
    ("2019-05-01T10:30:00.000001+0230", _utc(2019, 5, 1, 8, 0, 0, 1)),
    ("2019-05-01T03:00:00-05:00", _utc(2019, 5, 1, 8)),
    ("2019-05-01 08:00:00+0000", _utc(2019, 5, 1, 8)),
    ("2021-W09-1T08:00:00Z", _utc(2021, 3, 1, 8)),
    ("2019-W18-3T08:00:00+0000", _utc(2019, 5, 1, 8)),
    ("20210301T080000Z", _utc(2021, 3, 1, 8)),
    ("2021-03-01 08Z", _utc(2021, 3, 1, 8)),
    ("2021-03-01T08:00:00.123456789Z", _utc(2021, 3, 1, 8, 0, 0, 123456)),
    ("2021-03-01T08:00:00.1234567+0000", _utc(2021, 3, 1, 8, 0, 0, 123456)),
    ("2021-03-01T08Z:00", "unparseable timestamp '2021-03-01T08Z:00'"),
    ("2021-09-08Z+0000", "unparseable timestamp '2021-09-08Z+0000'"),
    ("2021-03-0108", "unparseable timestamp '2021-03-0108'"),
    ("2019-05-01T08:00:00.000001", "timestamp '2019-05-01T08:00:00.000001' has no UTC offset"),
    ("2019-05-01", "timestamp '2019-05-01' has no UTC offset"),
    ("2019-05-01T08:00:00+24:00", "unparseable timestamp '2019-05-01T08:00:00+24:00'"),
    ("2019-13-01T08:00:00Z", "unparseable timestamp '2019-13-01T08:00:00Z'"),
    ("May 1 2019 08:00:00 UTC", "unparseable timestamp 'May 1 2019 08:00:00 UTC'"),
    ("", "unparseable timestamp ''"),
    ("9999-12-31T23:59:59-01:00", "timestamp '9999-12-31T23:59:59-01:00' is out of range in UTC"),
]


@pytest.mark.parametrize(("stamp", "expected"), TIMESTAMP_GRAMMAR, ids=[row[0] for row in TIMESTAMP_GRAMMAR])
def test_eve_timestamp_grammar(stamp, expected):
    alerts, stats = read_alert_stream([eve_line(timestamp=stamp)], fmt="eve")
    parsed = [alert.timestamp for alert in alerts]
    if isinstance(expected, datetime):
        assert parsed == [expected]
        assert parsed[0].tzinfo is timezone.utc
    else:
        assert parsed == []
        assert stats.first_error_samples == [("<stream>:1", expected)]


def test_eve_non_alert_returns_none():
    assert parse_eve_record(eve_line(event_type="flow")) is None
    assert parse_eve_record('{"event_type":"stats","uptime":12}') is None


def test_eve_malformed_json_raises_with_ref():
    ref = RawRef("feed.json", 17)
    with pytest.raises(AlertParseError) as info:
        parse_eve_record("{not json", ref=ref)
    assert info.value.ref == ref
    assert "feed.json:17" in str(info.value)


@pytest.mark.parametrize("missing", ["timestamp", "src_ip", "dest_ip", "proto"])
def test_eve_mandatory_field_missing(missing):
    record = json.loads(eve_line())
    del record[missing]
    with pytest.raises(AlertParseError, match=missing):
        parse_eve_record(json.dumps(record))


def test_eve_alert_object_required():
    record = json.loads(eve_line())
    del record["alert"]
    with pytest.raises(AlertParseError, match="alert object"):
        parse_eve_record(json.dumps(record))


def test_eve_tcp_requires_both_ports():
    record = json.loads(eve_line())
    del record["src_port"]
    with pytest.raises(AlertParseError, match="src_port"):
        parse_eve_record(json.dumps(record))


def test_eve_icmp_ports_are_dropped():
    # Some producers put type/code into the port fields; normalized form
    # keeps ports only for port-carrying protocols.
    alert = parse_eve_record(eve_line(proto="ICMP", src_port=8, dest_port=0))
    assert alert.protocol == "ICMP"
    assert alert.src_port is None and alert.dst_port is None


@pytest.mark.parametrize("bad", ["999.1.1.1", "10.0.0", "", "not-an-ip", "10.0.0.01"])
def test_eve_invalid_ip_rejected(bad):
    with pytest.raises(AlertParseError, match="src_ip"):
        parse_eve_record(eve_line(src_ip=bad))


def test_eve_ipv6_accepted():
    alert = parse_eve_record(eve_line(src_ip="2001:db8::1", dest_ip="2001:db8::2"))
    assert alert.src_ip == "2001:db8::1"


@pytest.mark.parametrize("bad", [-1, 70000, "80", 80.0, True])
def test_eve_invalid_port_rejected(bad):
    with pytest.raises(AlertParseError):
        parse_eve_record(eve_line(src_port=bad))


def test_eve_invalid_severity_rejected():
    line = eve_line(
        alert={"signature_id": 9, "signature": "x", "severity": 0}
    )
    with pytest.raises(AlertParseError, match="severity"):
        parse_eve_record(line)


def test_fast_parse_full_line():
    alert = parse_snort_fast_line(FAST_LINE, assumed_year=2019)
    assert alert.timestamp == datetime(2019, 5, 1, 8, 0, 0, 1, tzinfo=timezone.utc)
    assert alert.src_ip == "10.0.0.5"
    assert alert.src_port == 51823
    assert alert.dst_ip == "192.168.1.20"
    assert alert.dst_port == 80
    assert alert.protocol == "TCP"
    assert (alert.generator_id, alert.signature_id, alert.revision) == (1, 2100498, 7)
    assert alert.signature_msg == "GPL ATTACK_RESPONSE id check returned root"
    assert alert.category == "Potentially Bad Traffic"
    assert alert.severity == 2
    assert alert.source_format == "snort_fast"


def test_fast_classification_and_priority_optional():
    line = (
        "03/09-14:21:09.123456  [**] [1:1000001:0] probe [**] "
        "{UDP} 172.16.0.9:5353 -> 172.16.0.1:53"
    )
    alert = parse_snort_fast_line(line, assumed_year=2021)
    assert alert.category is None
    assert alert.severity is None


def test_fast_priority_without_classification():
    line = (
        "03/09-14:21:09.123456  [**] [1:77:1] x [**] [Priority: 3] "
        "{TCP} 10.1.1.1:1024 -> 10.1.1.2:22"
    )
    alert = parse_snort_fast_line(line, assumed_year=2021)
    assert alert.category is None
    assert alert.severity == 3


def test_fast_portless_protocol():
    line = (
        "06/15-23:59:59.999999  [**] [1:384:5] ICMP PING [**] "
        "[Classification: Misc activity] [Priority: 3] "
        "{ICMP} 10.0.0.8 -> 10.0.0.1"
    )
    alert = parse_snort_fast_line(line, assumed_year=2020)
    assert alert.src_port is None and alert.dst_port is None
    assert alert.timestamp == datetime(2020, 6, 15, 23, 59, 59, 999999, tzinfo=timezone.utc)


def test_fast_ipv6_endpoint_with_port():
    line = (
        "01/02-03:04:05.000000  [**] [1:9:0] v6 probe [**] "
        "{TCP} 2001:db8::1:51000 -> 2001:db8::2:443"
    )
    alert = parse_snort_fast_line(line, assumed_year=2022)
    assert (alert.src_ip, alert.src_port) == ("2001:db8::1", 51000)
    assert (alert.dst_ip, alert.dst_port) == ("2001:db8::2", 443)


def test_fast_garbage_rejected():
    with pytest.raises(AlertParseError, match="fast-alert shape"):
        parse_snort_fast_line("this is not an alert line", assumed_year=2020)


def test_fast_invalid_date_rejected():
    line = FAST_LINE.replace("05/01", "02/30")
    with pytest.raises(AlertParseError, match="timestamp"):
        parse_snort_fast_line(line, assumed_year=2019)


def constructor_timestamp(year, month, day, hour, minute, second, micros):
    """The exact constructor's timestamp, or the text the parser reports for its error."""
    try:
        return datetime(year, int(month), int(day), int(hour), int(minute), int(second),
                        int(micros), tzinfo=timezone.utc)
    except ValueError as exc:
        return f"invalid timestamp: {exc}"


def fast_line_timestamp(year, month, day, hour, minute, second, micros):
    line = f"{month}/{day}-{hour}:{minute}:{second}.{micros}" + FAST_LINE[len("05/01-08:00:00.000001"):]
    try:
        return parse_snort_fast_line(line, assumed_year=year, ref=None).timestamp
    except AlertParseError as exc:
        return str(exc)


TWO_DIGITS = [f"{n:02d}" for n in range(100)]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def fast_timestamp_cases():
    for year in (2020, 2021):
        for month in TWO_DIGITS:
            for day in TWO_DIGITS:
                yield year, month, day, "08", "00", "00", "000001"
    for hour in TWO_DIGITS:
        for minute in TWO_DIGITS:
            yield 2021, "12", "31", hour, minute, "00", "000000"
    for second in TWO_DIGITS:
        yield 2021, "02", "28", "23", "59", second, "999999"
    for year in (0, 1, 9999, 10000, -1, True):
        yield year, "01", "01", "00", "00", "00", "000000"
        yield year, "12", "31", "23", "59", "59", "999999"
    for fields in (("02", "29", "23", "59", "59", "123456"), ("13", "01", "00", "00", "00", "000000"),
                   ("12", "31", "24", "00", "00", "000000")):
        for mask in range(1, 64):
            # Arabic-Indic digits in every non-empty subset of the six fields.
            yield 2020, *(f.translate(ARABIC_INDIC) if mask >> i & 1 else f for i, f in enumerate(fields))


def test_fast_timestamp_matches_the_exact_constructor():
    # The parser tries datetime.fromisoformat first; it must agree with the
    # constructor on every value, on tzinfo and on every error text, so a
    # Python whose fromisoformat accepts more (say T24:00) fails here.
    for case in fast_timestamp_cases():
        got, want = fast_line_timestamp(*case), constructor_timestamp(*case)
        assert got == want, case
        if isinstance(want, datetime):
            assert got.tzinfo is timezone.utc and got.isoformat() == want.isoformat(), case
    for year in ("2021", 2021.0, None):
        with pytest.raises(TypeError):
            parse_snort_fast_line(FAST_LINE, assumed_year=year)


def test_fast_tcp_endpoint_without_port_rejected():
    line = (
        "05/01-08:00:00.000001  [**] [1:5:0] x [**] "
        "{TCP} 10.0.0.5 -> 192.168.1.20:80"
    )
    with pytest.raises(AlertParseError, match="no port"):
        parse_snort_fast_line(line, assumed_year=2019)


# The single regex the fast parser used to be; it backtracks in cubic time on
# whitespace runs, so it serves only as the oracle on short lines.
ORACLE_FAST_LINE_RE = re.compile(
    r"(\d{2})/(\d{2})-(\d{2}):(\d{2}):(\d{2})\.(\d{6})\s+"
    r"\[\*\*\]\s+"
    r"\[(\d+):(\d+):(\d+)\]\s+"
    r"(.*?)\s+\[\*\*\]\s+"
    r"(?:\[Classification:\s*([^\]]*?)\s*\]\s+)?"
    r"(?:\[Priority:\s*(\d+)\]\s+)?"
    r"\{(\S+)\}\s+"
    r"(\S+)\s+->\s+(\S+)\s*$"
)

FAST_SLOTS = (
    "05/01-08:00:00.000001", "  ", "[**]", " ", "[1:2100498:7]", " ", "id check", " ", "[**]",
    " [Classification: Misc activity]", " [Priority: 2]", " ", "{TCP}", " ", "10.0.0.5:1",
    " ", "->", " ", "10.0.0.6:2", "",
)
FAST_JUNK = (
    "[**]", "[**", "**]", "[", "]", "]]", "[Classification:", "[Priority:", "[Priority: 3]",
    "{TCP}", "{", "}", "{}", "->", "-", "x", "a b", "7", "10.0.0.5:1",
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", " ", "　",
)


@st.composite
def fast_like_lines(draw):
    # A well-formed line with a few hostile pieces (brackets, markers, every
    # kind of whitespace) put after some of its slots or in their place.
    junk = st.lists(st.sampled_from(FAST_JUNK), min_size=1, max_size=3).map("".join)
    edits = draw(
        st.dictionaries(st.integers(0, len(FAST_SLOTS) - 1), st.tuples(st.booleans(), junk), max_size=3)
    )
    out = []
    for i, slot in enumerate(FAST_SLOTS):
        keep, extra = edits.get(i, (True, ""))
        out.append((slot if keep else "") + extra)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(line=fast_like_lines())
@example(line="05/01-08:00:00.000001 [**] [1:2:3]  [**]  [Classification: [**] {T} a -> b")
@example(line=FAST_LINE)
@example(line="05/01-08:00:00.000001 [**] [1:2:3]    [**] [Priority: 1] {ICMP} a -> b \r\n")
@example(line="05/01-08:00:00.000001 [**] [1:2:3] a\nb [**] {T} a -> b")
@example(line="05/01-08:00:00.000001 [**] [1:2:3] [**] [**] [**] {T} a -> b")
@example(line="05/01-08:00:00.000001 [**] [1:2:3] [**] {T} a -> b")
@example(line="05/01-08:00:00.000001 [**] [1:2:3] {T} a -> b")
@example(line="05/01-08:00:00.000001 [**] [1:2:3]  [**] junk {T} a -> b")
def test_fast_split_matches_the_regex_oracle(line):
    assert _split_fast_line(line) == oracle_split(line)


def oracle_split(line):
    """The oracle's fields in the form ``_split_fast_line`` returns them."""
    match = ORACLE_FAST_LINE_RE.match(line.rstrip("\r\n"))
    if match is None:
        return None
    *stamp, gid, sid, rev, msg, category, priority, proto, src, dst = match.groups()
    severity = None if priority is None else int(priority)
    signature = (proto.upper(), int(gid), int(sid), int(rev), msg, category or None, severity)
    return tuple(stamp), signature, src, dst


FAST_HEAD = "05/01-08:00:00.000001  [**] [1:2100498:7]"
FAST_TAIL = " {TCP} 10.0.0.5:1 -> 10.0.0.6:2"


@pytest.mark.parametrize(
    "line",
    [
        FAST_HEAD + " " * 65536 + "x",
        FAST_HEAD + " " * 65536 + "[**]" + FAST_TAIL,
        FAST_HEAD + " probe [**] [Classification:" + " " * 65536,
        FAST_HEAD + " probe [**] [Classification:" + " " * 65536 + FAST_TAIL,
        FAST_HEAD + " " + "[**] " * 13107 + FAST_TAIL,
        FAST_HEAD + " " + "] " * 32768 + FAST_TAIL,
    ],
    ids=[
        "whitespace_message",
        "whitespace_message_with_tail",
        "open_classification_block",
        "open_classification_block_with_tail",
        "many_markers",
        "many_brackets",
    ],
)
def test_fast_hostile_line_parses_in_linear_time(line):
    # The regex parser took 7.6 s on 2,000 spaces of message and about 1 s on
    # "[Classification:" and 1,000 spaces; 64 KB lines must take milliseconds.
    start = time.perf_counter()
    try:
        parse_snort_fast_line(line, assumed_year=2019)
    except AlertParseError:
        pass
    assert time.perf_counter() - start < 0.05


def test_cross_format_equivalence():
    eve = parse_eve_record(eve_line())
    fast = parse_snort_fast_line(FAST_LINE, assumed_year=2019)
    assert eve.content_fields() == fast.content_fields()


def test_eve_round_trip():
    alert = parse_eve_record(eve_line())
    again = parse_eve_record(render_eve_record(alert))
    assert again.content_fields() == alert.content_fields()


def test_fast_round_trip():
    alert = parse_snort_fast_line(FAST_LINE, assumed_year=2019)
    again = parse_snort_fast_line(render_snort_fast_line(alert), assumed_year=2019)
    assert again.content_fields() == alert.content_fields()


def test_render_fast_of_eve_alert_parses_back():
    alert = parse_eve_record(eve_line())
    line = render_snort_fast_line(alert)
    again = parse_snort_fast_line(line, assumed_year=2019)
    assert again.content_fields() == alert.content_fields()


def test_stream_counts_and_error_isolation():
    lines = [
        eve_line(),
        "",
        '{"event_type":"flow","proto":"TCP"}',
        "{broken",
        eve_line(src_ip="999.9.9.9"),
        eve_line(timestamp="2019-05-01T09:00:00.000000+0000"),
        "   ",
    ]
    alerts, stats = read_alert_stream(lines, fmt="eve")
    out = list(alerts)
    assert len(out) == 2
    assert stats.records_seen == 5
    assert stats.alerts_emitted == 2
    assert stats.non_alert_skipped == 1
    assert stats.malformed == 2
    assert stats.reconciles()
    assert len(stats.first_error_samples) == 2


HOSTILE_EVE_LINES = {
    "int_timestamp": eve_line(timestamp=123),
    "null_timestamp": eve_line(timestamp=None),
    "timestamp_overflows_utc": eve_line(timestamp="9999-12-31T23:59:59-01:00"),
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "superscript_octet": eve_line(src_ip="1.2.3.\u00b2"),
    "int_literal_over_the_int_limit": eve_line().replace('"rev": 7', '"rev": ' + "7" * 5_000),
}


@pytest.mark.parametrize("bad_line", list(HOSTILE_EVE_LINES.values()), ids=list(HOSTILE_EVE_LINES))
def test_stream_counts_hostile_record_and_keeps_going(bad_line):
    alerts, stats = read_alert_stream([bad_line, eve_line()], fmt="eve")
    out = list(alerts)
    assert stats.malformed == 1
    assert [alert.raw_ref.index for alert in out] == [2]
    assert stats.reconciles()


def _check_port(value: Any, what: str, ref: RawRef) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 65535:
        raise AlertParseError(f"invalid {what} {value!r}", ref)
    return value


def _check_address(value: Any, what: str, ref: RawRef) -> str:
    # ip_address also takes ints, and JSON lists and dicts are unhashable.
    address = ingest._memo(ingest._valid_ip, value) if isinstance(value, str) else None
    if address is None:
        raise AlertParseError(f"invalid {what} {value!r}", ref)
    return address


def former_parse_eve_record(line: str, *, ref: RawRef) -> NormalizedAlert | None:
    """The EVE parser before it decoded with the bare scanner and tested types at once.

    ``json.loads`` and the per-field checks, in field order, with the
    parser's former ``_check_port`` and ``_check_address`` helpers; the
    reference for ``parse_eve_record``. It shares the timestamp grammar,
    which ``TIMESTAMP_GRAMMAR`` pins on its own.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise AlertParseError(f"malformed JSON: {exc.msg}", ref) from None
    except RecursionError:
        raise AlertParseError("malformed JSON: nested too deeply", ref) from None
    except ValueError as exc:
        raise AlertParseError(f"malformed JSON: {exc}", ref) from None
    if not isinstance(record, dict):
        raise AlertParseError("record is not a JSON object", ref)
    if record.get("event_type") != "alert":
        return None
    alert = record.get("alert")
    if not isinstance(alert, dict):
        raise AlertParseError("alert object missing", ref)
    for name in ("timestamp", "src_ip", "dest_ip", "proto"):
        if name not in record:
            raise AlertParseError(f"mandatory field {name!r} missing", ref)
    if "signature_id" not in alert or "signature" not in alert:
        raise AlertParseError("alert.signature_id / alert.signature missing", ref)
    timestamp = ingest._parse_timestamp(record["timestamp"], ref)
    src_ip = _check_address(record["src_ip"], "src_ip", ref)
    dst_ip = _check_address(record["dest_ip"], "dest_ip", ref)
    proto = record["proto"]
    if not isinstance(proto, str) or not proto:
        raise AlertParseError(f"invalid proto {proto!r}", ref)
    protocol = proto.upper()
    if protocol in ("TCP", "UDP", "SCTP"):
        src_port = _check_port(record.get("src_port"), "src_port", ref)
        dst_port = _check_port(record.get("dest_port"), "dest_port", ref)
    else:
        src_port = dst_port = None
    sid, gid, rev = alert["signature_id"], alert.get("gid", 1), alert.get("rev", 0)
    for name, value in (("signature_id", sid), ("gid", gid), ("rev", rev)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise AlertParseError(f"invalid alert.{name} {value!r}", ref)
    msg = alert["signature"]
    if not isinstance(msg, str):
        raise AlertParseError(f"invalid alert.signature {msg!r}", ref)
    category = alert.get("category")
    if category is not None and not isinstance(category, str):
        raise AlertParseError(f"invalid alert.category {category!r}", ref)
    severity = alert.get("severity")
    if severity is not None and (not isinstance(severity, int) or isinstance(severity, bool) or severity < 1):
        raise AlertParseError(f"invalid alert.severity {severity!r}", ref)
    return NormalizedAlert(
        timestamp, src_ip, src_port, dst_ip, dst_port,
        Signature(protocol, gid, sid, rev, msg, category or None, severity), "eve", ref,
    )


# Values a hostile record puts in a field, MISSING deleting it: each JSON
# type, bools where ints belong, negative and out-of-range numbers, and
# integers past 64 bits.
MISSING = object()
HOSTILE_VALUES = [
    MISSING, None, True, False, 0, 1, -1, 80, 65535, 65536, 2**64, -(2**70),
    0.0, 80.0, float("nan"), "", "80", "TCP", "icmp", "10.0.0.5", "::1", "999.1.1.1",
    "2019-05-01T08:00:00Z", [], [1], ["10.0.0.5"], {}, {"a": 1},
]
RECORD_FIELDS = ["timestamp", "event_type", "src_ip", "src_port", "dest_ip", "dest_port", "proto", "alert"]
ALERT_FIELDS = ["signature_id", "gid", "rev", "signature", "category", "severity"]
# What can surround or replace a record's text: JSON whitespace, whitespace
# JSON does not allow, a BOM, trailing data, deep nesting, an integer longer
# than int() converts, and JSON that is not an object.
LINE_WRAPPERS = [
    lambda text: text,
    lambda text: " " + text,
    lambda text: text + "\t\r\n",
    lambda text: "\u00a0" + text,
    lambda text: text + "\u3000",
    lambda text: "\x0b" + text,
    lambda text: "\ufeff" + text,
    lambda text: text + " x",
    lambda text: text + "{}",
    lambda text: text[:-1],
    lambda text: text.replace('"gid"', '"gid": ' + "[" * 3_000 + "]" * 3_000 + ', "x"', 1),
    lambda text: text.replace('"rev"', '"rev": ' + "9" * 5_000 + ', "y"', 1),
    lambda text: "[" + text + "]",
    lambda text: json.dumps(text),
    lambda text: "17",
    lambda text: "null",
]


def hostile_eve_lines(seed: int, count: int) -> list[str]:
    """``count`` EVE lines, most of them faulty, each from one seeded draw."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        record = json.loads(eve_line())
        record["proto"] = rng.choice(["TCP", "udp", "SCTP", "ICMP", "IPv6-ICMP"])
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            target = record["alert"] if rng.random() < 0.5 and isinstance(record.get("alert"), dict) else record
            name = rng.choice(ALERT_FIELDS if target is not record else RECORD_FIELDS)
            value = rng.choice(HOSTILE_VALUES)
            if value is MISSING:
                target.pop(name, None)
            else:
                # A copy, so a later draw that writes into a list or dict
                # changes neither this record nor the next seed's corpus.
                target[name] = copy.deepcopy(value)
        text = json.dumps(record, separators=(",", ":") if rng.random() < 0.5 else None)
        wrap = LINE_WRAPPERS[0] if rng.random() < 0.6 else rng.choice(LINE_WRAPPERS)
        lines.append(wrap(text))
    return lines


def eve_outcome(parse, line: str, ref: RawRef):
    try:
        return parse(line, ref=ref)
    except AlertParseError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(1601, 1606))
def test_eve_parser_matches_the_per_field_oracle_on_hostile_lines(seed):
    lines = hostile_eve_lines(seed, 3_000)
    outcomes = {"alert": 0, "none": 0, "error": 0}
    for index, line in enumerate(lines, start=1):
        ref = RawRef("hostile", index)
        got = eve_outcome(parse_eve_record, line, ref)
        want = eve_outcome(former_parse_eve_record, line, ref)
        assert got == want, line
        if isinstance(got, NormalizedAlert):
            assert [type(value) for value in got.content_fields()] == [
                type(value) for value in want.content_fields()
            ], line
        outcomes["error" if isinstance(got, str) else "none" if got is None else "alert"] += 1
    # The corpus reaches every outcome, and most lines are faulty.
    assert min(outcomes.values()) > 100
    assert outcomes["error"] > len(lines) // 2


def stream_and_parser_outcomes(line: str, fmt: str):
    """What the stream makes of ``line``, and what the parser called on it does."""
    alerts, stats = read_alert_stream([line], fmt=fmt, assumed_year=2019)
    streamed = list(alerts) or [reason for _, reason in stats.first_error_samples] or [None]
    ref = RawRef("<stream>", 1)
    try:
        if fmt == "eve":
            parsed = parse_eve_record(line, ref=ref)
        else:
            parsed = parse_snort_fast_line(line, 2019, ref=ref)
    except AlertParseError as exc:
        parsed = exc.args[0]
    return streamed, [parsed]


@pytest.mark.parametrize(
    "line, fmt",
    [pytest.param(wrap(eve_line()), "eve", id=f"wrapper{i}") for i, wrap in enumerate(LINE_WRAPPERS)]
    + [pytest.param(char + eve_line() + char, "eve", id=f"U+{ord(char):04X}") for char in "\x1c\x1d\x1e\x1f\x85"]
    + [
        pytest.param("\u00a0" + FAST_LINE, "snort_fast", id="fast_leading_nbsp"),
        pytest.param(FAST_LINE + "\u00a0", "snort_fast", id="fast_trailing_nbsp"),
    ],
)
def test_stream_and_parser_agree_on_whitespace(line, fmt):
    streamed, parsed = stream_and_parser_outcomes(line, fmt)
    assert streamed == parsed


@pytest.mark.parametrize("line", ["\u00a0", "\u3000 ", "\x0b", "\x1c\r\n"])
def test_a_line_of_non_json_whitespace_is_a_malformed_record(line):
    alerts, stats = read_alert_stream([line, " \t\r\n", eve_line()], fmt="eve")
    assert len(list(alerts)) == 1
    assert (stats.records_seen, stats.malformed) == (2, 1)


# Numbers int() rejects although the parser's digit checks let them through:
# more digits than Python's int-string limit (4,300), or a digit that
# str.isdigit() accepts and int() does not (a superscript two).
@pytest.mark.parametrize(
    "bad_line",
    [
        FAST_LINE.replace("[1:2100498:7]", f"[{'1' * 5_000}:2100498:7]"),
        FAST_LINE.replace("[1:2100498:7]", f"[1:{'2' * 5_000}:7]"),
        FAST_LINE.replace("[1:2100498:7]", f"[1:2100498:{'7' * 5_000}]"),
        FAST_LINE.replace("[Priority: 2]", f"[Priority: {'2' * 5_000}]"),
        FAST_LINE.replace(":51823 ", f":{'5' * 5_000} "),
        FAST_LINE.replace(":80", ":8\u00b2"),
        FAST_LINE.replace("10.0.0.5", "10.0.0.\u00b2"),
    ],
    ids=[
        "gid_over_the_int_limit", "sid_over_the_int_limit", "rev_over_the_int_limit",
        "priority_over_the_int_limit", "port_over_the_int_limit", "superscript_port",
        "superscript_octet",
    ],
)
def test_fast_stream_counts_hostile_record_and_keeps_going(bad_line):
    alerts, stats = read_alert_stream([bad_line, FAST_LINE], fmt="snort_fast", assumed_year=2019)
    out = list(alerts)
    assert stats.malformed == 1
    assert [alert.raw_ref.index for alert in out] == [2]
    assert stats.reconciles()


def cyclic_garbage_after_sequence_runs(tmp_path, name, lines, fmt):
    """What gc.collect() finds after ``aifseq sequence`` runs over ``lines`` with the GC off.

    One run per output format, so both exports are covered, and the
    transition and similarity analytics run too.
    """
    feed = tmp_path / f"{name}.txt"
    feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    found = 0
    for output_format in ("json", "csv"):
        argv = ["sequence", "--input", str(feed), "--format", fmt, "--assumed-year", "2019",
                "--out", str(tmp_path / name / output_format), "--output-format", output_format,
                "--transitions", "both", "--similarity", "lcs"]
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            found += gc.collect()
        finally:
            gc.enable()
    return found


@pytest.mark.parametrize(
    "fmt, good, bad",
    [
        ("eve", eve_line, list(HOSTILE_EVE_LINES.values())),
        ("fast", lambda src_ip: FAST_LINE.replace("10.0.0.5", src_ip),
         [FAST_LINE.replace("05/01", "02/30")]),
    ],
    ids=["eve", "fast"],
)
def test_pipeline_leaves_no_cyclic_garbage_per_record(tmp_path, capsys, fmt, good, bad):
    # The CLI runs with the cyclic GC off, so every record, malformed or not,
    # must be freed by reference counting alone on its way through ingest,
    # classify, build_sequences and both exports.
    lines = [line for i in range(30) for line in (*bad, good(src_ip=f"10.0.{i}.5"))]
    cyclic_garbage_after_sequence_runs(tmp_path, "warm", lines, fmt)
    one_record = cyclic_garbage_after_sequence_runs(tmp_path, "one", [good(src_ip="10.0.0.5")], fmt)
    hostile = cyclic_garbage_after_sequence_runs(tmp_path, "hostile", lines, fmt)
    assert hostile <= one_record


def int_limit_error(digits: str) -> str:
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int() converts {len(digits)} digits")


# Of several faults on one line, the first of shape, timestamp, ids or
# priority, source and destination is the one reported.
@pytest.mark.parametrize(
    ("bad_line", "reason"),
    [
        (
            FAST_LINE.replace("05/01", "02/30").replace("2100498", "2" * 5_000),
            "invalid timestamp: day is out of range for month",
        ),
        (
            FAST_LINE.replace("Priority: 2", f"Priority: {'2' * 5_000}").replace("10.0.0.5", "300.1.1.1"),
            f"invalid signature id or priority: {int_limit_error('2' * 5_000)}",
        ),
        (
            FAST_LINE.replace("10.0.0.5", "300.1.1.1").replace("192.168.1.20", "300.2.2.2"),
            "invalid endpoint '300.1.1.1:51823'",
        ),
    ],
    ids=["timestamp_before_sid", "priority_before_source", "source_before_destination"],
)
def test_fast_line_with_two_faults_reports_the_first(bad_line, reason):
    alerts, stats = read_alert_stream([bad_line], fmt="snort_fast", assumed_year=2019)
    assert list(alerts) == []
    assert stats.first_error_samples == [("<stream>:1", reason)]


def test_priority_zero_is_malformed_in_both_formats():
    # Fast "[Priority: 0]" parsed while EVE "severity: 0" was malformed, so the
    # same observable parsed in one wire format and not in the other.
    zero = FAST_LINE.replace("Priority: 2", "Priority: 0")
    alerts, stats = read_alert_stream([zero, FAST_LINE], fmt="snort_fast", assumed_year=2019)
    assert [alert.severity for alert in alerts] == [2]
    assert stats.malformed == 1
    assert stats.first_error_samples == [("<stream>:1", "invalid priority '0'")]

    alert = parse_snort_fast_line(FAST_LINE, assumed_year=2019)
    alert = replace(alert, signature=alert.signature._replace(severity=0))
    with pytest.raises(AlertParseError, match="priority"):
        parse_snort_fast_line(render_snort_fast_line(alert), assumed_year=2019)
    with pytest.raises(AlertParseError, match="severity"):
        parse_eve_record(render_eve_record(alert))


def test_fast_line_with_a_bad_timestamp_and_priority_zero_reports_the_timestamp():
    bad_line = FAST_LINE.replace("05/01", "02/30").replace("Priority: 2", "Priority: 0")
    alerts, stats = read_alert_stream([bad_line], fmt="snort_fast", assumed_year=2019)
    assert list(alerts) == []
    assert stats.first_error_samples == [("<stream>:1", "invalid timestamp: day is out of range for month")]


@pytest.mark.parametrize("fmt", ["eve", "snort_fast"])
def test_ipv4_with_non_ascii_digits_is_malformed(fmt):
    # ipaddress takes ASCII digits only, so "١٠.0.0.5" is no address at all,
    # not a second attacker beside 10.0.0.5.
    source = "\u0661\u0660.0.0.5"
    assert ingest._valid_ip(source) is None
    bad = eve_line(src_ip=source) if fmt == "eve" else FAST_LINE.replace("10.0.0.5", source)
    good = eve_line() if fmt == "eve" else FAST_LINE
    alerts, stats = read_alert_stream([bad, good], fmt=fmt, assumed_year=2019)
    assert [alert.src_ip for alert in alerts] == ["10.0.0.5"]
    assert stats.malformed == 1


def test_fast_arabic_indic_digits_still_parse():
    # \d and int() both accept every decimal digit, not only ASCII ones.
    digits = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
    line = FAST_LINE.replace("[1:2100498:7]", "[1:2100498:7]".translate(digits))
    line = line.replace(":80", ":80".translate(digits))
    alert = parse_snort_fast_line(line, assumed_year=2019)
    assert (alert.generator_id, alert.signature_id, alert.revision, alert.dst_port) == (1, 2100498, 7, 80)


def test_stream_error_samples_capped():
    lines = ["{nope"] * 25
    alerts, stats = read_alert_stream(lines, fmt="eve")
    assert list(alerts) == []
    assert stats.malformed == 25
    assert len(stats.first_error_samples) == stats.MAX_ERROR_SAMPLES


def test_stream_auto_detects_eve():
    alerts, stats = read_alert_stream([eve_line()], fmt="auto")
    assert len(list(alerts)) == 1
    assert stats.alerts_emitted == 1


def test_stream_auto_detects_fast():
    alerts, stats = read_alert_stream([FAST_LINE], fmt="auto", assumed_year=2019)
    out = list(alerts)
    assert out[0].source_format == "snort_fast"
    assert stats.alerts_emitted == 1


def test_stream_fast_without_year_raises():
    with pytest.raises(FormatDetectionError, match="assumed_year"):
        read_alert_stream([FAST_LINE], fmt="snort_fast")


def test_stream_fast_without_year_does_not_open_the_file(tmp_path):
    # The year check runs before the path is opened, so no handle is leaked;
    # the pytest filterwarnings setting turns an unclosed file into an error.
    path = tmp_path / "alerts.fast"
    path.write_text(FAST_LINE + "\n", encoding="utf-8")
    with pytest.raises(FormatDetectionError, match="assumed_year"):
        read_alert_stream(path, fmt="snort_fast")


def test_stream_auto_fast_without_year_raises_on_first_line():
    alerts, _ = read_alert_stream([FAST_LINE], fmt="auto")
    with pytest.raises(FormatDetectionError, match="assumed_year"):
        next(alerts)


def test_stream_empty_input():
    alerts, stats = read_alert_stream([], fmt="auto")
    assert list(alerts) == []
    assert stats.records_seen == 0
    assert stats.reconciles()


def test_stream_from_path(tmp_path):
    path = tmp_path / "feed.eve.json"
    path.write_text(eve_line() + "\n" + eve_line() + "\n", encoding="utf-8")
    alerts, stats = read_alert_stream(path)
    out = list(alerts)
    assert len(out) == 2
    assert out[0].raw_ref == RawRef("feed.eve.json", 1)
    assert out[1].raw_ref.index == 2


def test_stream_bytes_split_lines_like_a_file(tmp_path):
    # U+0085 and U+2028 end a line for str.splitlines but not for a file.
    odd = eve_line().replace("id check", "id\u0085check\u2028x")
    data = (odd + "\n" + eve_line() + "\n").encode("utf-8")
    path = tmp_path / "feed.eve.json"
    path.write_bytes(data)
    results = {}
    for name, source in [("path", path), ("stream", io.BytesIO(data)), ("bytes", data)]:
        alerts, stats = read_alert_stream(source, fmt="eve")
        results[name] = [(a.signature_msg, a.raw_ref.index) for a in alerts], stats.to_dict()
    assert results["bytes"] == results["path"] == results["stream"]
    assert results["bytes"][0][0] == ("GPL ATTACK_RESPONSE id\u0085check\u2028x returned root", 1)
    alerts, _ = read_alert_stream(data, fmt="eve")
    assert next(alerts).raw_ref == RawRef("<bytes>", 1)
    alerts.close()


@pytest.mark.parametrize("fmt", ["eve", "auto", "snort_fast"])
@pytest.mark.parametrize("kind", ["bytes", "stream", "path"])
def test_stream_drops_a_leading_byte_order_mark(tmp_path, kind, fmt):
    # A BOM kept at the start of the first line made that record malformed,
    # and with auto made an EVE file look like fast input.
    line = FAST_LINE if fmt == "snort_fast" else eve_line()
    data = ("\ufeff" + line + "\n" + line + "\n").encode("utf-8")
    path = tmp_path / "feed"
    path.write_bytes(data)
    source = {"bytes": data, "stream": io.BytesIO(data), "path": path}[kind]
    alerts, stats = read_alert_stream(source, fmt=fmt, assumed_year=2019)
    assert [a.raw_ref.index for a in alerts] == [1, 2]
    assert (stats.alerts_emitted, stats.malformed) == (2, 0)


def test_stream_keeps_a_byte_order_mark_in_text_the_caller_decoded():
    alerts, stats = read_alert_stream(io.StringIO("\ufeff" + eve_line() + "\n"), fmt="eve")
    assert list(alerts) == []
    assert stats.malformed == 1


def test_stream_from_text_handle():
    handle = io.StringIO(eve_line() + "\n")
    handle.name = "stdin"
    alerts, stats = read_alert_stream(handle, fmt="eve")
    out = list(alerts)
    assert out[0].raw_ref == RawRef("stdin", 1)


@pytest.mark.parametrize("stop", ["exhausted", "closed", "dropped"])
@pytest.mark.parametrize("kind", ["text", "binary"])
def test_stream_leaves_a_callers_handle_open(kind, stop):
    data = eve_line() + "\n" + eve_line(src_ip="10.0.0.6") + "\n"
    handle = io.StringIO(data) if kind == "text" else io.BytesIO(data.encode("utf-8"))
    alerts, _ = read_alert_stream(handle, fmt="eve")
    if stop == "exhausted":
        assert [a.src_ip for a in alerts] == ["10.0.0.5", "10.0.0.6"]
    else:
        assert next(alerts).src_ip == "10.0.0.5"
        if stop == "closed":
            alerts.close()
        del alerts
    assert not handle.closed
    handle.seek(0)
    alerts, _ = read_alert_stream(handle, fmt="eve")
    assert [a.src_ip for a in alerts] == ["10.0.0.5", "10.0.0.6"]
    assert not handle.closed


def test_stream_closed_by_the_caller_mid_read_ends_quietly():
    handle = io.BytesIO((eve_line() + "\n" + eve_line() + "\n").encode("utf-8"))
    alerts, _ = read_alert_stream(handle, fmt="eve")
    next(alerts)
    handle.close()
    alerts.close()


def test_stream_closes_the_file_it_opened(tmp_path, monkeypatch):
    path = tmp_path / "feed.eve.json"
    path.write_text(eve_line() + "\n" + eve_line() + "\n", encoding="utf-8")
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ingest, "open", spy_open, raising=False)
    alerts, _ = read_alert_stream(path, fmt="eve")
    assert len(list(alerts)) == 2
    alerts, _ = read_alert_stream(path, fmt="eve")
    next(alerts)
    alerts.close()
    assert len(opened) == 2 and all(fh.closed for fh in opened)


def test_stream_dropped_before_its_first_read_closes_the_file(tmp_path):
    # A generator that never started never runs its finally block; the
    # pytest filterwarnings setting turns an unclosed file into an error.
    path = tmp_path / "feed.eve.json"
    path.write_text(eve_line() + "\n", encoding="utf-8")
    alerts, _ = read_alert_stream(path, fmt="eve")
    del alerts
    gc.collect()


def test_stream_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        read_alert_stream([], fmt="csv")


def test_stream_stats_fill_during_iteration():
    alerts, stats = read_alert_stream([eve_line(), eve_line()], fmt="eve")
    assert stats.alerts_emitted == 0
    next(alerts)
    assert stats.alerts_emitted == 1
    next(alerts)
    assert stats.alerts_emitted == 2


MEMOS = (ingest._valid_ip, ingest._eve_signature, ingest._fast_signature)


def uncached(monkeypatch):
    # Each memo gives way to an LRU of size 0 over the function it caches,
    # which keeps the __wrapped__ that the length bypass calls.
    for name in ("_valid_ip", "_eve_signature", "_fast_signature"):
        monkeypatch.setattr(ingest, name, lru_cache(maxsize=0)(getattr(ingest, name).__wrapped__))


def test_memos_stay_bounded_and_match_the_uncached_path(monkeypatch):
    # 5,000 lines with their own source, destination, message, signature id
    # and verdict key: 10,000 addresses, 5,000 signature segments and keys,
    # more than each memo holds; the first 500 lines come again after they
    # were evicted. The same alerts as EVE records give _eve_signature 5,000
    # records.
    tax = builtin_taxonomy()
    spec = load_mapping(starter_mapping_document(), tax)
    categories = ["Attempted Information Leak", "Misc activity", "Web Application Attack"]
    lines = [
        f"05/01-08:00:{i % 60:02d}.000001  [**] [1:{2100000 + i}:1] ET probe {i} [**] "
        f"[Classification: {categories[i % 3]}] [Priority: {1 + i % 3}] "
        f"{{TCP}} 10.{i >> 8}.{i & 255}.1:{1024 + i} -> 172.16.{i >> 8}.{i & 255}:80"
        for i in range(5_000)
    ]
    lines += lines[:500]
    alerts, stats = read_alert_stream(lines, fmt="snort_fast", assumed_year=2019)
    stream = classify_stream(alerts, spec, tax)
    cached = []
    for alert, verdict in stream:
        assert verdict is classify_alert(alert, spec, tax)
        assert len(stream.gi_frame.f_locals["verdicts"]) <= classify._VERDICT_MEMO_SIZE
        cached.append(alert)
    assert stats.alerts_emitted == len(lines)
    assert len({a.src_ip for a in cached} | {a.dst_ip for a in cached}) > ingest._valid_ip.cache_info().maxsize
    assert len({a.signature_msg for a in cached}) > ingest._fast_signature.cache_info().maxsize
    assert len({a.signature_id for a in cached}) > ingest._fast_signature.cache_info().maxsize
    eve_lines = [render_eve_record(alert) for alert in cached]
    eve_cached = list(read_alert_stream(eve_lines, fmt="eve")[0])
    assert [a.content_fields() for a in eve_cached] == [a.content_fields() for a in cached]
    assert len({a.signature for a in eve_cached}) > ingest._eve_signature.cache_info().maxsize
    for memo in MEMOS:
        info = memo.cache_info()
        assert 0 < info.currsize <= info.maxsize

    uncached(monkeypatch)
    alerts, _ = read_alert_stream(lines, fmt="snort_fast", assumed_year=2019)
    assert list(alerts) == cached
    assert list(read_alert_stream(eve_lines, fmt="eve")[0]) == eve_cached


def test_texts_over_the_limit_bypass_the_memos(monkeypatch):
    long_msg = "x" * (MEMO_TEXT_LIMIT + 1)
    scoped = "fe80::1%" + "e" * MEMO_TEXT_LIMIT
    before = ingest._valid_ip.cache_info()
    assert ingest._memo(ingest._valid_ip, scoped) == scoped
    assert ingest._valid_ip.cache_info() == before
    # A fast line whose signature segment and both addresses are over the
    # limit touches no memo.
    fast = FAST_LINE.replace("GPL ATTACK_RESPONSE id check returned root", long_msg)
    fast = fast.replace("[1:2100498:7]", f"[1:{'2' * MEMO_TEXT_LIMIT}:7]")
    fast = fast.replace("10.0.0.5", scoped).replace("192.168.1.20", scoped)
    before = [memo.cache_info() for memo in MEMOS]
    results = [parse_snort_fast_line(fast, assumed_year=2019)]
    assert [memo.cache_info() for memo in MEMOS] == before
    assert results[0].src_ip == results[0].dst_ip == scoped
    eve = eve_line(src_ip=scoped, alert={"signature_id": 1, "signature": long_msg})
    results.append(parse_eve_record(eve))
    assert results[0].signature_msg == results[1].signature_msg == long_msg
    # An EVE record whose message and category are over the limit together,
    # or whose protocol is, with both addresses over it too, touches no memo
    # either: each parse builds its own signature record.
    half = "m" * (MEMO_TEXT_LIMIT // 2)
    eve_halves = eve_line(src_ip=scoped, dest_ip=scoped, alert={"signature_id": 1, "signature": half, "category": half})
    eve_proto = eve_line(src_ip=scoped, dest_ip=scoped, proto="p" * MEMO_TEXT_LIMIT)
    before = [memo.cache_info() for memo in MEMOS]
    results += [parse_eve_record(line) for line in (eve_halves, eve_halves, eve_proto, eve_proto)]
    assert [memo.cache_info() for memo in MEMOS] == before
    for first, second in (results[2:4], results[4:6]):
        assert first.signature == second.signature and first.signature is not second.signature
    uncached(monkeypatch)
    assert results == [
        parse_snort_fast_line(fast, assumed_year=2019),
        *(parse_eve_record(line) for line in (eve, eve_halves, eve_halves, eve_proto, eve_proto)),
    ]


@pytest.mark.parametrize("fmt", ["eve", "snort_fast"])
def test_invalid_address_seen_twice_is_malformed_twice(fmt):
    line = eve_line(src_ip="300.1.1.1") if fmt == "eve" else FAST_LINE.replace("10.0.0.5", "300.1.1.1")
    alerts, stats = read_alert_stream([line, line], fmt=fmt, assumed_year=2019)
    assert list(alerts) == []
    assert stats.malformed == 2


@pytest.mark.parametrize("field", ["src_ip", "dest_ip"])
@pytest.mark.parametrize("value", [[1], {}, ["10.0.0.5"]], ids=["list", "dict", "address_list"])
def test_unhashable_eve_address_is_malformed(field, value):
    alerts, stats = read_alert_stream([eve_line(**{field: value}), eve_line()], fmt="eve")
    assert len(list(alerts)) == 1
    assert stats.malformed == 1
    assert f"invalid {field} {value!r}" in stats.first_error_samples[0][1]


@pytest.mark.parametrize("fmt", ["eve", "snort_fast"])
def test_alerts_repeating_a_value_share_one_copy(fmt):
    # Each record is parsed from its own text, so equal fields start out as
    # distinct strings; the memos hand every alert the first-seen copy.
    source = "10.77.0.1"
    line = eve_line(src_ip=source) if fmt == "eve" else FAST_LINE.replace("10.0.0.5", source)
    lines = [line, line]
    first, second = read_alert_stream(lines, fmt=fmt, assumed_year=2019)[0]
    assert first.src_ip == source and first.src_ip is second.src_ip
    assert first.dst_ip is second.dst_ip
    assert first.signature_msg is second.signature_msg
    assert first.category is second.category
    assert first.protocol is second.protocol
    # json.loads builds its own ints, yet both parsers share them: the alerts
    # share one signature record.
    assert first.signature is second.signature
    assert first.signature_id == 2100498 and first.signature_id is second.signature_id
