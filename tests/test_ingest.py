"""Tests for EVE JSON / Snort fast parsing and the tolerant stream reader."""

from __future__ import annotations

import io
import json
from datetime import datetime, timezone

import pytest

from aifseq.ingest import (
    AlertParseError,
    FormatDetectionError,
    NormalizedAlert,
    RawRef,
    parse_eve_record,
    parse_snort_fast_line,
    read_alert_stream,
    render_eve_record,
    render_snort_fast_line,
)


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


def test_fast_tcp_endpoint_without_port_rejected():
    line = (
        "05/01-08:00:00.000001  [**] [1:5:0] x [**] "
        "{TCP} 10.0.0.5 -> 192.168.1.20:80"
    )
    with pytest.raises(AlertParseError, match="no port"):
        parse_snort_fast_line(line, assumed_year=2019)


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


@pytest.mark.parametrize(
    "bad_line",
    [
        eve_line(timestamp=123),
        eve_line(timestamp=None),
        eve_line(timestamp="9999-12-31T23:59:59-01:00"),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["int_timestamp", "null_timestamp", "timestamp_overflows_utc", "deep_nesting"],
)
def test_stream_counts_hostile_record_and_keeps_going(bad_line):
    alerts, stats = read_alert_stream([bad_line, eve_line()], fmt="eve")
    out = list(alerts)
    assert stats.malformed == 1
    assert [alert.raw_ref.index for alert in out] == [2]
    assert stats.reconciles()


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


def test_stream_from_text_handle():
    handle = io.StringIO(eve_line() + "\n")
    alerts, stats = read_alert_stream(handle, fmt="eve", source_name="stdin")
    out = list(alerts)
    assert out[0].raw_ref == RawRef("stdin", 1)


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
