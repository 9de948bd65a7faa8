"""IDS observable ingestion: EVE JSON and Snort fast alerts to normalized form.

Two wire formats are supported and nothing else: Suricata EVE JSON (one
record per line, ``event_type: "alert"``) and the Snort fast-alert line::

    MM/DD-HH:MM:SS.ffffff  [**] [gid:sid:rev] MSG [**] \
        [Classification: TEXT] [Priority: N] {PROTO} SRC:SPORT -> DST:DPORT

Classification, Priority, and the ports are optional; the fast format
carries no year, so callers supply one. Parsers are pure functions; the
stream reader skips malformed records, counts them, and never aborts.
Timestamps are normalized to UTC on the way in. Ports are kept only for
port-carrying protocols (TCP/UDP/SCTP), so the same observable rendered in
either format parses to the same normalized record.
"""

from __future__ import annotations

import io
import json
import re
import weakref
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from ipaddress import ip_address
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, NamedTuple

EVE_FORMAT = "eve"
SNORT_FAST_FORMAT = "snort_fast"

_PORTFUL_PROTOCOLS = frozenset({"TCP", "UDP", "SCTP"})

# A fast line is parsed in pieces because one regex over the whole line
# backtracks in cubic time when the message is a long run of whitespace: the
# separators on either side of a lazy message all compete for the same run.
_FAST_TIME_RE = re.compile(r"(\d{2})/(\d{2})-(\d{2}):(\d{2}):(\d{2})\.(\d{6})")
_FAST_IDS_RE = re.compile(r"\s+\[\*\*\]\s+\[(\d+):(\d+):(\d+)\]")
_FAST_BLOCKS_RE = re.compile(r"(?:\s+\[Classification:([^\]]*)\])?(?:\s+\[Priority:\s*(\d+)\])?")

# What the stream strips from each line: the whitespace JSON allows around
# a value. str.strip() would also take NBSP, U+3000 and other characters
# that make the same line malformed when parsed directly.
_JSON_WHITESPACE = " \t\r\n"

_NO_YEAR_MESSAGE = "snort_fast input needs assumed_year (the format has no year field)"

# An IDS stream repeats a few addresses and signatures many times, so the
# pure per-value work (address checks, fast signature segments, EVE
# signature records) runs once per distinct value and the alerts share its
# result.
# Each memo is an lru_cache of a fixed number of entries, with the uncached
# path as its ``__wrapped__``; a text longer than this limit bypasses it, and
# so does a signature whose texts together are longer (the one rule of
# ``signature_fits_memo``, which the verdict memo follows too), so a full
# memo holds at most its size times this many characters of keys.
MEMO_TEXT_LIMIT = 512


def _memo(cache, text: str):
    """``cache(text)``, or the function behind it for a text over the limit."""
    return cache(text) if len(text) <= MEMO_TEXT_LIMIT else cache.__wrapped__(text)


def signature_fits_memo(protocol: str, msg: str, category: str | None) -> bool:
    """Whether the memos keep a signature: its three texts total at most ``MEMO_TEXT_LIMIT`` characters."""
    return len(protocol) + len(msg) + len(category or "") <= MEMO_TEXT_LIMIT


class AlertParseError(ValueError):
    """One record could not be parsed; carries the input locator."""

    def __init__(self, message: str, ref: RawRef | None = None):
        super().__init__(message)
        self.ref = ref

    def __str__(self) -> str:
        base = super().__str__()
        return f"{self.ref}: {base}" if self.ref is not None else base


class FormatDetectionError(ValueError):
    """The input format could not be determined."""


@dataclass(slots=True, unsafe_hash=True)
class RawRef:
    """Locator of one input record: source name plus 1-based line number.

    One is built per input line. It is not frozen, because a frozen
    dataclass sets each field through ``object.__setattr__``, which makes
    construction about 3x slower. It still compares and hashes by value.
    Assigning to a field does not raise, but the library never does it.
    """

    source: str
    index: int

    def __str__(self) -> str:
        return f"{self.source}:{self.index}"


_DEFAULT_REF = RawRef("<input>", 0)


class Signature(NamedTuple):
    """What the signature that fired gives an alert, in wire-format-independent form.

    ``(generator_id, signature_id, revision)`` identify the signature. An
    IDS stream repeats a few signatures many times, so the parsers hand
    every alert of one signature the same record.
    """

    protocol: str
    generator_id: int
    signature_id: int
    revision: int
    signature_msg: str
    category: str | None
    severity: int | None


@dataclass(slots=True)
class NormalizedAlert:
    """One IDS alert in wire-format-independent form.

    ``timestamp`` is always UTC; ports are ``None`` exactly when the
    signature's protocol does not carry them.
    """

    timestamp: datetime
    src_ip: str
    src_port: int | None
    dst_ip: str
    dst_port: int | None
    signature: Signature
    source_format: str
    raw_ref: RawRef

    def content_fields(self) -> tuple:
        """The timestamp and endpoints, then the signature's values: all but the provenance pair."""
        return (self.timestamp, self.src_ip, self.src_port, self.dst_ip, self.dst_port, *self.signature)


@dataclass
class IngestStats:
    """Counts for one stream pass: seen = emitted + skipped + malformed."""

    records_seen: int = 0
    alerts_emitted: int = 0
    non_alert_skipped: int = 0
    malformed: int = 0
    first_error_samples: list[tuple[str, str]] = field(default_factory=list)

    MAX_ERROR_SAMPLES = 10

    def record_error(self, ref: RawRef, reason: str) -> None:
        self.malformed += 1
        if len(self.first_error_samples) < self.MAX_ERROR_SAMPLES:
            self.first_error_samples.append((str(ref), reason))

    def reconciles(self) -> bool:
        return self.records_seen == self.alerts_emitted + self.non_alert_skipped + self.malformed

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_timestamp(text: Any, ref: RawRef) -> datetime:
    if not isinstance(text, str):
        raise AlertParseError(f"invalid timestamp {text!r}", ref)
    # The grammar is datetime.fromisoformat's from Python 3.11 on, which
    # takes Suricata's +0000 offset as well as +00:00 and Z.
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise AlertParseError(f"unparseable timestamp {text!r}", ref) from None
    if ts.tzinfo is None:
        raise AlertParseError(f"timestamp {text!r} has no UTC offset", ref)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise AlertParseError(f"timestamp {text!r} is out of range in UTC", ref) from None


@lru_cache(maxsize=8192)
def _valid_ip(text: str) -> str | None:
    """``text`` if it is an IP address, else None.

    Memoized, so every alert from one address holds the first-seen copy of it.
    """
    try:
        ip_address(text)
    except ValueError:
        return None
    return text


# The record of an EVE signature's values, built once: every EVE alert of one
# signature shares it.
_eve_signature = lru_cache(maxsize=4096)(Signature)


# The C scanner behind json.loads, without its wrapper: it decodes a line that
# is one JSON value and nothing else.
_scan_json = json.JSONDecoder().scan_once


def _json_value(line: str, ref: RawRef) -> Any:
    """The JSON value one EVE line holds.

    A line the scanner does not take whole (surrounding whitespace, a BOM,
    trailing data, any fault) goes to ``json.loads``, which decides it and
    words the error.
    """
    try:
        value, end = _scan_json(line, 0)
        if end == len(line):
            return value
    except (StopIteration, TypeError, ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise AlertParseError(f"malformed JSON: {exc.msg}", ref) from None
    except RecursionError:
        raise AlertParseError("malformed JSON: nested too deeply", ref) from None
    except ValueError as exc:  # an integer literal with more digits than int() converts
        raise AlertParseError(f"malformed JSON: {exc}", ref) from None


def parse_eve_record(line: str, *, ref: RawRef = _DEFAULT_REF) -> NormalizedAlert | None:
    """Parse one EVE JSON record; None for non-alert events.

    Raises AlertParseError on malformed or too deeply nested JSON, a record
    that is not an object or lacks its alert object, a missing mandatory
    field, or an invalid value. Fields are checked once each, in order:
    timestamp, src_ip, dest_ip, proto, the ports of TCP, UDP and SCTP,
    signature_id, gid, rev, signature, category, severity; the first fault
    is the one reported. A timestamp must be a string that parses, carries
    an offset and stays within the datetime range in UTC. Unknown EVE fields
    are ignored.
    """
    record = _json_value(line, ref)
    if not isinstance(record, dict):
        raise AlertParseError("record is not a JSON object", ref)
    if record.get("event_type") != "alert":
        return None

    alert = record.get("alert")
    if not isinstance(alert, dict):
        raise AlertParseError("alert object missing", ref)
    try:
        ts, src, dst, proto = record["timestamp"], record["src_ip"], record["dest_ip"], record["proto"]
    except KeyError as exc:  # the first of the four that is missing
        raise AlertParseError(f"mandatory field {exc.args[0]!r} missing", ref) from None
    try:
        sid, msg = alert["signature_id"], alert["signature"]
    except KeyError:
        raise AlertParseError("alert.signature_id / alert.signature missing", ref) from None

    # JSON yields exact types, so a class test accepts an int and rejects a
    # bool, which is an int subclass. Only a string goes to the address memo:
    # ip_address also takes ints, and JSON lists and dicts are unhashable.
    timestamp = _parse_timestamp(ts, ref)
    if src.__class__ is not str or (src_ip := _memo(_valid_ip, src)) is None:
        raise AlertParseError(f"invalid src_ip {src!r}", ref)
    if dst.__class__ is not str or (dst_ip := _memo(_valid_ip, dst)) is None:
        raise AlertParseError(f"invalid dest_ip {dst!r}", ref)
    if proto.__class__ is not str or not proto:
        raise AlertParseError(f"invalid proto {proto!r}", ref)
    protocol = proto.upper()
    if protocol in _PORTFUL_PROTOCOLS:
        src_port, dst_port = record.get("src_port"), record.get("dest_port")
        if src_port.__class__ is not int or not 0 <= src_port <= 65535:
            raise AlertParseError(f"invalid src_port {src_port!r}", ref)
        if dst_port.__class__ is not int or not 0 <= dst_port <= 65535:
            raise AlertParseError(f"invalid dest_port {dst_port!r}", ref)
    else:
        # Portless protocol: drop any port the producer attached.
        src_port = dst_port = None
    if sid.__class__ is not int or sid < 0:
        raise AlertParseError(f"invalid alert.signature_id {sid!r}", ref)
    gid = alert.get("gid", 1)
    if gid.__class__ is not int or gid < 0:
        raise AlertParseError(f"invalid alert.gid {gid!r}", ref)
    rev = alert.get("rev", 0)
    if rev.__class__ is not int or rev < 0:
        raise AlertParseError(f"invalid alert.rev {rev!r}", ref)
    if msg.__class__ is not str:
        raise AlertParseError(f"invalid alert.signature {msg!r}", ref)
    category = alert.get("category")
    if category is not None and category.__class__ is not str:
        raise AlertParseError(f"invalid alert.category {category!r}", ref)
    severity = alert.get("severity")
    if severity is not None and (severity.__class__ is not int or severity < 1):
        raise AlertParseError(f"invalid alert.severity {severity!r}", ref)
    category = category or None
    make = _eve_signature if signature_fits_memo(protocol, msg, category) else Signature
    signature = make(protocol, gid, sid, rev, msg, category, severity)
    return NormalizedAlert(timestamp, src_ip, src_port, dst_ip, dst_port, signature, EVE_FORMAT, ref)


def _split_endpoint(text: str, protocol: str, ref: RawRef) -> tuple[str, int | None]:
    if protocol in _PORTFUL_PROTOCOLS:
        addr, sep, port_text = text.rpartition(":")
        if not sep or not port_text.isdecimal():
            raise AlertParseError(f"{protocol} endpoint {text!r} has no port", ref)
        try:
            port = int(port_text)
        except ValueError:  # more digits than int() converts
            raise AlertParseError(f"invalid endpoint {text!r}", ref) from None
        if port > 65535:
            raise AlertParseError(f"invalid endpoint {text!r}", ref)
    else:
        addr, port = text, None
    addr = _memo(_valid_ip, addr)
    if addr is None:
        raise AlertParseError(f"invalid endpoint {text!r}", ref)
    return addr, port


def _split_fast_line(line: str) -> tuple[tuple[str, ...], Signature | str, str, str] | None:
    """Timestamp, signature, source and destination of a fast line, or None.

    The timestamp is the six digit fields of ``MM/DD-HH:MM:SS.ffffff``. What
    lies between it and the last three whitespace-separated tokens
    ``SRC -> DST`` is the signature segment, the same text on every alert of
    one signature; the signature is what ``_fast_signature`` makes of it,
    looked up once per distinct segment. None if the line is not a fast
    alert. Each step is linear in the line length.
    """
    stamp = _FAST_TIME_RE.match(line)
    if stamp is None:
        return None
    parts = line[stamp.end():].rsplit(None, 3)
    if len(parts) != 4 or parts[2] != "->":
        return None
    signature = _memo(_fast_signature, parts[0])
    if signature is None:
        return None
    return stamp.groups(), signature, parts[1], parts[3]


@lru_cache(maxsize=4096)
def _fast_signature(segment: str) -> Signature | str | None:
    """The signature record of a segment.

    Memoized, so every alert of one signature shares the one record.

    ``segment`` runs from a fast line's timestamp to its protocol:
    ``  [**] [gid:sid:rev] MSG [**] [Classification: …] [Priority: N] {PROTO}``.
    None if it does not have that shape. The optional classification and
    priority blocks hold one ``]`` each, so the ``[**]`` that ends the
    message closes at one of the last three ``]``. As with a lazy message
    pattern, the earliest ``[**]`` that fits wins, the message holds no
    newline, and an empty message is tried last. An absent or blank
    category is None. An id or priority with more digits than ``int()``
    converts, or a priority below 1, gives the error message instead of
    raising, so the caller can report a bad timestamp first.
    """
    ids = _FAST_IDS_RE.match(segment)
    if ids is None:
        return None
    parts = segment[ids.end():].rsplit(None, 1)
    if len(parts) != 2:
        return None
    body, proto = parts
    if len(proto) < 3 or proto[0] != "{" or proto[-1] != "}":
        return None
    start = len(body) - len(body.lstrip())
    if start == 0:
        return None

    markers = []
    close = len(body)
    while len(markers) < 3 and (close := body.rfind("]", 0, close)) >= 0:
        markers.append(close - 3)
    for marker in reversed(markers):
        msg = body[start:marker].rstrip()
        if msg and len(msg) < marker - start and "\n" not in msg and body.startswith("[**]", marker):
            blocks = _FAST_BLOCKS_RE.fullmatch(body, marker + 4)
            if blocks is not None:
                break
    else:
        msg = ""
        if start < 2 or not body.startswith("[**]", start):
            return None
        blocks = _FAST_BLOCKS_RE.fullmatch(body, start + 4)
        if blocks is None:
            return None
    category, priority = blocks.groups()
    category = (category.strip() or None) if category else None
    gid, sid, rev = ids.groups()
    try:
        severity = int(priority) if priority is not None else None
        signature = Signature(proto[1:-1].upper(), int(gid), int(sid), int(rev), msg, category, severity)
    except ValueError as exc:  # more digits than int() converts
        return f"invalid signature id or priority: {exc}"
    if severity is not None and severity < 1:  # as EVE's alert.severity
        return f"invalid priority {priority!r}"
    return signature


def parse_snort_fast_line(
    line: str, assumed_year: int, *, ref: RawRef = _DEFAULT_REF
) -> NormalizedAlert:
    """Parse one Snort fast-alert line.

    The format carries no year, so ``assumed_year`` supplies it; the time is
    taken as UTC. Raises AlertParseError when the line does not match the
    fast shape or carries invalid values; of several faults it reports the
    first of shape, timestamp, ids or priority, source, destination.
    """
    fields = _split_fast_line(line)
    if fields is None:
        raise AlertParseError("line does not match the fast-alert shape", ref)
    (month, day, hour, minute, second, micros), signature, src_text, dst_text = fields

    # Building the ISO text and parsing it in one C call costs about a third
    # less than the constructor with its seven int() calls. Whatever it
    # rejects (a bad year or field, non-ASCII digits, a year that is not an
    # int) goes to the constructor, which decides and sets the error text.
    try:
        timestamp = datetime.fromisoformat(
            f"{assumed_year:04d}-{month}-{day}T{hour}:{minute}:{second}.{micros}+00:00"
        )
    except (TypeError, ValueError):
        try:
            timestamp = datetime(
                assumed_year,
                int(month),
                int(day),
                int(hour),
                int(minute),
                int(second),
                int(micros),
                tzinfo=timezone.utc,
            )
        except ValueError as exc:
            raise AlertParseError(f"invalid timestamp: {exc}", ref) from None

    if isinstance(signature, str):
        raise AlertParseError(signature, ref)
    src_ip, src_port = _split_endpoint(src_text, signature.protocol, ref)
    dst_ip, dst_port = _split_endpoint(dst_text, signature.protocol, ref)

    # Positional, in field order: keyword arguments cost about as much again
    # as building the alert.
    return NormalizedAlert(timestamp, src_ip, src_port, dst_ip, dst_port, signature, SNORT_FAST_FORMAT, ref)


def render_eve_record(alert: NormalizedAlert) -> str:
    """Render a normalized alert back into an EVE JSON line.

    Reparsing the result recovers the alert field-for-field (provenance
    aside); used for export and for cross-format fixtures.
    """
    record: dict[str, Any] = {
        "timestamp": alert.timestamp.isoformat(),
        "event_type": "alert",
        "src_ip": alert.src_ip,
    }
    if alert.src_port is not None:
        record["src_port"] = alert.src_port
    record["dest_ip"] = alert.dst_ip
    if alert.dst_port is not None:
        record["dest_port"] = alert.dst_port
    sig = alert.signature
    record["proto"] = sig.protocol
    alert_obj: dict[str, Any] = {
        "gid": sig.generator_id,
        "signature_id": sig.signature_id,
        "rev": sig.revision,
        "signature": sig.signature_msg,
    }
    if sig.category is not None:
        alert_obj["category"] = sig.category
    if sig.severity is not None:
        alert_obj["severity"] = sig.severity
    record["alert"] = alert_obj
    return json.dumps(record, separators=(",", ":"))


def render_snort_fast_line(alert: NormalizedAlert) -> str:
    """Render a normalized alert as a Snort fast-alert line (year dropped)."""
    ts = alert.timestamp.astimezone(timezone.utc)
    stamp = ts.strftime("%m/%d-%H:%M:%S.%f")
    sig = alert.signature
    ids = f"[{sig.generator_id}:{sig.signature_id}:{sig.revision}]"
    parts = [f"{stamp}  [**] {ids} {sig.signature_msg} [**]"]
    if sig.category is not None:
        parts.append(f"[Classification: {sig.category}]")
    if sig.severity is not None:
        parts.append(f"[Priority: {sig.severity}]")
    src = alert.src_ip if alert.src_port is None else f"{alert.src_ip}:{alert.src_port}"
    dst = alert.dst_ip if alert.dst_port is None else f"{alert.dst_ip}:{alert.dst_port}"
    parts.append(f"{{{sig.protocol}}} {src} -> {dst}")
    return " ".join(parts)


def _line_iter(source: Any) -> tuple[Iterator[str], str]:
    """Lines plus a display name for any supported source kind.

    A path, ``bytes`` or a binary stream is decoded as ``utf-8-sig``, so a
    leading byte order mark is dropped; text the caller decoded is read as
    it is. Closing the lines releases only what this function opened: the
    file a path names. A stream or iterable the caller passed in stays open.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        fh = open(path, "r", encoding="utf-8-sig", errors="replace")
        return fh, path.name
    if isinstance(source, (bytes, bytearray)):
        return _decoded_lines(io.BytesIO(source)), "<bytes>"
    name = (hasattr(source, "read") and getattr(source, "name", None)) or "<stream>"
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        return _decoded_lines(source), name
    return (line for line in source), name


def _decoded_lines(stream: IO[bytes]) -> Iterator[str]:
    """Lines of a binary stream decoded as ``utf-8-sig``; the stream stays open afterwards."""
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", errors="replace")
    try:
        # Not ``yield from``: closing this generator would close the wrapper too.
        for line in text:
            yield line
    finally:
        # Closing the wrapper would close the caller's stream; a stream the
        # caller closed already cannot be detached, and needs nothing.
        if not stream.closed:
            text.detach()


def read_alert_stream(
    source: str | Path | IO | Iterable[str] | bytes,
    fmt: str = "auto",
    assumed_year: int | None = None,
) -> tuple[Iterator[NormalizedAlert], IngestStats]:
    """Stream alerts out of a file, file object, or iterable of lines.

    Returns an iterator plus the stats object it fills in while consumed.
    Malformed records are counted and sampled, never fatal. Each line loses
    the whitespace JSON allows around a value (space, tab, CR and LF) and
    nothing else, so a line reads as the parser called on it directly does;
    a line with nothing left is blank and not a record. ``fmt`` is
    ``"eve"``, ``"snort_fast"``, or ``"auto"`` (first non-blank line
    starting with ``{`` means EVE). The fast format
    requires ``assumed_year``. A path is opened at once and closed when the
    iterator is exhausted, closed or collected unstarted; a file object or
    iterable passed in is never closed, and a binary stream is read through
    a text wrapper that is detached from it afterwards. A path, ``bytes``
    or a binary stream is decoded as UTF-8 with a leading byte order mark
    dropped; a text stream or iterable of lines is read as given.
    """
    if fmt not in (EVE_FORMAT, SNORT_FAST_FORMAT, "auto"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == SNORT_FAST_FORMAT and assumed_year is None:
        raise FormatDetectionError(_NO_YEAR_MESSAGE)
    lines, name = _line_iter(source)
    stats = IngestStats()

    def generate() -> Iterator[NormalizedAlert]:
        resolved = None if fmt == "auto" else fmt
        try:
            for index, line in enumerate(lines, start=1):
                stripped = line.strip(_JSON_WHITESPACE)
                if not stripped:
                    continue
                if resolved is None:
                    resolved = EVE_FORMAT if stripped.startswith("{") else SNORT_FAST_FORMAT
                    if resolved == SNORT_FAST_FORMAT and assumed_year is None:
                        raise FormatDetectionError(_NO_YEAR_MESSAGE)
                ref = RawRef(name, index)
                stats.records_seen += 1
                try:
                    if resolved == EVE_FORMAT:
                        alert = parse_eve_record(stripped, ref=ref)
                        if alert is None:
                            stats.non_alert_skipped += 1
                            continue
                    else:
                        alert = parse_snort_fast_line(stripped, assumed_year, ref=ref)
                except AlertParseError as exc:
                    stats.record_error(ref, exc.args[0])
                    continue
                stats.alerts_emitted += 1
                yield alert
        finally:
            lines.close()

    alerts = generate()
    # A generator dropped before its first next() never enters its finally
    # block, so the lines are also closed when the iterator is collected.
    weakref.finalize(alerts, lines.close)
    return alerts, stats
