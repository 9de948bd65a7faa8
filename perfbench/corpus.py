"""Seeded alert corpora for the benchmark, with a ground-truth sidecar.

The generator writes Suricata EVE and Snort fast lines itself and imports
nothing from ``aifseq``, so a change to the package cannot change the input
it is measured on. The same ``(workload, seed)`` always gives the same bytes.

Work per workload is fixed by the spec, not by the seed: attacker sizes
follow a Zipf law by rank, run lengths, unclassified runs and episode breaks
follow fixed cycles, and consecutive classified runs of one attacker always
carry different micro states. So the number of alerts, attackers, episodes
and collapsed steps, and with them the cost of all-pairs similarity, is the
same for every seed. The seed chooses addresses, ports, signatures,
timestamps, the positions of non-alert and malformed lines, and which alerts
are displaced within the skew window.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

ASSUMED_YEAR = 2021
BASE_TIME = datetime(ASSUMED_YEAR, 2, 1, tzinfo=timezone.utc)
GAP_SECONDS = 600
SKEW_SECONDS = 5

# (sid, message, category, severity, protocol, expected micro, starter rule).
# Every starter-mapping rule appears at least once; the last three entries
# match no rule. Two entries check precedence: the nmap probe carries a
# category whose rule it must lose to the message rule, and the combined
# "id check returned root ... nmap" message must go to the priority-20 rule.
CATALOG = (
    (2100001, "ET SCAN Suspicious inbound to mySQL port 3306", "Detection of a Network Scan", 2, "TCP", "host_discovery", "classtype-network-scan"),
    (2100002, "ET SCAN ICMP sweep of internal range", "Detection of a Network Scan", 3, "ICMP", "host_discovery", "classtype-network-scan"),
    (2100003, "GPL SNMP public access udp", "Attempted Information Leak", 2, "UDP", "service_discovery", "classtype-attempted-recon"),
    (2100004, "ET INFO Directory listing exposed", "Information Leak", 2, "TCP", "information_discovery", "classtype-successful-recon-limited"),
    (2100005, "ET POLICY Large outbound DNS zone transfer", "Large Scale Information Leak", 2, "TCP", "information_discovery", "classtype-successful-recon-largescale"),
    (2100006, "GPL RPC portmap listing UDP 111", "Decode of an RPC Query", 2, "UDP", "service_discovery", "classtype-rpc-portmap-decode"),
    (2100007, "ET WEB_SERVER phpMyAdmin setup.php access", "access to a potentially vulnerable web application", 2, "TCP", "vulnerability_discovery", "classtype-web-application-activity"),
    (2100008, "GPL EXPLOIT sshd bad key exchange", "Attempted User Privilege Gain", 1, "TCP", "user_privilege_escalation", "classtype-attempted-user"),
    (2100009, "GPL TELNET login failed", "Unsuccessful User Privilege Gain", 2, "TCP", "user_privilege_escalation", "classtype-unsuccessful-user"),
    (2100010, "GPL FTP anonymous login accepted", "Successful User Privilege Gain", 1, "TCP", "user_privilege_escalation", "classtype-successful-user"),
    (2100011, "ET EXPLOIT sudo heap overflow attempt", "Attempted Administrator Privilege Gain", 1, "TCP", "root_privilege_escalation", "classtype-attempted-admin"),
    (2100012, "GPL ATTACK_RESPONSE rexec shell granted", "Successful Administrator Privilege Gain", 1, "TCP", "root_privilege_escalation", "classtype-successful-admin"),
    (2100013, "ET POLICY SSH login as admin user", "An attempted login using a suspicious username was detected", 2, "TCP", "brute_force_credential_access", "classtype-suspicious-login"),
    (2100014, "ET POLICY default credentials on camera", "Attempt to login by a default username and password", 2, "TCP", "brute_force_credential_access", "classtype-default-login-attempt"),
    (2100015, "ET WEB_SERVER SQL injection SELECT FROM", "Web Application Attack", 1, "TCP", "exploit_public_facing_application", "classtype-web-application-attack"),
    (2100016, "ET EXPLOIT PDF embedded JavaScript", "Known client side exploit attempt", 1, "TCP", "service_specific_exploitation", "classtype-client-side-exploit"),
    (2100017, "GPL SHELLCODE x86 NOOP sled", "Executable code was detected", 1, "TCP", "arbitrary_code_execution", "classtype-shellcode-detect"),
    (2100018, "ET TROJAN dropper payload download", "A Network Trojan was detected", 1, "TCP", "data_delivery", "classtype-trojan-activity"),
    (2100019, "ET MALWARE beacon to known CnC", "Malware Command and Control Activity Detected", 1, "TCP", "command_and_control", "classtype-malware-cnc"),
    (2100020, "ET DOS inbound SYN flood", "Attempted Denial of Service", 2, "TCP", "end_point_dos", "classtype-attempted-dos"),
    (2100021, "ET DOS service crashed after malformed request", "Denial of Service", 1, "UDP", "end_point_dos", "classtype-successful-dos"),
    (2100022, "ET POLICY credit card number in cleartext", "Sensitive Data was Transmitted Across the Network", 2, "TCP", "data_exfiltration", "classtype-sdf"),
    (2100023, "ET POLICY file share upload to personal cloud", "Potential Corporate Privacy Violation", 3, "TCP", "data_exfiltration", "classtype-policy-violation"),
    (2100024, "GPL ATTACK_RESPONSE id check returned root", "Potentially Bad Traffic", 1, "TCP", "root_privilege_escalation", "msg-id-check-root"),
    (2100025, "GPL ATTACK_RESPONSE id check returned root after nmap", None, 1, "TCP", "root_privilege_escalation", "msg-id-check-root"),
    (2100026, "ET SCAN NMAP OS detection probe", "Attempted Information Leak", 2, "TCP", "host_discovery", "msg-nmap-scan"),
    (2100027, "GPL ICMP PING NIX", "Misc activity", 3, "ICMP", "host_discovery", "msg-icmp-ping"),
    (2100028, "ET SCAN SSH brute force login attempt", "Attempted Administrator Privilege Gain", 2, "TCP", "brute_force_credential_access", "msg-brute-force"),
    (2100029, "ET POLICY possible data exfiltration over DNS", None, 2, "UDP", "data_exfiltration", "msg-exfiltration"),
    (2100030, "ET INFO generic protocol command decode", "Generic Protocol Command Decode", 3, "TCP", "unclassified", None),
    (2100031, "SURICATA STREAM packet with invalid ack", None, 3, "TCP", "unclassified", None),
    (2100032, "ET INFO misc activity on ICMPv6", "Misc activity", 3, "IPv6-ICMP", "unclassified", None),
)
UNCLASSIFIED = "unclassified"
CLASSIFIED_SIGS = tuple(s for s in CATALOG if s[5] != UNCLASSIFIED)
UNCLASSIFIED_SIGS = tuple(s for s in CATALOG if s[5] == UNCLASSIFIED)
PORTFUL = frozenset({"TCP", "UDP"})

# Fixed cycles that make the amount of work independent of the seed.
RUN_LENGTHS = (1, 3, 2, 1, 2, 3, 1, 1, 2, 2)
UNCLASSIFIED_EVERY = 11  # every 11th run of an attacker matches no rule
EPISODE_RUNS = (14, 40, 23, 61, 9, 30)  # runs per episode, cycled
OFFSETS = ("+0000", "+0000", "+0000", "+0000", "+0000", "+00:00", "+0100", "-0500", "+05:30")
NON_ALERT_EVENTS = ("flow", "dns", "http", "tls", "stats")


ZIPF_EXPONENT = 1.0
NON_ALERT_FRAC = 0.05  # of EVE lines; the fast format has only alerts
MALFORMED_FRAC = 0.01
DISPLACED_FRAC = 0.02  # of alerts, swapped with a neighbour less than the skew apart
IPV6_FRAC = 0.05  # of attackers


@dataclass(frozen=True)
class CorpusSpec:
    """What one workload's input looks like; the seed fills in the rest."""

    fmt: str  # "eve" or "fast"
    alerts: int
    attackers: int


@dataclass
class Alert:
    ts_us: int  # microseconds since BASE_TIME, UTC
    src_ip: str
    dst_ip: str
    sig: tuple
    offset: str


def zipf_sizes(total: int, count: int, exponent: float, minimum: int = 2) -> list[int]:
    """Sizes by rank, heaviest first, summing exactly to ``total``."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    scale = (total - minimum * count) / sum(weights)
    sizes = [minimum + int(w * scale) for w in weights]
    for rank in range(total - sum(sizes)):
        sizes[rank % count] += 1
    return sizes


def _ipv4(rng: random.Random, first: int) -> str:
    return f"{first}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


def _ipv6(rng: random.Random, prefix: str) -> str:
    return f"{prefix}:{rng.randrange(1, 0xFFFF):x}:{rng.randrange(1, 0xFFFF):x}::{rng.randrange(1, 0xFFFF):x}"


def _unique_addresses(rng: random.Random, count: int) -> list[str]:
    v6_count = round(count * IPV6_FRAC)
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        ip = _ipv6(rng, "2001:db8") if len(out) < v6_count else _ipv4(rng, rng.choice((45, 91, 185, 203)))
        if ip not in seen:
            seen.add(ip)
            out.append(ip)
    rng.shuffle(out)
    return out


def _attacker_alerts(rng: random.Random, size: int, src_ip: str, targets: list[str]) -> list[Alert]:
    offset = rng.choice(OFFSETS)
    ts = rng.randrange(0, 2 * 86400 * 10**6)
    alerts: list[Alert] = []
    run_index = 0
    episode_left = EPISODE_RUNS[0]
    episode_index = 0
    last_micro = None
    while len(alerts) < size:
        if episode_left == 0:
            episode_index += 1
            episode_left = EPISODE_RUNS[episode_index % len(EPISODE_RUNS)]
            ts += rng.randrange(700, 7200) * 10**6
            last_micro = None
        unclassified = run_index % UNCLASSIFIED_EVERY == UNCLASSIFIED_EVERY - 1
        if unclassified:
            sig = rng.choice(UNCLASSIFIED_SIGS)
        else:
            sig = rng.choice(CLASSIFIED_SIGS)
            while sig[5] == last_micro:
                sig = rng.choice(CLASSIFIED_SIGS)
            last_micro = sig[5]
        length = min(RUN_LENGTHS[run_index % len(RUN_LENGTHS)], size - len(alerts))
        dst_ip = rng.choice(targets)
        for _ in range(length):
            if alerts:
                ts += rng.randrange(500_000, 120_000_000)
            alerts.append(Alert(ts, src_ip, dst_ip, sig, offset))
        run_index += 1
        episode_left -= 1
    return alerts


def _iso_local(ts_us: int, offset: str) -> str:
    sign = -1 if offset[0] == "-" else 1
    digits = offset[1:].replace(":", "")
    minutes = sign * (int(digits[:2]) * 60 + int(digits[2:]))
    local = BASE_TIME + timedelta(microseconds=ts_us, minutes=minutes)
    return local.strftime("%Y-%m-%dT%H:%M:%S.%f") + offset


def utc_iso(ts_us: int) -> str:
    """The UTC ISO-8601 spelling the CLI writes for a timestamp."""
    return (BASE_TIME + timedelta(microseconds=ts_us)).isoformat()


def _ports(rng: random.Random, proto: str) -> tuple[int | None, int | None]:
    if proto in PORTFUL:
        return rng.randrange(1024, 65536), rng.choice((22, 23, 53, 80, 111, 161, 443, 445, 3306, 8080))
    return None, None


def _eve_alert(rng: random.Random, alert: Alert, flow_id: int) -> str:
    sid, msg, category, severity, proto = alert.sig[:5]
    src_port, dst_port = _ports(rng, proto)
    record: dict = {
        "timestamp": _iso_local(alert.ts_us, alert.offset),
        "flow_id": flow_id,
        "in_iface": "eth0",
        "event_type": "alert",
        "src_ip": alert.src_ip,
    }
    if src_port is not None:
        record["src_port"] = src_port
    record["dest_ip"] = alert.dst_ip
    if dst_port is not None:
        record["dest_port"] = dst_port
    record["proto"] = proto
    if src_port is None:
        record["icmp_type"] = 8
        record["icmp_code"] = 0
    body: dict = {"action": "allowed", "gid": 1, "signature_id": sid, "rev": 1 + sid % 7, "signature": msg}
    if category is not None:
        body["category"] = category
    body["severity"] = severity
    record["alert"] = body
    return json.dumps(record, separators=(",", ":"))


def _eve_non_alert(rng: random.Random, ts_us: int, flow_id: int) -> str:
    event = rng.choice(NON_ALERT_EVENTS)
    record = {
        "timestamp": _iso_local(ts_us, "+0000"),
        "flow_id": flow_id,
        "event_type": event,
        "src_ip": _ipv4(rng, 10),
        "dest_ip": _ipv4(rng, 10),
        "proto": "UDP" if event == "dns" else "TCP",
        event: {"bytes": rng.randrange(40, 1500)},
    }
    return json.dumps(record, separators=(",", ":"))


def _eve_malformed(rng: random.Random, kind: int, template: str) -> str:
    # Each kind is counted as malformed by the stream reader, never fatal.
    record = json.loads(template)
    if kind == 0:
        return template[: len(template) // 2]
    if kind == 1:
        record["src_ip"] = "10.0.0.300"
    elif kind == 2:
        record["proto"] = "TCP"
        record.pop("dest_port", None)
        record.setdefault("src_port", 4444)
    elif kind == 3:
        del record["alert"]["signature_id"]
    elif kind == 4:
        record["alert"]["severity"] = 0
    else:
        return json.dumps([record["event_type"], rng.randrange(100)])
    return json.dumps(record, separators=(",", ":"))


def _fast_endpoint(ip: str, port: int | None) -> str:
    return ip if port is None else f"{ip}:{port}"


def _fast_alert(rng: random.Random, alert: Alert) -> str:
    sid, msg, category, severity, proto = alert.sig[:5]
    stamp = (BASE_TIME + timedelta(microseconds=alert.ts_us)).strftime("%m/%d-%H:%M:%S.%f")
    src_port, dst_port = _ports(rng, proto)
    parts = [f"{stamp}  [**] [1:{sid}:{1 + sid % 7}] {msg} [**]"]
    if category is not None:
        parts.append(f"[Classification: {category}]")
    parts.append(f"[Priority: {severity}]")
    parts.append(f"{{{proto}}} {_fast_endpoint(alert.src_ip, src_port)} -> {_fast_endpoint(alert.dst_ip, dst_port)}")
    return " ".join(parts)


def _fast_malformed(rng: random.Random, kind: int, template: str) -> str:
    if kind == 0:
        return f"snort restarted, {rng.randrange(10**6)} packets processed"
    if kind == 1:
        return "13" + template[2:]  # month 13
    if kind == 2:
        head, _, _ = template.rpartition(" -> ")
        return f"{head} -> 300.1.1.{rng.randrange(256)}:80"
    stamp = template.split(" ", 1)[0]
    return f"{stamp}  [**] [1:2100031:1] SURICATA STREAM packet with invalid ack [**] {{TCP}} 10.9.8.7 -> 192.0.2.1"


def _displace(rng: random.Random, alerts: list[Alert], frac: float) -> list[Alert]:
    """Swap disjoint adjacent pairs closer than the skew window."""
    order = list(alerts)
    eligible = [i for i in range(len(order) - 1) if order[i + 1].ts_us - order[i].ts_us < (SKEW_SECONDS - 0.1) * 10**6]
    rng.shuffle(eligible)
    taken: set[int] = set()
    want = round(len(order) * frac)
    for i in eligible:
        if len(taken) // 2 >= want:
            break
        if i in taken or i + 1 in taken:
            continue
        taken.update((i, i + 1))
        order[i], order[i + 1] = order[i + 1], order[i]
    return order


def sequence_oracle(rows: list[list]) -> dict[str, list[list[str]]]:
    """Per attacker, its episodes as collapsed micro lists.

    Computed from the truth rows alone: unclassified alerts dropped, each
    attacker's alerts ordered by time, split where the gap exceeds
    ``GAP_SECONDS``, adjacent repeats collapsed.
    """
    by_key: dict[str, list[tuple[int, str]]] = {}
    for _line, micro, _rule, ts_us, src_ip in rows:
        if micro != UNCLASSIFIED:
            by_key.setdefault(src_ip, []).append((ts_us, micro))
    out: dict[str, list[list[str]]] = {}
    for key in sorted(by_key):
        episodes: list[list[str]] = []
        last_ts = None
        for ts_us, micro in sorted(by_key[key]):
            if last_ts is None or ts_us - last_ts > GAP_SECONDS * 10**6:
                episodes.append([])
            if not episodes[-1] or episodes[-1][-1] != micro:
                episodes[-1].append(micro)
            last_ts = ts_us
        out[key] = episodes
    return out


def generate(spec: CorpusSpec, seed: int, input_path: Path, truth_path: Path) -> dict:
    """Write the corpus and its sidecar; return the sidecar document."""
    rng = random.Random(f"{spec.fmt}:{spec.alerts}:{spec.attackers}:{seed}")
    sources = _unique_addresses(rng, spec.attackers)
    targets_v4 = [_ipv4(rng, 192) for _ in range(40)]
    targets_v6 = [_ipv6(rng, "2001:db8:ffff") for _ in range(8)]
    alerts: list[Alert] = []
    for size, src_ip in zip(zipf_sizes(spec.alerts, spec.attackers, ZIPF_EXPONENT), sources):
        targets = targets_v6 if ":" in src_ip else targets_v4
        alerts.extend(_attacker_alerts(rng, size, src_ip, targets))
    alerts.sort(key=lambda a: a.ts_us)
    for prev, cur in zip(alerts, alerts[1:]):  # distinct instants keep the re-sort unambiguous
        if cur.ts_us <= prev.ts_us:
            cur.ts_us = prev.ts_us + 1
    alerts = _displace(rng, alerts, DISPLACED_FRAC)

    non_alert_frac = NON_ALERT_FRAC if spec.fmt == "eve" else 0.0
    total = round(spec.alerts / (1 - non_alert_frac - MALFORMED_FRAC))
    n_malformed = round(total * MALFORMED_FRAC)
    n_non_alert = total - spec.alerts - n_malformed
    slots = ["A"] * spec.alerts + ["N"] * n_non_alert + ["M"] * n_malformed
    rng.shuffle(slots)

    lines: list[str] = []
    rows: list[list] = []
    next_alert = 0
    malformed_kind = 0
    last_line = None
    for slot in slots:
        flow_id = rng.randrange(10**15)
        ts_us = alerts[min(next_alert, len(alerts) - 1)].ts_us
        if slot == "A":
            alert = alerts[next_alert]
            next_alert += 1
            line = _eve_alert(rng, alert, flow_id) if spec.fmt == "eve" else _fast_alert(rng, alert)
            rows.append([len(lines) + 1, alert.sig[5], alert.sig[6], alert.ts_us, alert.src_ip])
            last_line = line
        elif slot == "N":
            line = _eve_non_alert(rng, ts_us, flow_id)
        else:
            template = last_line or (_eve_alert(rng, alerts[0], flow_id) if spec.fmt == "eve" else _fast_alert(rng, alerts[0]))
            if spec.fmt == "eve":
                line = _eve_malformed(rng, malformed_kind % 6, template)
            else:
                line = _fast_malformed(rng, malformed_kind % 4, template)
            malformed_kind += 1
        lines.append(line)
    input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rule_hits: dict[str, int] = {}
    for row in rows:
        if row[2] is not None:
            rule_hits[row[2]] = rule_hits.get(row[2], 0) + 1
    oracle = sequence_oracle(rows)
    truth = {
        "format": spec.fmt,
        "seed": seed,
        "counts": {
            "records_seen": len(lines),
            "alerts_emitted": spec.alerts,
            "non_alert_skipped": n_non_alert,
            "malformed": n_malformed,
        },
        "unclassified": sum(row[1] == UNCLASSIFIED for row in rows),
        "rule_hits": dict(sorted(rule_hits.items())),
        "attackers": len(oracle),
        "episodes": sum(len(eps) for eps in oracle.values()),
        "collapsed_steps": sum(len(ep) for eps in oracle.values() for ep in eps),
        # [line number, micro, rule id or null, microseconds since BASE_TIME, src_ip]
        "alerts": rows,
    }
    truth_path.write_text(json.dumps(truth, separators=(",", ":")) + "\n", encoding="utf-8")
    return truth
