"""Import RIPE Atlas result files as measurement sets.

Atlas DNS results carry the raw answer as base64 in `abuf`; TLS/sslcert
results carry timing in `rt` (with `ttc`, time-to-connect, as fallback).
DNS and TLS entries are paired by probe id and target name, grouped by
timestamp proximity, and re-emitted in this tool's native shape so every
analytics path works on imported data unchanged.
"""

from __future__ import annotations

import base64
import json
import logging
import math
from dataclasses import dataclass, field

from .campaign import MeasurementSet
from .discovery import CdnCatalog
from .mapping import HandshakeSample
from .resolve import TimedDnsResponse
from .wire import DnsQuestion, IpVersion, RecordType, WireError, decode_response

log = logging.getLogger(__name__)

DEFAULT_PAIRING_WINDOW_S = 900.0

# A question echo of any other type is stored as an A question.
_QTYPES = {member.value: member for member in RecordType}


class AtlasFileError(Exception):
    """A result file that is missing, unreadable or not a JSON array."""


@dataclass
class ImportResult:
    sets: list[MeasurementSet] = field(default_factory=list)
    skipped: int = 0
    orphans: int = 0


def _load_array(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AtlasFileError(f"{path}: {exc}") from exc
    if not isinstance(data, list):
        raise AtlasFileError(f"{path}: expected a JSON array of Atlas results")
    return data


def _dns_payloads(entry) -> list:
    """The payloads of one DNS result: local-resolver measurements nest one
    per resolver in `resultset`.  TypeError for a result of the wrong shape."""
    if not isinstance(entry, dict):
        raise TypeError(f"DNS result is a {type(entry).__name__}, not an object")
    if "resultset" not in entry:
        return [entry]
    payloads = entry["resultset"]
    if not isinstance(payloads, list):
        raise TypeError(f"resultset is a {type(payloads).__name__}, not an array")
    return payloads


def _number(value) -> float:
    """value as a finite float; ValueError for a bool or a value that is not
    finite, TypeError or ValueError for anything float() refuses."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _parse_dns_entry(entry: dict, payload: dict, questions: dict) -> tuple[str, TimedDnsResponse]:
    """(website, response) for one DNS payload.

    questions maps (echoed name, echoed type, resolver) to the question
    and website built for it, so every response to one question shares
    one DnsQuestion.
    """
    result = payload["result"]
    message = decode_response(base64.b64decode(result["abuf"]))
    if not message.questions:
        raise ValueError("abuf carries no question section")
    echo = message.questions[0]
    resolver = payload.get("dst_addr") or entry.get("dst_addr")
    if not resolver:
        raise ValueError("no resolver address on DNS result")
    timestamp = _number(payload.get("timestamp") or entry["timestamp"])
    key = (echo.name, echo.qtype, resolver)
    known = questions.get(key)
    if known is None:
        question = DnsQuestion(
            qname=echo.name,
            qtype=_QTYPES.get(echo.qtype, RecordType.A),
            resolver_address=resolver,
        )
        known = questions[key] = (question, question.qname.lower().rstrip("."))
    question, website = known
    return website, TimedDnsResponse(
        question=question,
        rcode=message.rcode,
        answers=message.answers,
        latency_ms=_number(result["rt"]),
        sent_at_monotonic=timestamp,
        sent_at_wall=timestamp,
    )


def _parse_tls_entry(entry) -> tuple[tuple[str, str], float, HandshakeSample]:
    """((probe, target), timestamp, handshake) for one TLS result.

    KeyError, ValueError or TypeError for a result that lacks a probe id,
    a target, a timing, an address or a timestamp, or carries one of the
    wrong type, a timing or timestamp that is not a finite number (or a
    timing below 0), or an address that is not one.
    """
    if not isinstance(entry, dict):
        raise TypeError(f"TLS result is a {type(entry).__name__}, not an object")
    prb = entry.get("prb_id")
    if prb is None:
        raise ValueError("TLS result lacks a probe id")
    target = entry.get("dst_name") or ""
    if not isinstance(target, str):
        raise TypeError(f"dst_name is a {type(target).__name__}, not a string")
    target = target.lower().rstrip(".")
    rt = entry.get("rt", entry.get("ttc"))
    if not target or rt is None or not entry.get("dst_addr"):
        raise ValueError("TLS result lacks a target, a timing or an address")
    IpVersion.of_address(entry["dst_addr"])
    handshake = HandshakeSample(
        address=entry["dst_addr"],
        port=int(entry.get("dst_port", 443)),
        rtt_ms=_number(rt),
        success=True,
    )
    return (str(prb), target), _number(entry["timestamp"]), handshake


def import_atlas(
    dns_path: str,
    tls_path: str,
    *,
    catalog: CdnCatalog | None = None,
) -> ImportResult:
    """Convert one Atlas DNS result file plus one TLS result file.

    Per (probe, target, resolver), DNS results within
    DEFAULT_PAIRING_WINDOW_S of each other form one set; the earliest
    result in a multi-result set is treated as the prewarm.  A TLS result
    joins the first set for its (probe, target), in sorted (probe, target,
    resolver, start) order, whose start is within DEFAULT_PAIRING_WINDOW_S
    of its timestamp; that set need not be the nearest, nor the one whose
    resolver answered the address it reached (ROADMAP direction 2).  TLS
    results that join no set are counted as orphans.  Undecodable or
    damaged entries (a missing or non-numeric field, a result without a
    probe id, a timing or timestamp that is not a finite number or a
    timing below 0, a TLS address that is not one, an entry that is not
    an object, a resultset that is not an array) are skipped and counted,
    never fatal.  A file that cannot be read as a JSON array raises
    AtlasFileError.
    """
    out = ImportResult()
    if catalog is None:
        try:
            catalog = CdnCatalog.load()
        except Exception:  # noqa: BLE001 - classification is best-effort
            catalog = None

    grouped: dict[tuple, list[TimedDnsResponse]] = {}
    questions: dict[tuple, tuple[DnsQuestion, str]] = {}
    for entry in _load_array(dns_path):
        try:
            payloads = _dns_payloads(entry)
        except TypeError as exc:
            log.debug("skipping DNS result: %s", exc)
            out.skipped += 1
            continue
        prb = entry.get("prb_id")
        if prb is None:
            log.debug("skipping %d DNS results without a probe id", len(payloads))
            out.skipped += len(payloads)
            continue
        vantage = str(prb)
        for payload in payloads:
            try:
                website, response = _parse_dns_entry(entry, payload, questions)
            except (KeyError, ValueError, TypeError, WireError, OSError) as exc:
                log.debug("skipping DNS result from probe %s: %s", prb, exc)
                out.skipped += 1
                continue
            key = (vantage, website, response.question.resolver_address)
            grouped.setdefault(key, []).append(response)

    tls_by_target: dict[tuple, list[tuple[float, HandshakeSample]]] = {}
    for entry in _load_array(tls_path):
        try:
            key, timestamp, handshake = _parse_tls_entry(entry)
        except (KeyError, ValueError, TypeError) as exc:
            log.debug("skipping TLS result: %s", exc)
            out.skipped += 1
            continue
        tls_by_target.setdefault(key, []).append((timestamp, handshake))

    # Each handshake joins at most one set; claimed holds their ids.
    claimed: set[int] = set()
    cdns: dict[str, str] = {}
    for (prb, qname, resolver), responses in sorted(grouped.items()):
        responses.sort(key=lambda r: r.sent_at_monotonic)
        batches: list[list[TimedDnsResponse]] = []
        for response in responses:
            if (
                batches
                and response.sent_at_monotonic - batches[-1][0].sent_at_monotonic
                <= DEFAULT_PAIRING_WINDOW_S
            ):
                batches[-1].append(response)
            else:
                batches.append([response])
        for batch in batches:
            # Atlas timestamps are whole seconds; keep within-set order strict.
            prev = None
            for response in batch:
                if prev is not None and response.sent_at_monotonic <= prev:
                    response.sent_at_monotonic = prev + 1e-3
                prev = response.sent_at_monotonic
            if len(batch) >= 2:
                batch[0].is_prewarm = True
            start = batch[0].sent_at_wall
            handshakes = []
            for timestamp, handshake in tls_by_target.get((prb, qname), []):
                if id(handshake) in claimed or abs(timestamp - start) > DEFAULT_PAIRING_WINDOW_S:
                    continue
                claimed.add(id(handshake))
                handshakes.append(handshake)
            qtype = batch[0].question.qtype
            cdn = cdns.get(qname)
            if cdn is None:
                cdn = cdns[qname] = (catalog.match(qname) if catalog else None) or "unknown"
            out.sets.append(
                MeasurementSet(
                    vantage_id=prb,
                    website=qname,
                    cdn=cdn,
                    resolver_label=resolver,
                    ip_version=IpVersion.V6 if qtype == RecordType.AAAA else IpVersion.V4,
                    dns_results=batch,
                    handshake_results=handshakes,
                    created_at=start,
                )
            )

    for (prb, target), entries in tls_by_target.items():
        stranded = [h for _, h in entries if id(h) not in claimed]
        if stranded:
            log.warning(
                "%d TLS results for probe %s target %s have no matching DNS set",
                len(stranded),
                prb,
                target,
            )
            out.orphans += len(stranded)
    return out
