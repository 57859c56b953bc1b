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
from dataclasses import dataclass, field

from .campaign import MeasurementSet
from .discovery import CdnCatalog
from .mapping import HandshakeSample
from .resolve import TimedDnsResponse
from .wire import DnsQuestion, IpVersion, RecordType, WireError, decode_response

log = logging.getLogger(__name__)

DEFAULT_PAIRING_WINDOW_S = 900.0

# A question echo of any other type is stored as an A question.
_KNOWN_QTYPES = frozenset(RecordType)


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


def _parse_dns_entry(entry: dict, payload: dict) -> TimedDnsResponse:
    result = payload["result"]
    raw = base64.b64decode(result["abuf"])
    message = decode_response(raw)
    if not message.questions:
        raise ValueError("abuf carries no question section")
    echo = message.questions[0]
    resolver = payload.get("dst_addr") or entry.get("dst_addr")
    if not resolver:
        raise ValueError("no resolver address on DNS result")
    timestamp = float(payload.get("timestamp") or entry["timestamp"])
    question = DnsQuestion(
        qname=echo.name,
        qtype=RecordType(echo.qtype) if echo.qtype in _KNOWN_QTYPES else RecordType.A,
        resolver_address=resolver,
    )
    return TimedDnsResponse(
        question=question,
        rcode=message.rcode,
        answers=list(message.answers),
        latency_ms=float(result["rt"]),
        sent_at_monotonic=timestamp,
        sent_at_wall=timestamp,
    )


def _parse_tls_entry(entry) -> tuple[tuple[str, str], float, HandshakeSample]:
    """((probe, target), timestamp, handshake) for one TLS result.

    KeyError, ValueError or TypeError for a result that lacks a target, a
    timing, an address or a timestamp, or carries one of the wrong type or
    an address that is not one.
    """
    if not isinstance(entry, dict):
        raise TypeError(f"TLS result is a {type(entry).__name__}, not an object")
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
        rtt_ms=float(rt),
        success=True,
    )
    return (str(entry.get("prb_id")), target), float(entry["timestamp"]), handshake


def import_atlas(
    dns_path: str,
    tls_path: str,
    *,
    catalog: CdnCatalog | None = None,
) -> ImportResult:
    """Convert one Atlas DNS result file plus one TLS result file.

    Per (probe, target, resolver), DNS results within
    DEFAULT_PAIRING_WINDOW_S of each other form one set; the earliest
    result in a multi-result set is treated as the prewarm.  TLS results
    attach to the nearest set for their (probe, target); ones with no DNS
    counterpart are counted as orphans.  Undecodable or damaged entries (a
    missing or non-numeric field, a TLS address that is not one, an entry
    that is not an object, a resultset that is not an array) are skipped
    and counted, never fatal.  A file that cannot be read as a JSON array
    raises AtlasFileError.
    """
    out = ImportResult()
    if catalog is None:
        try:
            catalog = CdnCatalog.load()
        except Exception:  # noqa: BLE001 - classification is best-effort
            catalog = None

    grouped: dict[tuple, list[TimedDnsResponse]] = {}
    for entry in _load_array(dns_path):
        try:
            payloads = _dns_payloads(entry)
        except TypeError as exc:
            log.debug("skipping DNS result: %s", exc)
            out.skipped += 1
            continue
        prb = entry.get("prb_id")
        for payload in payloads:
            try:
                response = _parse_dns_entry(entry, payload)
            except (KeyError, ValueError, TypeError, WireError, OSError) as exc:
                log.debug("skipping DNS result from probe %s: %s", prb, exc)
                out.skipped += 1
                continue
            key = (
                str(prb),
                response.question.qname.lower().rstrip("."),
                response.question.resolver_address,
            )
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
            cdn = (catalog.match(qname) if catalog else None) or "unknown"
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
