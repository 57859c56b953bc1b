"""JSON-lines persistence for campaign records.

One CampaignRecord per line, UTF-8.  Keys are written in a fixed
documented order (schema_version, campaign_id, provenance, spec, set;
nested objects likewise follow their dataclass field order), so identical
records serialize byte-identically.  write_records replaces a file only
once the whole new content is written.  Readers reject unknown major
schema versions and salvage everything before a truncated final line.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from enum import Enum

from .campaign import MeasurementSet
from .mapping import HandshakeFailure, HandshakeSample
from .resolve import TimedDnsResponse
from .wire import DnsQuestion, IpVersion, RecordType, ResourceRecord

SCHEMA_VERSION = 1


class Provenance(Enum):
    NATIVE = "native"
    ATLAS_IMPORT = "atlas-import"


class IoFailureError(Exception):
    pass


class SchemaMismatchError(Exception):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TruncatedFileError(Exception):
    """Final line was cut short; .records carries everything before it."""

    def __init__(self, line_number: int, records: list):
        super().__init__(f"truncated record at line {line_number}")
        self.line_number = line_number
        self.records = records


@dataclass
class CampaignRecord:
    campaign_id: str
    mset: MeasurementSet
    spec_snapshot: dict = field(default_factory=dict)
    provenance: Provenance = Provenance.NATIVE
    schema_version: int = SCHEMA_VERSION


def _question_to_dict(q: DnsQuestion) -> dict:
    return {
        "qname": q.qname,
        "qtype": int(q.qtype),
        "resolver_address": q.resolver_address,
        "transport_version": q.transport_version.value,
        "timeout_ms": q.timeout_ms,
        "resolver_port": q.resolver_port,
    }


def _question_from_dict(d: dict) -> DnsQuestion:
    return DnsQuestion(
        qname=d["qname"],
        qtype=RecordType(d["qtype"]),
        resolver_address=d["resolver_address"],
        transport_version=IpVersion(d["transport_version"]),
        timeout_ms=d["timeout_ms"],
        resolver_port=d["resolver_port"],
    )


def _rdata_to_json(rdata):
    if isinstance(rdata, bytes):
        return {"hex": rdata.hex()}
    return rdata


def _rdata_from_json(value):
    if isinstance(value, dict):
        return bytes.fromhex(value["hex"])
    return value


def _record_to_dict(r: ResourceRecord) -> dict:
    return {"name": r.name, "rtype": int(r.rtype), "ttl": r.ttl, "rdata": _rdata_to_json(r.rdata)}


def _record_from_dict(d: dict) -> ResourceRecord:
    return ResourceRecord(
        name=d["name"], rtype=d["rtype"], ttl=d["ttl"], rdata=_rdata_from_json(d["rdata"])
    )


def _response_to_dict(r: TimedDnsResponse) -> dict:
    return {
        "question": _question_to_dict(r.question),
        "rcode": r.rcode,
        "answers": [_record_to_dict(a) for a in r.answers],
        "latency_ms": r.latency_ms,
        "sent_at_monotonic": r.sent_at_monotonic,
        "sent_at_wall": r.sent_at_wall,
        "truncated_retried": r.truncated_retried,
        "is_prewarm": r.is_prewarm,
    }


def _response_from_dict(d: dict) -> TimedDnsResponse:
    return TimedDnsResponse(
        question=_question_from_dict(d["question"]),
        rcode=d["rcode"],
        answers=[_record_from_dict(a) for a in d["answers"]],
        latency_ms=d["latency_ms"],
        sent_at_monotonic=d["sent_at_monotonic"],
        sent_at_wall=d["sent_at_wall"],
        truncated_retried=d["truncated_retried"],
        is_prewarm=d["is_prewarm"],
    )


def _handshake_to_dict(h: HandshakeSample) -> dict:
    return {
        "address": h.address,
        "port": h.port,
        "rtt_ms": h.rtt_ms,
        "success": h.success,
        "error_kind": h.error_kind.value if h.error_kind else None,
    }


def _handshake_from_dict(d: dict) -> HandshakeSample:
    return HandshakeSample(
        address=d["address"],
        port=d["port"],
        rtt_ms=d["rtt_ms"],
        success=d["success"],
        error_kind=HandshakeFailure(d["error_kind"]) if d["error_kind"] else None,
    )


def set_to_dict(mset: MeasurementSet) -> dict:
    return {
        "vantage_id": mset.vantage_id,
        "website": mset.website,
        "cdn": mset.cdn,
        "resolver_label": mset.resolver_label,
        "ip_version": mset.ip_version.value,
        "dns_results": [_response_to_dict(r) for r in mset.dns_results],
        "handshake_results": [_handshake_to_dict(h) for h in mset.handshake_results],
        "created_at": mset.created_at,
        "failed_twice": mset.failed_twice,
    }


def set_from_dict(d: dict) -> MeasurementSet:
    return MeasurementSet(
        vantage_id=d["vantage_id"],
        website=d["website"],
        cdn=d["cdn"],
        resolver_label=d["resolver_label"],
        ip_version=IpVersion(d["ip_version"]),
        dns_results=[_response_from_dict(r) for r in d["dns_results"]],
        handshake_results=[_handshake_from_dict(h) for h in d["handshake_results"]],
        created_at=d["created_at"],
        failed_twice=d["failed_twice"],
    )


def record_to_dict(record: CampaignRecord) -> dict:
    return {
        "schema_version": record.schema_version,
        "campaign_id": record.campaign_id,
        "provenance": record.provenance.value,
        "spec": record.spec_snapshot,
        "set": set_to_dict(record.mset),
    }


def record_from_dict(d: dict) -> CampaignRecord:
    return CampaignRecord(
        campaign_id=d["campaign_id"],
        mset=set_from_dict(d["set"]),
        spec_snapshot=d["spec"],
        provenance=Provenance(d["provenance"]),
        schema_version=d["schema_version"],
    )


def write_records(records: list[CampaignRecord], path: str):
    """Write records to path, all or nothing.

    The lines go to a temporary file in the same directory, which is
    flushed to disk and then replaces path; a write that fails part way,
    or a crash, leaves whatever was at path untouched.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record_to_dict(record), separators=(",", ":")))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def append_records(records: list[CampaignRecord], path: str):
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record_to_dict(record), separators=(",", ":")))
                fh.write("\n")
    except OSError as exc:
        raise IoFailureError(f"cannot append to {path}: {exc}") from exc


def read_records(path: str) -> list[CampaignRecord]:
    """Total inverse of write_records.

    Unknown major schema versions raise SchemaMismatchError naming the
    offending line.  A file cut off mid-record raises TruncatedFileError
    carrying the records that did parse.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    # drop a trailing empty chunk from the final newline
    while lines and lines[-1] == "":
        lines.pop()
    records: list[CampaignRecord] = []
    last = len(lines)
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last:
                raise TruncatedFileError(lineno, records) from exc
            raise SchemaMismatchError(f"unparseable record: {exc}", lineno) from exc
        version = obj.get("schema_version")
        if not isinstance(version, int) or version != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"unknown schema version {version!r} (reader supports {SCHEMA_VERSION})", lineno
            )
        try:
            records.append(record_from_dict(obj))
        except (KeyError, ValueError, TypeError) as exc:
            if lineno == last:
                raise TruncatedFileError(lineno, records) from exc
            raise SchemaMismatchError(f"malformed record: {exc}", lineno) from exc
    return records
