"""JSON-lines persistence for campaign records.

One CampaignRecord per line, UTF-8.  Keys are written in a fixed
documented order (schema_version, campaign_id, provenance, spec, set),
so identical records serialize byte-identically.  The set is stored by
one rule, applied to the type annotations of the dataclass fields: a
dataclass becomes an object with its fields in declaration order, a list
an array, an Enum its value, and bytes {"hex": "<hex digits>"}; anything
else is stored as it is.  The reader reverses the same rule.  Each
dataclass gets one encode and one decode function, generated once from
its fields: a dict display of the fields, and a call of the type with
each stored field in order, so every __post_init__ check still runs.
write_records replaces a file only once the whole new content is
written.

iter_records streams a file: it reads one line at a time and yields one
fully decoded record at a time, so a caller that folds each record into a
summary holds one record, not the file.  read_records is the list of what
iter_records yields.  Both reject unknown major schema versions and
salvage everything before a damaged final line.  A damaged line anywhere
else is a schema error naming its line: one that is not JSON, is blank,
holds bytes that are not UTF-8, or stores a value the record types
refuse.  Blank lines at the end of a file are ignored.

Spec sharing is one text rule.  A line laid out as write_records writes
it (keys in that order, no spaces, ASCII only, nothing after the set) is
read key by key; when the text between "spec": and ,"set": is the
previous record's, it is not parsed again and the record shares the
previous record's spec_snapshot dict, so a campaign costs one spec parse
and one copy, not one per record.  A line written any other way reads as
the same record, with the same errors, through the full parse of the
line, and shares nothing.  write_records encodes a spec once for each run
of records holding the same dict.  Callers must not mutate a
spec_snapshot they read; the change would show in every record sharing
it.

The record types (MeasurementSet and the wire, resolve and mapping types
it holds) are slotted dataclasses: a record carries its fields and
nothing else, so callers cannot attach attributes to one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import operator
import os
import typing
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .campaign import MeasurementSet
from .wire import WireError

SCHEMA_VERSION = 1
# json.dumps with separators builds an encoder per call; this one serves
# every line.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()
# How every written line starts.
_HEAD = f'{{"schema_version":{SCHEMA_VERSION},"campaign_id":'
# What decoding a stored value of the wrong shape raises.
_DAMAGE = (KeyError, ValueError, TypeError, WireError)


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


def _to_hex(value):
    return {"hex": value.hex()} if isinstance(value, bytes) else value


def _from_hex(value):
    return bytes.fromhex(value["hex"]) if isinstance(value, dict) else value


def _mapped(convert):
    return None if convert is None else lambda items: [convert(item) for item in items]


def _or_none(convert):
    return None if convert is None else lambda value: None if value is None else convert(value)


def _field_codecs(tp):
    """(encode, decode) for dataclass tp, each one straight-line function
    generated from its fields, the way dataclasses builds __init__."""
    hints = typing.get_type_hints(tp)
    namespace = {"tp": tp}
    encoded, decoded = [], []
    for f in dataclasses.fields(tp):
        enc, dec = _codec(hints[f.name])
        value, stored = f"obj.{f.name}", f"d[{f.name!r}]"
        if enc is not None:
            namespace[f"enc_{f.name}"] = enc
            value = f"enc_{f.name}({value})"
        if dec is not None:
            namespace[f"dec_{f.name}"] = dec
            stored = f"dec_{f.name}({stored})"
        encoded.append(f"{f.name!r}: {value}")
        decoded.append(stored)
    source = (
        f"def encode(obj):\n    return {{{', '.join(encoded)}}}\n"
        f"def decode(d):\n    return tp({', '.join(decoded)})\n"
    )
    exec(source, namespace)
    return namespace["encode"], namespace["decode"]


@functools.cache
def _codec(tp):
    """(encode, decode) for values of type tp: functions to and from the
    stored form, each None where the stored form is the value itself.

    A stored value of the wrong shape makes decoding raise KeyError,
    ValueError or TypeError (WireError for an invalid name), which
    iter_records reports as damage.
    """
    if dataclasses.is_dataclass(tp):
        return _field_codecs(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        enc, dec = _codec(args[0])
        return _mapped(enc), _mapped(dec)
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode(value):
            try:
                return members[value]
            except KeyError:
                raise ValueError(f"{value!r} is not a valid {tp.__name__}") from None

        return operator.attrgetter("value"), decode
    if bytes in args:  # ResourceRecord.rdata: str | list[str] | bytes
        return _to_hex, _from_hex
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _codec(inner)
        return _or_none(enc), _or_none(dec)
    return None, None


def record_to_dict(record: CampaignRecord) -> dict:
    return {
        "schema_version": record.schema_version,
        "campaign_id": record.campaign_id,
        "provenance": record.provenance.value,
        "spec": record.spec_snapshot,
        "set": _codec(MeasurementSet)[0](record.mset),
    }


def record_from_dict(d: dict) -> CampaignRecord:
    return CampaignRecord(
        campaign_id=d["campaign_id"],
        mset=_codec(MeasurementSet)[1](d["set"]),
        spec_snapshot=d["spec"],
        provenance=Provenance(d["provenance"]),
        schema_version=d["schema_version"],
    )


def _record_lines(records) -> Iterator[str]:
    """The stored lines of records, each what encoding record_to_dict
    writes; a run of records sharing one spec dict encodes it once."""
    spec, spec_text = None, "null"  # None as it is written
    for record in records:
        d = record_to_dict(record)
        stored_spec, stored_set = d.pop("spec"), d.pop("set")
        if stored_spec is not spec:
            spec, spec_text = stored_spec, _ENCODER.encode(stored_spec)
        yield f'{_ENCODER.encode(d)[:-1]},"spec":{spec_text},"set":{_ENCODER.encode(stored_set)}}}\n'


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
                fh.writelines(_record_lines(records))
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
            fh.writelines(_record_lines(records))
    except OSError as exc:
        raise IoFailureError(f"cannot append to {path}: {exc}") from exc


def iter_records(path: str) -> Iterator[CampaignRecord]:
    """The records of path, read one line at a time and yielded one fully
    decoded record at a time.

    An unknown major schema version raises SchemaMismatchError naming its
    line, and so does an interior line that is damaged, blank or not
    UTF-8.  Blank lines at the end are ignored.  A damaged final line
    raises TruncatedFileError after every record before it was yielded;
    its .records is empty, because the caller already has them.  A file
    that cannot be opened or read raises IoFailureError.
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            yield from _decode_lines(fh)
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


def read_records(path: str) -> list[CampaignRecord]:
    """Total inverse of write_records: iter_records as a list.

    A file cut off mid-record raises TruncatedFileError carrying the
    records that did parse.
    """
    records: list[CampaignRecord] = []
    try:
        records.extend(iter_records(path))
    except TruncatedFileError as exc:
        exc.records = records
        raise
    return records


def _decode_lines(lines) -> Iterator[CampaignRecord]:
    spec, spec_text = None, None  # the previous record's spec, and its text in a written line
    blank = 0  # the first blank line since the last record, if any
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            blank = blank or lineno
            continue
        if blank:
            _decode_line("", blank, [line])  # an interior blank line: raises
        try:
            decoded = _decode_written(line, spec, spec_text)
        except _DAMAGE:
            decoded = None
        record, spec_text = decoded or (_decode_line(line, lineno, lines), None)
        spec = record.spec_snapshot
        yield record


def _decode_written(line: str, spec, spec_text):
    """(record, its spec text up to the set) for a line laid out as
    _record_lines writes it, else None.  A line holding spec_text, the
    previous record's, shares spec, its dict.  Damage raises."""
    if not (line.isascii() and line.startswith(_HEAD)):
        return None
    campaign_id, i = _DECODER.raw_decode(line, len(_HEAD))
    if not line.startswith(',"provenance":', i):
        return None
    provenance, i = _DECODER.raw_decode(line, i + len(',"provenance":'))
    if not line.startswith(',"spec":', i):
        return None
    i += len(',"spec":')
    if not (spec_text and line.startswith(spec_text, i)):
        spec, end = _DECODER.raw_decode(line, i)
        if not line.startswith(',"set":', end):
            return None
        spec_text = line[i : end + len(',"set":')]
    stored_set, i = _DECODER.raw_decode(line, i + len(spec_text))
    if line[i:] != "}":
        return None
    stored = {"schema_version": SCHEMA_VERSION, "campaign_id": campaign_id, "provenance": provenance}
    return record_from_dict({**stored, "spec": spec, "set": stored_set}), spec_text


def _decode_line(line: str, lineno: int, rest) -> CampaignRecord:
    """The record stored on line lineno.  rest, the lines after it, is read
    only on damage, to tell a truncated final line from a damaged interior
    one."""
    if not line.isascii():
        try:
            line.encode("utf-8")  # a byte that was not UTF-8 cannot encode back
        except UnicodeEncodeError as exc:
            raise _damage("record is not valid UTF-8", lineno, rest) from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _damage(f"unparseable record: {exc}", lineno, rest) from exc
    if not isinstance(obj, dict):
        raise _damage(f"malformed record: {type(obj).__name__} where an object belongs", lineno, rest)
    version = obj.get("schema_version")
    if not isinstance(version, int) or version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"unknown schema version {version!r} (reader supports {SCHEMA_VERSION})", lineno
        )
    try:
        return record_from_dict(obj)
    except _DAMAGE as exc:
        raise _damage(f"malformed record: {exc}", lineno, rest) from exc


def _damage(message: str, lineno: int, rest) -> Exception:
    """TruncatedFileError when only blank lines follow line lineno, else
    SchemaMismatchError."""
    if any(later.rstrip("\n") for later in rest):
        return SchemaMismatchError(message, lineno)
    return TruncatedFileError(lineno, [])
