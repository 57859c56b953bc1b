"""JSON-lines persistence for campaign records.

One CampaignRecord per line, UTF-8.  Keys are written in a fixed
documented order (schema_version, campaign_id, provenance, spec, set),
so identical records serialize byte-identically.  The set is stored by
one rule, applied to the type annotations of the dataclass fields: a
dataclass becomes an object with its fields in declaration order, a list
an array, an Enum its value, and bytes {"hex": "<hex digits>"}; anything
else is stored as it is.  The reader reverses the same rule.  Each
dataclass gets one text writer and one decode function, generated once
from its fields.  The writer builds the line's JSON text directly, with
no dict in between: each field's value is tested against its annotation
and written as json.JSONEncoder writes that type (keys escaped once, when
the writer is generated), and a value whose runtime type the annotation
does not admit (an int in a float field, a bool in an int field, NaN)
goes to the JSON encoder alone, so the bytes never depend on which path
wrote them.  The decoder is a call of the type with each stored field in
order, so every __post_init__ check still runs: a stored reading
(latency_ms, or a present rtt_ms) that is not a finite int or float >= 0
is damage like any other refused value.
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
of records holding the same dict, and the head (schema version, campaign
id, provenance) once for each run of records whose heads are equal in
type and value.  Callers must not mutate a spec_snapshot they read; the
change would show in every record sharing it.

The record types (MeasurementSet and the wire, resolve and mapping types
it holds) are slotted dataclasses: a record carries its fields and
nothing else, so callers cannot attach attributes to one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import types
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

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


def _from_hex(value):
    return bytes.fromhex(value["hex"]) if isinstance(value, dict) else value


def _cases(tp, v: str, namespace: dict) -> list[tuple[str, str]]:
    """(test, text) expression pairs for the JSON text of the local v when
    its runtime type is one tp admits; helpers they name go into
    namespace.  Each text is what _ENCODER writes for such a value."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return [case for arg in typing.get_args(tp) for case in _cases(arg, v, namespace)]
    if tp is type(None):
        return [(f"{v} is None", '"null"')]
    if tp is bool:
        return [(f"{v} is True", '"true"'), (f"{v} is False", '"false"')]
    if tp is str:
        return [(f"type({v}) is str", f"text_of_str({v})")]
    if tp is int:  # any int but a bool, IntEnum members included
        return [(f"isinstance({v}, int) and type({v}) is not bool", f"int.__repr__({v})")]
    if tp is float:  # finite: nan - nan and inf - inf are nan
        return [(f"type({v}) is float and {v} - {v} == 0.0", f"repr({v})")]
    if tp is bytes:
        return [(f"type({v}) is bytes", f"'{{\"hex\":\"' + {v}.hex() + '\"}}'")]
    n = len(namespace)
    if typing.get_origin(tp) is list:
        namespace[f"text{n}"] = _encoder(typing.get_args(tp)[0])
        return [(f"type({v}) is list", f"'[' + ','.join(map(text{n}, {v})) + ']'")]
    namespace[f"tp{n}"] = tp
    if isinstance(tp, type) and issubclass(tp, Enum):
        namespace[f"text{n}"] = {m: _ENCODER.encode(m.value) for m in tp}
        return [(f"type({v}) is tp{n}", f"text{n}[{v}]")]
    namespace[f"text{n}"] = _encoder(tp)  # a dataclass
    return [(f"type({v}) is tp{n}", f"text{n}({v})")]


def _text(tp, v: str, namespace: dict) -> str:
    """An expression for the JSON text of the local v, declared tp: the
    first case its runtime type meets, else _ENCODER's text for it."""
    return " else ".join([f"{text} if {test}" for test, text in _cases(tp, v, namespace)] + [f"encode({v})"])


@functools.cache
def _encoder(tp):
    """A function from a value declared tp to its JSON text, byte for byte
    what _ENCODER writes for it, generated once.  For a dataclass it writes
    an object with the fields in declaration order, each with its own case
    inline; a field whose runtime type its annotation does not admit, and
    a value that is not tp at all, go to _ENCODER alone."""
    namespace = {"encode": _ENCODER.encode, "text_of_str": encode_basestring_ascii, "tp": tp}
    if not dataclasses.is_dataclass(tp):
        exec(f"def text(v):\n    return {_text(tp, 'v', namespace)}\n", namespace)
        return namespace["text"]
    hints = typing.get_type_hints(tp)
    lines, template = [], []
    for i, f in enumerate(dataclasses.fields(tp)):
        lines.append(f"    v = obj.{f.name}\n    f{i} = {_text(hints[f.name], 'v', namespace)}\n")
        template.append(f"{encode_basestring_ascii(f.name)}:{{f{i}}}")
    body = "{{" + ",".join(template) + "}}"
    source = (
        "def text(obj):\n    if type(obj) is not tp:\n        return encode(obj)\n"
        + "".join(lines)
        + f"    return f{body!r}\n"
    )
    exec(source, namespace)
    return namespace["text"]


def _field_decoder(tp):
    """The decode function for dataclass tp: one call of the type with each
    stored field in order, generated from its fields the way dataclasses
    builds __init__, so every __post_init__ check still runs."""
    hints = typing.get_type_hints(tp)
    namespace = {"tp": tp}
    decoded = []
    for f in dataclasses.fields(tp):
        dec = _decoder(hints[f.name])
        stored = f"d[{f.name!r}]"
        if dec is not None:
            namespace[f"dec_{f.name}"] = dec
            stored = f"dec_{f.name}({stored})"
        decoded.append(stored)
    exec(f"def decode(d):\n    return tp({', '.join(decoded)})\n", namespace)
    return namespace["decode"]


@functools.cache
def _decoder(tp):
    """The function from the stored form of a tp value to the value, or
    None where the stored form is the value itself.

    A stored value of the wrong shape makes decoding raise KeyError,
    ValueError or TypeError (WireError for an invalid name), which
    iter_records reports as damage.
    """
    if dataclasses.is_dataclass(tp):
        return _field_decoder(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        dec = _decoder(args[0])
        return None if dec is None else lambda items: [dec(item) for item in items]
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode(value):
            try:
                return members[value]
            except KeyError:
                raise ValueError(f"{value!r} is not a valid {tp.__name__}") from None

        return decode
    if bytes in args:  # ResourceRecord.rdata: str | list[str] | bytes
        return _from_hex
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        dec = _decoder(inner)
        return None if dec is None else lambda value: None if value is None else dec(value)
    return None


def record_from_dict(d: dict) -> CampaignRecord:
    return CampaignRecord(
        campaign_id=d["campaign_id"],
        mset=_decoder(MeasurementSet)(d["set"]),
        spec_snapshot=d["spec"],
        provenance=Provenance(d["provenance"]),
        schema_version=d["schema_version"],
    )


def _record_lines(records: Iterable[CampaignRecord]) -> Iterator[str]:
    """The stored lines of records.  A run of records with the same head
    (schema version, campaign id and provenance, compared by type and
    value) encodes it once, and a run sharing one spec dict encodes the
    spec once."""
    text_of_set = _encoder(MeasurementSet)
    head_key = head = spec = None
    spec_text = "null"  # None as it is written
    for record in records:
        version, campaign_id = record.schema_version, record.campaign_id
        key = (type(version), version, type(campaign_id), campaign_id, record.provenance)
        if key != head_key:
            head_key = key
            head = (
                f'{{"schema_version":{_ENCODER.encode(version)},"campaign_id":{_ENCODER.encode(campaign_id)},'
                f'"provenance":{_ENCODER.encode(record.provenance.value)},"spec":'
            )
        if record.spec_snapshot is not spec:
            spec, spec_text = record.spec_snapshot, _ENCODER.encode(record.spec_snapshot)
        yield f'{head}{spec_text},"set":{text_of_set(record.mset)}}}\n'


def write_records(records: Iterable[CampaignRecord], path: str):
    """Write records, any iterable of them, to path, all or nothing.

    The lines go to a temporary file in the same directory, which is
    flushed to disk and then replaces path; a write that fails part way,
    an iterable that raises, or a crash, leaves whatever was at path
    untouched.
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


def append_records(records: Iterable[CampaignRecord], path: str):
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
