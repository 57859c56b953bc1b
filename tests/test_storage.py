"""Campaign persistence round-trips and the Atlas result importer."""

import base64
import contextlib
import copy
import dataclasses
import gc
import json
import random
import typing
import unittest.mock
from enum import Enum

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test skips itself
    given = settings = st = None

import mocknet
from factories import make_question, make_response, make_set
from dnscdn import cli
from dnscdn.atlas import import_atlas
from dnscdn.campaign import MeasurementSet
from dnscdn.discovery import CdnCatalog
from dnscdn.mapping import HandshakeFailure, HandshakeSample
from dnscdn.resolve import TimedDnsResponse
from dnscdn.storage import (
    CampaignRecord,
    IoFailureError,
    Provenance,
    SchemaMismatchError,
    TruncatedFileError,
    append_records,
    iter_records,
    read_records,
    record_from_dict,
    write_records,
)
from dnscdn.wire import MAX_TTL, DnsQuestion, IpVersion, RecordType, ResourceRecord


# The writer's oracle: a record's stored form as a dict, built by the rule
# the storage module states, and the text json.JSONEncoder writes for it.
ORACLE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def stored_form(value, tp):
    """value, declared tp, as stored: a dataclass as a dict of its fields in
    order, a list as a list, an Enum as its value, bytes as {"hex": ...},
    anything else as it is."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return {f.name: stored_form(getattr(value, f.name), hints[f.name]) for f in dataclasses.fields(tp)}
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        return [stored_form(item, args[0]) for item in value]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return value.value
    if bytes in args:
        return {"hex": value.hex()} if isinstance(value, bytes) else value
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else stored_form(value, inner)
    return value


def oracle_dict(record: CampaignRecord) -> dict:
    return {
        "schema_version": record.schema_version,
        "campaign_id": record.campaign_id,
        "provenance": record.provenance.value,
        "spec": record.spec_snapshot,
        "set": stored_form(record.mset, MeasurementSet),
    }


def random_record(rng: random.Random, index: int) -> CampaignRecord:
    qname = f"site{rng.randrange(1000)}.example"
    version = rng.choice([IpVersion.V4, IpVersion.V6])
    qtype = RecordType.A if version is IpVersion.V4 else RecordType.AAAA
    address = (
        f"192.0.2.{rng.randrange(1, 255)}"
        if version is IpVersion.V4
        else f"2001:db8::{rng.randrange(1, 0xFFFF):x}"
    )
    answer_pool = [
        ResourceRecord(name=qname, rtype=int(qtype), ttl=rng.randrange(0, 3600), rdata=address),
        ResourceRecord(name=qname, rtype=int(RecordType.CNAME), ttl=300, rdata="edge.cdn.example"),
        ResourceRecord(name=qname, rtype=int(RecordType.TXT), ttl=60, rdata=["k", "v"]),
        ResourceRecord(name=qname, rtype=99, ttl=5, rdata=rng.randbytes(6)),
    ]
    responses = []
    for i in range(rng.randint(3, 4)):
        responses.append(
            TimedDnsResponse(
                question=make_question(qname=qname, qtype=qtype),
                rcode=rng.choice([0, 0, 0, 3]),
                answers=rng.sample(answer_pool, rng.randint(1, len(answer_pool))),
                latency_ms=round(rng.uniform(1, 300), 4),
                sent_at_monotonic=float(i),
                sent_at_wall=1_650_000_000.0 + i,
                truncated_retried=rng.random() < 0.1,
                is_prewarm=(i == 0 and rng.random() < 0.5),
            )
        )
    handshakes = []
    for _ in range(rng.randint(0, 3)):
        ok = rng.random() < 0.8
        handshakes.append(
            HandshakeSample(
                address=address,
                port=443,
                rtt_ms=round(rng.uniform(5, 80), 4) if ok else None,
                success=ok,
                error_kind=None if ok else rng.choice(list(HandshakeFailure)),
            )
        )
    mset = MeasurementSet(
        vantage_id=f"probe-{rng.randrange(500)}",
        website=qname,
        cdn=rng.choice(["akamai", "fastly", "cloudflare-cdn", "edgecast"]),
        resolver_label=rng.choice(["google", "cloudflare", "opendns", "quad9"]),
        ip_version=version,
        dns_results=responses,
        handshake_results=handshakes,
        created_at=1_650_000_000.0 + index,
        failed_twice=rng.random() < 0.05,
    )
    return CampaignRecord(
        campaign_id=f"campaign-{index % 3}",
        mset=mset,
        spec_snapshot={"dns_repeats": 3, "prewarm_gap_s": 15.0},
        provenance=rng.choice([Provenance.NATIVE, Provenance.ATLAS_IMPORT]),
    )


def golden_record() -> CampaignRecord:
    """One record holding every kind of stored field."""
    question = make_question(qname="www.example.com", qtype=RecordType.AAAA, resolver="2001:db8::53")
    cname = ResourceRecord(
        name="www.example.com", rtype=int(RecordType.CNAME), ttl=300, rdata="edge.cdn.example"
    )
    aaaa = ResourceRecord(name="edge.cdn.example", rtype=int(RecordType.AAAA), ttl=20, rdata="2001:db8::1")
    txt = ResourceRecord(name="edge.cdn.example", rtype=int(RecordType.TXT), ttl=60, rdata=["k=v", "x"])
    opaque = ResourceRecord(name="edge.cdn.example", rtype=99, ttl=5, rdata=b"\x00\xffab")
    mset = MeasurementSet(
        vantage_id="probe-7",
        website="www.example.com",
        cdn="akamai",
        resolver_label="google",
        ip_version=IpVersion.V6,
        dns_results=[
            TimedDnsResponse(question, 0, [cname, aaaa], 41.5, 1.0, 1_650_000_001.0, is_prewarm=True),
            TimedDnsResponse(
                question,
                0,
                [cname, aaaa, txt, opaque],
                12.25,
                16.0,
                1_650_000_016.0,
                truncated_retried=True,
            ),
            TimedDnsResponse(question, 3, [], 11.0, 16.5, 1_650_000_016.5),
        ],
        handshake_results=[
            HandshakeSample(address="2001:db8::1", port=443, rtt_ms=25.5, success=True),
            HandshakeSample(
                address="2001:db8::1",
                port=443,
                rtt_ms=None,
                success=False,
                error_kind=HandshakeFailure.TIMEOUT,
            ),
        ],
        created_at=1_650_000_000.0,
        failed_twice=True,
    )
    return CampaignRecord(
        campaign_id="c7", mset=mset, spec_snapshot={"dns_repeats": 3, "prewarm_gap_s": 15.0}
    )


# golden_record() as stored; files already on disk hold this shape, so it must not drift.
GOLDEN_LINE = (
    '{"schema_version":1,"campaign_id":"c7","provenance":"native",'
    '"spec":{"dns_repeats":3,"prewarm_gap_s":15.0},'
    '"set":{"vantage_id":"probe-7","website":"www.example.com","cdn":"akamai","resolver_label":"google",'
    '"ip_version":"v6",'
    '"dns_results":['
    '{"question":{"qname":"www.example.com","qtype":28,"resolver_address":"2001:db8::53",'
    '"transport_version":"v6","timeout_ms":5000.0,"resolver_port":53},"rcode":0,'
    '"answers":['
    '{"name":"www.example.com","rtype":5,"ttl":300,"rdata":"edge.cdn.example"},'
    '{"name":"edge.cdn.example","rtype":28,"ttl":20,"rdata":"2001:db8::1"}],'
    '"latency_ms":41.5,"sent_at_monotonic":1.0,"sent_at_wall":1650000001.0,'
    '"truncated_retried":false,"is_prewarm":true},'
    '{"question":{"qname":"www.example.com","qtype":28,"resolver_address":"2001:db8::53",'
    '"transport_version":"v6","timeout_ms":5000.0,"resolver_port":53},"rcode":0,'
    '"answers":['
    '{"name":"www.example.com","rtype":5,"ttl":300,"rdata":"edge.cdn.example"},'
    '{"name":"edge.cdn.example","rtype":28,"ttl":20,"rdata":"2001:db8::1"},'
    '{"name":"edge.cdn.example","rtype":16,"ttl":60,"rdata":["k=v","x"]},'
    '{"name":"edge.cdn.example","rtype":99,"ttl":5,"rdata":{"hex":"00ff6162"}}],'
    '"latency_ms":12.25,"sent_at_monotonic":16.0,"sent_at_wall":1650000016.0,'
    '"truncated_retried":true,"is_prewarm":false},'
    '{"question":{"qname":"www.example.com","qtype":28,"resolver_address":"2001:db8::53",'
    '"transport_version":"v6","timeout_ms":5000.0,"resolver_port":53},"rcode":3,'
    '"answers":[],'
    '"latency_ms":11.0,"sent_at_monotonic":16.5,"sent_at_wall":1650000016.5,'
    '"truncated_retried":false,"is_prewarm":false}],'
    '"handshake_results":['
    '{"address":"2001:db8::1","port":443,"rtt_ms":25.5,"success":true,"error_kind":null},'
    '{"address":"2001:db8::1","port":443,"rtt_ms":null,"success":false,"error_kind":"timeout"}],'
    '"created_at":1650000000.0,"failed_twice":true}}'
)

# Damage to one value nested inside a stored set, applied to golden_record's "set" object.
NESTED_DAMAGE = [
    pytest.param(lambda s: s.update(ip_version="v5"), id="unknown-enum-value"),
    pytest.param(lambda s: s["dns_results"][0]["question"].pop("qname"), id="missing-nested-key"),
    pytest.param(
        lambda s: s["dns_results"][1]["answers"][3].update(rdata={"hx": "00ff6162"}),
        id="misspelled-hex-key",
    ),
    pytest.param(lambda s: s.update(dns_results=3), id="list-field-is-a-number"),
    pytest.param(lambda s: s["dns_results"][0].update(question="x"), id="nested-object-is-a-string"),
    pytest.param(lambda s: s["dns_results"][0].update(question=["x"]), id="nested-object-is-a-list"),
    pytest.param(lambda s: s["dns_results"][0]["question"].update(qname="a..b"), id="qname-empty-label"),
    pytest.param(lambda s: s["dns_results"][0]["question"].update(qname=7), id="qname-not-a-string"),
    pytest.param(
        lambda s: s["dns_results"][0]["question"].update(resolver_address=7), id="resolver-address-not-a-string"
    ),
    pytest.param(
        lambda s: s["dns_results"][1]["answers"][1].update(rtype=1, rdata="10.0.0.256"),
        id="a-rdata-octet-out-of-range",
    ),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms="5"), id="latency-a-string"),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms=None), id="latency-null"),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms=-5), id="latency-negative"),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms=float("nan")), id="latency-nan"),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms=float("inf")), id="latency-inf"),
    pytest.param(lambda s: s["dns_results"][1].update(latency_ms=True), id="latency-a-bool"),
    pytest.param(lambda s: s["handshake_results"][0].update(rtt_ms="5"), id="rtt-a-string"),
    pytest.param(lambda s: s["handshake_results"][0].update(rtt_ms=-5), id="rtt-negative"),
    pytest.param(lambda s: s["handshake_results"][0].update(rtt_ms=float("nan")), id="rtt-nan"),
    pytest.param(lambda s: s["handshake_results"][0].update(rtt_ms=True), id="rtt-a-bool"),
]


def damaged_golden_line(damage, separators=None) -> str:
    obj = json.loads(GOLDEN_LINE)
    damage(obj["set"])
    return json.dumps(obj, separators=separators)


def shared_spec_damaged_line(damage) -> str:
    """golden_record's line with its set damaged, written as write_records
    writes, so its spec text is the golden line's."""
    line = damaged_golden_line(damage, separators=(",", ":"))
    spec_end = GOLDEN_LINE.index(',"set":')
    assert line[:spec_end] == GOLDEN_LINE[:spec_end] and line != GOLDEN_LINE
    return line


class TestRoundTrip:
    def test_structural_equality_over_varied_records(self, tmp_path):
        rng = random.Random(0x5709)
        records = [random_record(rng, i) for i in range(200)]
        path = str(tmp_path / "campaign.jsonl")
        write_records(records, path)
        assert read_records(path) == records
        rewritten = str(tmp_path / "rewritten.jsonl")
        write_records(read_records(path), rewritten)
        with open(path, "rb") as fa, open(rewritten, "rb") as fb:
            assert fa.read() == fb.read()

    def test_serialization_is_byte_deterministic(self, tmp_path):
        records = [CampaignRecord(campaign_id="c1", mset=make_set())]
        first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_records(records, first)
        write_records(records, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_documented_key_order(self, tmp_path):
        path = str(tmp_path / "one.jsonl")
        write_records([CampaignRecord(campaign_id="c1", mset=make_set())], path)
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
        assert list(json.loads(line)) == ["schema_version", "campaign_id", "provenance", "spec", "set"]

    def test_golden_line_is_written_byte_for_byte(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        write_records([golden_record()], str(path))
        assert path.read_bytes() == (GOLDEN_LINE + "\n").encode("utf-8")

    def test_golden_line_reads_back_typed(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        path.write_text(GOLDEN_LINE + "\n")
        [record] = read_records(str(path))
        assert record == golden_record()
        response = record.mset.dns_results[1]
        assert response.question.qtype is RecordType.AAAA
        assert response.question.transport_version is IpVersion.V6
        assert type(response.answers[1].rtype) is int
        assert response.answers[3].rdata == b"\x00\xffab"
        assert record.mset.handshake_results[1].error_kind is HandshakeFailure.TIMEOUT

    def test_one_campaign_file_shares_one_spec(self, tmp_path):
        records = [
            CampaignRecord(campaign_id="c1", mset=make_set(vantage_id=f"p{i}"), spec_snapshot={"dns_repeats": 3})
            for i in range(5)
        ]
        path = str(tmp_path / "campaign.jsonl")
        write_records(records, path)
        back = read_records(path)
        assert back == records
        assert all(r.spec_snapshot is back[0].spec_snapshot for r in back)

    def test_different_specs_are_kept_apart(self, tmp_path):
        # 15 and 15.0 compare equal in Python but are stored differently.
        specs = [{"prewarm_gap_s": 15}, {"prewarm_gap_s": 15}, {"prewarm_gap_s": 15.0}, {"dns_repeats": 4}]
        records = [
            CampaignRecord(campaign_id=f"c{i}", mset=make_set(vantage_id=f"p{i}"), spec_snapshot=spec)
            for i, spec in enumerate(specs)
        ]
        path = str(tmp_path / "appended.jsonl")
        write_records(records, path)
        back = read_records(path)
        assert [r.spec_snapshot for r in back] == specs
        assert [type(r.spec_snapshot.get("prewarm_gap_s")) for r in back] == [int, int, float, type(None)]
        assert back[0].spec_snapshot is back[1].spec_snapshot
        assert len({id(r.spec_snapshot) for r in back}) == 3
        rewritten = str(tmp_path / "rewritten.jsonl")
        write_records(back, rewritten)
        with open(path, "rb") as fa, open(rewritten, "rb") as fb:
            assert fa.read() == fb.read()

    def test_append_extends_file(self, tmp_path):
        path = str(tmp_path / "grow.jsonl")
        rng = random.Random(1)
        head = [random_record(rng, i) for i in range(2)]
        tail = [random_record(rng, i) for i in range(2, 5)]
        write_records(head, path)
        append_records(tail, path)
        assert read_records(path) == head + tail

    def test_failed_write_leaves_the_old_file_untouched(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        rng = random.Random(2)
        write_records([random_record(rng, i) for i in range(3)], str(path))
        before = path.read_bytes()
        unserializable = CampaignRecord(campaign_id="c2", mset=make_set(), spec_snapshot={"x": object()})
        with pytest.raises(TypeError):
            write_records([random_record(rng, 3), unserializable], str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.jsonl"]

    def test_an_iterable_that_raises_part_way_leaves_the_old_file_untouched(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        rng = random.Random(3)
        write_records((random_record(rng, i) for i in range(3)), str(path))
        before = path.read_bytes()

        def records():
            yield random_record(rng, 3)
            yield random_record(rng, 4)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_records(records(), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.jsonl"]

    def test_unwritable_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            write_records([], str(tmp_path / "no-such-dir" / "out.jsonl"))

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_records(str(path)) == []

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_records(str(tmp_path / "absent.jsonl"))


class TestSchemaHandling:
    def _valid_line(self):
        return json.dumps(oracle_dict(CampaignRecord(campaign_id="c", mset=make_set())))

    def test_unknown_version_rejected_with_line_number(self, tmp_path):
        obj = json.loads(self._valid_line())
        obj["schema_version"] = 2
        path = tmp_path / "future.jsonl"
        path.write_text(self._valid_line() + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(SchemaMismatchError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2

    def test_non_integer_version_rejected(self, tmp_path):
        obj = json.loads(self._valid_line())
        obj["schema_version"] = "1"
        path = tmp_path / "stringy.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaMismatchError):
            read_records(str(path))

    def test_truncated_final_line_salvages_prefix(self, tmp_path):
        path = str(tmp_path / "cut.jsonl")
        rng = random.Random(2)
        records = [random_record(rng, i) for i in range(3)]
        write_records(records, path)
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[: len(content) - 40])  # chop into the last record
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(path)
        assert excinfo.value.line_number == 3
        assert excinfo.value.records == records[:2]

    def test_final_line_with_missing_fields_counts_as_truncated(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(self._valid_line() + "\n" + '{"schema_version":1,"campaign_id":"c"}\n')
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert len(excinfo.value.records) == 1

    def test_midfile_corruption_is_schema_mismatch(self, tmp_path):
        path = tmp_path / "bitrot.jsonl"
        path.write_text("{garbage\n" + self._valid_line() + "\n")
        with pytest.raises(SchemaMismatchError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 1


    @pytest.mark.parametrize("value", ["[]", "5", '"x"', "null"])
    def test_json_that_is_not_an_object_is_damage(self, tmp_path, value):
        path = tmp_path / "stray.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{value}\n{GOLDEN_LINE}\n")
        with pytest.raises(SchemaMismatchError, match="line 2: malformed record"):
            read_records(str(path))
        path.write_text(f"{GOLDEN_LINE}\n{value}\n")
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert excinfo.value.records == [golden_record()]

    def test_blank_line_before_the_final_record_is_schema_mismatch(self, tmp_path):
        path = tmp_path / "gapped.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n\n{GOLDEN_LINE}\n")
        with pytest.raises(SchemaMismatchError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "padded.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n\n\n")
        assert read_records(str(path)) == [golden_record()]

    def test_damaged_line_followed_by_blank_lines_is_truncated(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{GOLDEN_LINE[:50]}\n\n")
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2
        assert excinfo.value.records == [golden_record()]

    @staticmethod
    def _not_utf8(line: str) -> bytes:
        raw = line.encode("ascii")
        assert b'"campaign_id":"' in raw
        return raw.replace(b'"campaign_id":"', b'"campaign_id":"\xff', 1)

    def test_bytes_that_are_not_utf8_midfile_are_schema_mismatch(self, tmp_path):
        path = tmp_path / "undecodable.jsonl"
        path.write_bytes(b"\n".join([GOLDEN_LINE.encode(), self._not_utf8(GOLDEN_LINE), GOLDEN_LINE.encode()]))
        with pytest.raises(SchemaMismatchError, match="line 2: record is not valid UTF-8"):
            read_records(str(path))

    def test_bytes_that_are_not_utf8_on_the_last_line_are_truncated(self, tmp_path):
        path = tmp_path / "undecodable.jsonl"
        path.write_bytes(GOLDEN_LINE.encode() + b"\n" + self._not_utf8(GOLDEN_LINE) + b"\n")
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2
        assert excinfo.value.records == [golden_record()]

    def test_utf8_text_beyond_ascii_reads_back(self, tmp_path):
        record = CampaignRecord(campaign_id="c", mset=make_set(), spec_snapshot={"note": "é"})
        path = tmp_path / "accented.jsonl"
        path.write_text(json.dumps(oracle_dict(record), ensure_ascii=False) + "\n", encoding="utf-8")
        assert read_records(str(path)) == [record]

    def test_iter_records_yields_each_record_before_reading_on(self, tmp_path):
        path = tmp_path / "bitrot.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{{garbage\n{GOLDEN_LINE}\n")
        records = iter_records(str(path))
        assert next(records) == golden_record()
        with pytest.raises(SchemaMismatchError) as excinfo:
            next(records)
        assert excinfo.value.line_number == 2

    def test_iter_records_leaves_the_salvage_with_the_caller(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{GOLDEN_LINE}\n{GOLDEN_LINE[:80]}")
        seen = []
        with pytest.raises(TruncatedFileError) as excinfo:
            seen.extend(iter_records(str(path)))
        assert seen == [golden_record(), golden_record()]
        assert excinfo.value.line_number == 3
        assert excinfo.value.records == []

    def test_iter_records_on_a_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            next(iter_records(str(tmp_path / "absent.jsonl")))

    @pytest.mark.parametrize("damage", NESTED_DAMAGE)
    def test_damaged_nested_value_midfile_is_schema_mismatch(self, tmp_path, damage):
        path = tmp_path / "damaged.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{damaged_golden_line(damage)}\n{GOLDEN_LINE}\n")
        with pytest.raises(SchemaMismatchError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("damage", NESTED_DAMAGE)
    def test_damaged_nested_value_on_the_last_line_is_truncated(self, tmp_path, damage):
        path = tmp_path / "damaged.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{GOLDEN_LINE}\n{damaged_golden_line(damage)}\n")
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 3
        assert excinfo.value.records == [golden_record(), golden_record()]

    @pytest.mark.parametrize("damage", NESTED_DAMAGE)
    def test_damaged_set_under_a_shared_spec_midfile_is_schema_mismatch(self, tmp_path, damage):
        path = tmp_path / "damaged.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{shared_spec_damaged_line(damage)}\n{GOLDEN_LINE}\n")
        with pytest.raises(SchemaMismatchError, match="^line 2: malformed record: ") as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("damage", NESTED_DAMAGE)
    def test_damaged_set_under_a_shared_spec_on_the_last_line_is_truncated(self, tmp_path, damage, capsys):
        path = tmp_path / "damaged.jsonl"
        path.write_text(f"{GOLDEN_LINE}\n{GOLDEN_LINE}\n{shared_spec_damaged_line(damage)}\n")
        with pytest.raises(TruncatedFileError) as excinfo:
            read_records(str(path))
        assert excinfo.value.line_number == 3
        assert excinfo.value.records == [golden_record(), golden_record()]
        assert cli.main(["analyze", "--input", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"damaged input: {path}: truncated at line 3; salvaged 2 record(s)"
        ]


# Specs and campaign ids the equivalence test draws from: 15 and 15.0 compare
# equal but are stored differently, and an id may hold text that looks like
# the keys around a stored spec.
EQUIVALENCE_SPECS = [
    {"prewarm_gap_s": 15},
    {"prewarm_gap_s": 15.0},
    {"dns_repeats": 3, "prewarm_gap_s": 15.0},
    {},
    {"note": '"spec":{},"set":'},
    None,
]
EQUIVALENCE_IDS = ["c1", 'c"1', "c\\1", '"spec":{},"set":', '","spec":{"prewarm_gap_s":15},"set":']


def _mutations():
    """Changes to one line as write_records writes it, each drawing what
    else it needs."""

    def cut(draw, line):
        return line[: draw(st.integers(0, len(line)))]

    def replace_byte(draw, line):
        at = draw(st.integers(0, len(line) - 1))
        return line[:at] + bytes([draw(st.integers(0, 255))]) + line[at + 1 :]

    def insert_non_ascii(draw, line):
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.sampled_from(["\u00e9", "\u2028", "\U0001f600"])).encode() + line[at:]

    def space_after_colon(draw, line):
        colons = [i for i, byte in enumerate(line) if byte == ord(":")]
        at = draw(st.sampled_from(colons)) + 1
        return line[:at] + b" " + line[at:]

    def reorder_keys(draw, line):
        obj = json.loads(line)
        keys = draw(st.permutations(list(obj)))
        return json.dumps({k: obj[k] for k in keys}, separators=(",", ":")).encode()

    def append(draw, line):
        return line + draw(st.sampled_from([b" ", b"\t", b"}", b"0", b'{"set":{}}']))

    def duplicate_key(draw, line):
        key = draw(st.sampled_from([b'"campaign_id":"c9"', b'"provenance":"native"', b'"spec":{}', b'"set":{}']))
        return line[:-1] + b"," + key + b"}"

    def spec_number(draw, line):
        if b'"prewarm_gap_s":15.0' in line:
            return line.replace(b'"prewarm_gap_s":15.0', b'"prewarm_gap_s":15', 1)
        return line.replace(b'"prewarm_gap_s":15', b'"prewarm_gap_s":15.0', 1)

    def replacing(old, new):
        return lambda draw, line: line.replace(old, new, 1)

    renames = [replacing(b'"%s":' % key, b'"%sx":' % key[:-1]) for key in (b"campaign_id", b"provenance", b"spec", b"set")]
    versions = [replacing(b'"schema_version":1,', b'"schema_version":%s,' % v) for v in (b"2", b"1.0")]
    return [
        cut, replace_byte, insert_non_ascii, space_after_colon, reorder_keys,
        append, duplicate_key, spec_number, *renames, *versions,
    ]


def _outcome(path):
    """The records iter_records yields from path, and what it raises after."""
    records = []
    try:
        for record in iter_records(path):
            records.append(record)
    except Exception as exc:
        return records, (type(exc), str(exc), getattr(exc, "line_number", None))
    return records, None


def _property(test):
    """test run on 100 draws of data by hypothesis, or skipped without it."""
    if given is None:
        return pytest.mark.skip(reason="needs hypothesis")(test)
    return settings(max_examples=100)(given(data=st.data())(test))


class TestSpecReuseEquivalence:
    @staticmethod
    def _assert_reads_as_the_full_parse(path):
        got, got_error = _outcome(path)
        with unittest.mock.patch("dnscdn.storage._decode_written", return_value=None):
            want, want_error = _outcome(path)  # every line through the full parse
        assert got == want
        assert got_error == want_error
        assert [json.dumps(oracle_dict(r)) for r in got] == [json.dumps(oracle_dict(r)) for r in want]
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            stored = [line.rstrip("\n") for line in fh]
        for record, line in zip(got, [line for line in stored if line]):
            assert record == record_from_dict(json.loads(line))

    @_property
    def test_reading_equals_the_full_parse_of_every_line(self, tmp_path_factory, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        records = []
        for index in range(data.draw(st.integers(1, 5))):
            record = random_record(rng, index)
            record.campaign_id = data.draw(st.sampled_from(EQUIVALENCE_IDS))
            spec = data.draw(st.sampled_from(EQUIVALENCE_SPECS))
            record.spec_snapshot = spec if data.draw(st.booleans()) else copy.deepcopy(spec)
            records.append(record)
        path = str(tmp_path_factory.mktemp("equivalence") / "campaign.jsonl")
        write_records(records, path)
        with open(path, "rb") as fh:
            written = fh.read().split(b"\n")[:-1]
        self._assert_reads_as_the_full_parse(path)
        back = read_records(path)  # one text rule: equal spec text, one dict
        for before, after in zip(back, back[1:]):
            same_text = json.dumps(before.spec_snapshot) == json.dumps(after.spec_snapshot)
            assert (before.spec_snapshot is after.spec_snapshot) == same_text
        for mutate in _mutations():  # each kind of change, to one line
            lines = list(written)
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = mutate(data.draw, lines[at])
            with open(path, "wb") as fh:
                fh.write(b"".join(line + b"\n" for line in lines))
            self._assert_reads_as_the_full_parse(path)


def _draw_number(draw, *, low=None):
    """An int or a float, large and small ones too; with low, a finite one
    no lower, else possibly a bool, NaN or an infinity."""
    if low is not None:
        finite = st.floats(low, allow_infinity=False)
        return draw(st.one_of(st.integers(low, 2**70), finite, st.sampled_from([5e-324, 1e300])))
    edges = st.sampled_from([-0.0, 1e16, 5e-324, 1e-7])
    return draw(st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.booleans(), edges))


def _draw_int(draw, low=0, high=2**16):
    """An int in [low, high], or a bool, which every int field accepts."""
    return draw(st.one_of(st.integers(low, high), st.booleans()))


def _draw_answer(draw) -> ResourceRecord:
    kind = draw(st.sampled_from(["A", "AAAA", "CNAME", "TXT", "opaque"]))
    name = draw(st.text(max_size=6))
    ttl = _draw_int(draw, 0, MAX_TTL)
    if kind == "A":  # the IntEnum member, a plain int or True, which equals 1
        rtype = draw(st.sampled_from([RecordType.A, 1, True]))
        return ResourceRecord(name, rtype, ttl, f"192.0.2.{draw(st.integers(0, 255))}")
    if kind == "AAAA":
        return ResourceRecord(name, draw(st.sampled_from([RecordType.AAAA, 28])), ttl, "2001:db8::1")
    if kind == "CNAME":
        return ResourceRecord(name, RecordType.CNAME, ttl, draw(st.text(max_size=6)))
    if kind == "TXT":
        return ResourceRecord(name, int(RecordType.TXT), ttl, draw(st.lists(st.text(max_size=4), max_size=3)))
    rtype = draw(st.integers(0, 0xFFFF).filter(lambda t: t not in (1, 2, 5, 16, 28)))
    return ResourceRecord(name, rtype, ttl, draw(st.binary(max_size=6)))


def _draw_set(draw) -> MeasurementSet:
    version = draw(st.sampled_from(list(IpVersion)))
    question = DnsQuestion(
        qname="www.example.com",
        qtype=draw(st.sampled_from(list(RecordType))),
        resolver_address="192.0.2.53" if version is IpVersion.V4 else "2001:db8::53",
        timeout_ms=draw(st.one_of(st.floats(1e-3, 1e6), st.integers(1, 10**6), st.just(True))),
        resolver_port=_draw_int(draw),
    )
    if draw(st.booleans()):
        question.transport_version = None  # the constructor fills it in; a record may still hold None
    stamps = []
    for stamp in draw(st.lists(st.one_of(st.floats(-1e9, 1e9), st.integers(-(10**9), 10**9)), max_size=3)):
        if not stamps or stamp > stamps[-1]:
            stamps.append(stamp)
    dns = [
        TimedDnsResponse(
            question=question,
            rcode=_draw_int(draw, 0, 15),
            answers=[_draw_answer(draw) for _ in range(draw(st.integers(0, 3)))],
            latency_ms=_draw_number(draw, low=0),
            sent_at_monotonic=stamp,
            sent_at_wall=_draw_number(draw),
            truncated_retried=draw(st.booleans()),
            is_prewarm=i == 0 and draw(st.booleans()),
        )
        for i, stamp in enumerate(stamps)
    ]
    handshakes = []
    for _ in range(draw(st.integers(0, 2))):
        ok = draw(st.booleans())
        handshakes.append(
            HandshakeSample(
                address=draw(st.text(max_size=6)),
                port=_draw_int(draw),
                rtt_ms=_draw_number(draw, low=0) if ok else None,
                success=ok,
                error_kind=None if ok else draw(st.sampled_from([None, *HandshakeFailure])),
            )
        )
    texts = [draw(st.text(max_size=8)) for _ in range(4)]  # control characters and non-ASCII among them
    return MeasurementSet(*texts, version, dns, handshakes, _draw_number(draw), draw(st.booleans()))


class TestWriterOracle:
    @_property
    def test_every_line_is_the_oracles_bytes(self, tmp_path_factory, data):
        heads = [(1, "c1"), (1, 1), (1, True), (1, "1"), (True, "c1"), (1, "caf\u00e9\x07")]
        records = []
        for _ in range(data.draw(st.integers(1, 5))):  # runs of equal heads and specs, and changes
            version, campaign_id = data.draw(st.sampled_from(heads))
            records.append(
                CampaignRecord(
                    campaign_id=campaign_id,
                    mset=_draw_set(data.draw),
                    spec_snapshot=data.draw(st.sampled_from(EQUIVALENCE_SPECS)),
                    provenance=data.draw(st.sampled_from(list(Provenance))),
                    schema_version=version,
                )
            )
        path = tmp_path_factory.mktemp("oracle") / "campaign.jsonl"
        write_records(records, str(path))
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert lines == [ORACLE_ENCODER.encode(oracle_dict(r)).encode("ascii") for r in records]


def dns_abuf(qname: str, address: str = "192.0.2.7", qtype: int = mocknet.A) -> str:
    answers = [(qname, qtype, 20, address)]
    return base64.b64encode(mocknet.build_response(7, qname, qtype, answers)).decode("ascii")


def dns_entry(prb, qname, timestamp, rt, resolver="8.8.8.8", abuf=None):
    return {
        "prb_id": prb,
        "timestamp": timestamp,
        "dst_addr": resolver,
        "result": {"rt": rt, "abuf": abuf if abuf is not None else dns_abuf(qname)},
    }


def tls_entry(prb, dst_name, timestamp, rt=None, ttc=None, address="203.0.113.7"):
    entry = {
        "prb_id": prb,
        "dst_name": dst_name,
        "dst_addr": address,
        "dst_port": 443,
        "timestamp": timestamp,
    }
    if rt is not None:
        entry["rt"] = rt
    if ttc is not None:
        entry["ttc"] = ttc
    return entry


def write_atlas(tmp_path, dns_entries, tls_entries):
    dns_path = tmp_path / "dns.json"
    tls_path = tmp_path / "tls.json"
    dns_path.write_text(json.dumps(dns_entries))
    tls_path.write_text(json.dumps(tls_entries))
    return str(dns_path), str(tls_path)


class TestAtlasImport:
    QNAME = "www.wide.example"
    BASE = 1_650_000_000

    def test_one_probe_forms_one_complete_set(self, tmp_path):
        dns = [
            dns_entry(42, self.QNAME, self.BASE, 55.0),
            dns_entry(42, self.QNAME, self.BASE + 15, 21.0),
            dns_entry(42, self.QNAME, self.BASE + 15, 22.0),
            dns_entry(42, self.QNAME, self.BASE + 16, 23.0),
        ]
        tls = [tls_entry(42, self.QNAME, self.BASE + 20 + i, rt=25.0 + i) for i in range(3)]
        result = import_atlas(*write_atlas(tmp_path, dns, tls))
        assert result.skipped == 0 and result.orphans == 0
        assert len(result.sets) == 1
        mset = result.sets[0]
        assert mset.vantage_id == "42"
        assert mset.website == self.QNAME
        assert len(mset.dns_results) == 4
        assert mset.dns_results[0].is_prewarm and mset.dns_results[0].latency_ms == 55.0
        assert [h.rtt_ms for h in mset.handshake_results] == [25.0, 26.0, 27.0]
        assert mset.created_at == float(self.BASE)

    def test_equal_timestamps_are_nudged_apart(self, tmp_path):
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0 + i) for i in range(3)]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        stamps = [r.sent_at_monotonic for r in result.sets[0].dns_results]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_results_beyond_window_split_into_sets(self, tmp_path):
        dns = [
            dns_entry(1, self.QNAME, self.BASE, 10.0),
            dns_entry(1, self.QNAME, self.BASE + 10, 11.0),
            dns_entry(1, self.QNAME, self.BASE + 2000, 12.0),
        ]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert len(result.sets) == 2
        assert [len(s.dns_results) for s in sorted(result.sets, key=lambda s: s.created_at)] == [2, 1]

    def test_single_result_set_has_no_prewarm(self, tmp_path):
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0)]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert not result.sets[0].dns_results[0].is_prewarm

    def test_undecodable_abuf_is_skipped_not_fatal(self, tmp_path):
        dns = [
            dns_entry(1, self.QNAME, self.BASE, 10.0),
            dns_entry(1, self.QNAME, self.BASE + 5, 11.0, abuf="AAEC"),  # 3 junk bytes
            dns_entry(1, self.QNAME, self.BASE + 6, 12.0, abuf="!!notbase64!!"),
        ]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert result.skipped == 2
        assert len(result.sets) == 1
        assert len(result.sets[0].dns_results) == 1

    # One damaged entry added to a complete set's input: (file, entry).
    @pytest.mark.parametrize(
        "damaged",
        [
            ("tls", {k: v for k, v in tls_entry(1, QNAME, BASE + 9, rt=30.0).items() if k != "timestamp"}),
            ("tls", tls_entry(1, QNAME, None, rt=30.0)),
            ("tls", tls_entry(1, QNAME, BASE + 9, rt="fast")),
            ("tls", tls_entry(1, QNAME, BASE + 9, ttc="slow")),
            ("tls", {**tls_entry(1, QNAME, BASE + 9, rt=30.0), "dst_port": "https"}),
            ("tls", {**tls_entry(1, QNAME, BASE + 9, rt=30.0), "dst_name": 7}),
            ("tls", {**tls_entry(1, QNAME, BASE + 9, rt=30.0), "dst_addr": 5}),
            ("tls", {**tls_entry(1, QNAME, BASE + 9, rt=30.0), "dst_addr": "edge.example"}),
            ("tls", "sslcert"),
            ("tls", [1, 2]),
            ("dns", 7),
            ("dns", ["not", "an", "object"]),
            ("dns", {"prb_id": 1, "timestamp": BASE, "resultset": 5}),
            ("dns", {"prb_id": 1, "timestamp": BASE, "resultset": None}),
            ("dns", {k: v for k, v in dns_entry(1, QNAME, BASE + 1, 11.0).items() if k != "prb_id"}),
            ("dns", dns_entry(None, QNAME, BASE + 1, 11.0)),
            (
                "dns",
                {
                    "timestamp": BASE + 1,
                    "resultset": [
                        {"dst_addr": "8.8.8.8", "timestamp": BASE + 1, "result": {"rt": 11.0, "abuf": dns_abuf(QNAME)}}
                    ],
                },
            ),
            ("tls", {k: v for k, v in tls_entry(1, QNAME, BASE + 9, rt=30.0).items() if k != "prb_id"}),
            ("dns", dns_entry(1, QNAME, BASE + 1, "nan")),
            ("dns", dns_entry(1, QNAME, BASE + 1, "inf")),
            ("dns", dns_entry(1, QNAME, BASE + 1, -3)),
            ("dns", dns_entry(1, QNAME, BASE + 1, True)),
            ("dns", dns_entry(1, QNAME, "nan", 11.0)),
            ("dns", dns_entry(1, QNAME, "-inf", 11.0)),
            ("dns", dns_entry(1, QNAME, True, 11.0)),
            ("tls", tls_entry(1, QNAME, BASE + 9, rt="nan")),
            ("tls", tls_entry(1, QNAME, BASE + 9, ttc="inf")),
            ("tls", tls_entry(1, QNAME, BASE + 9, rt=-3)),
            ("tls", tls_entry(1, QNAME, BASE + 9, rt=False, ttc=30.0)),
            ("tls", tls_entry(1, QNAME, "nan", rt=30.0)),
            ("tls", tls_entry(1, QNAME, "inf", rt=30.0)),
        ],
        ids=[
            "tls-timestamp-missing",
            "tls-timestamp-null",
            "tls-rt-not-a-number",
            "tls-ttc-not-a-number",
            "tls-port-not-a-number",
            "tls-target-not-a-string",
            "tls-address-not-a-string",
            "tls-address-not-an-address",
            "tls-entry-is-a-string",
            "tls-entry-is-an-array",
            "dns-entry-is-a-number",
            "dns-entry-is-an-array",
            "resultset-is-a-number",
            "resultset-is-null",
            "dns-probe-missing",
            "dns-probe-null",
            "resultset-probe-missing",
            "tls-probe-missing",
            "dns-rt-nan",
            "dns-rt-inf",
            "dns-rt-negative",
            "dns-rt-bool",
            "dns-timestamp-nan",
            "dns-timestamp-minus-inf",
            "dns-timestamp-bool",
            "tls-rt-nan",
            "tls-ttc-inf",
            "tls-rt-negative",
            "tls-rt-bool",
            "tls-timestamp-nan",
            "tls-timestamp-inf",
        ],
    )
    def test_damaged_entry_is_skipped_not_fatal(self, tmp_path, damaged):
        dns = [dns_entry(1, self.QNAME, self.BASE + i, 10.0 + i) for i in range(4)]
        tls = [tls_entry(1, self.QNAME, self.BASE + 5 + i, rt=25.0 + i) for i in range(3)]
        kind, entry = damaged
        (tls if kind == "tls" else dns).insert(1, entry)
        result = import_atlas(*write_atlas(tmp_path, dns, tls))
        assert (result.skipped, result.orphans) == (1, 0)
        assert len(result.sets) == 1
        assert len(result.sets[0].dns_results) == 4
        assert [h.rtt_ms for h in result.sets[0].handshake_results] == [25.0, 26.0, 27.0]

    def test_zero_reading_is_kept(self, tmp_path):
        dns = [dns_entry(1, self.QNAME, self.BASE, 0)]
        tls = [tls_entry(1, self.QNAME, self.BASE + 1, rt=0.0)]
        result = import_atlas(*write_atlas(tmp_path, dns, tls))
        assert result.skipped == 0
        assert result.sets[0].dns_results[0].latency_ms == 0.0
        assert result.sets[0].handshake_results[0].rtt_ms == 0.0

    # Question names that decode but that DnsQuestion rejects.
    @pytest.mark.parametrize(
        "echo", [".", ".".join(["a" * 63] * 5)], ids=["root-name", "name-over-255-octets"]
    )
    def test_invalid_question_echo_is_skipped_not_fatal(self, tmp_path, echo):
        abuf = base64.b64encode(mocknet.build_response(7, echo, mocknet.A, [])).decode("ascii")
        dns = [
            dns_entry(1, self.QNAME, self.BASE, 10.0),
            dns_entry(1, self.QNAME, self.BASE + 5, 11.0, abuf=abuf),
            dns_entry(1, self.QNAME, self.BASE + 6, 12.0),
        ]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert result.skipped == 1
        assert len(result.sets) == 1
        assert [r.latency_ms for r in result.sets[0].dns_results] == [10.0, 12.0]

    def test_orphan_tls_results_are_counted(self, tmp_path, caplog):
        tls = [tls_entry(9, "lonely.example", self.BASE, rt=30.0)]
        with caplog.at_level("WARNING", logger="dnscdn.atlas"):
            result = import_atlas(*write_atlas(tmp_path, [], tls))
        assert result.orphans == 1
        assert result.sets == []
        assert any("no matching DNS set" in rec.getMessage() for rec in caplog.records)

    def test_tls_ttc_fallback_and_rt_priority(self, tmp_path):
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0)]
        tls = [
            tls_entry(1, self.QNAME, self.BASE + 1, ttc=44.0),
            tls_entry(1, self.QNAME, self.BASE + 2, rt=25.0, ttc=99.0),
        ]
        result = import_atlas(*write_atlas(tmp_path, dns, tls))
        assert sorted(h.rtt_ms for h in result.sets[0].handshake_results) == [25.0, 44.0]

    def test_resultset_payloads_split_by_resolver(self, tmp_path):
        entry = {
            "prb_id": 7,
            "timestamp": self.BASE,
            "resultset": [
                {
                    "dst_addr": "192.168.1.1",
                    "timestamp": self.BASE,
                    "result": {"rt": 9.0, "abuf": dns_abuf(self.QNAME)},
                },
                {
                    "dst_addr": "8.8.8.8",
                    "timestamp": self.BASE,
                    "result": {"rt": 12.0, "abuf": dns_abuf(self.QNAME)},
                },
            ],
        }
        result = import_atlas(*write_atlas(tmp_path, [entry], []))
        assert len(result.sets) == 2
        assert {s.resolver_label for s in result.sets} == {"192.168.1.1", "8.8.8.8"}

    def test_catalog_labels_cdn_and_unknown_falls_back(self, tmp_path):
        catalog = CdnCatalog.parse("akamai .edgekey.net\n")
        hosted = "media.site.edgekey.net"
        dns = [
            dns_entry(1, hosted, self.BASE, 10.0, abuf=dns_abuf(hosted)),
            dns_entry(1, self.QNAME, self.BASE, 10.0),
        ]
        result = import_atlas(*write_atlas(tmp_path, dns, []), catalog=catalog)
        cdns = {s.website: s.cdn for s in result.sets}
        assert cdns == {hosted: "akamai", self.QNAME: "unknown"}

    def test_unknown_question_type_imports_as_a(self, tmp_path):
        abuf = base64.b64encode(mocknet.build_response(7, self.QNAME, 65, [])).decode("ascii")
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0, abuf=abuf)]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert result.sets[0].dns_results[0].question.qtype is RecordType.A

    def test_aaaa_queries_import_as_v6(self, tmp_path):
        abuf = dns_abuf(self.QNAME, address="2001:db8::9", qtype=mocknet.AAAA)
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0, abuf=abuf)]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert result.sets[0].ip_version is IpVersion.V6


# The CLI runs analyze, report and import-atlas with the cyclic collector
# paused; that is safe only while the objects they build form no cycles.
CYCLE_REASON = (
    "objects left for the cyclic collector: a record type forms a reference cycle "
    "(a back-reference?), and the collector pause in cli.main assumes none does"
)


@contextlib.contextmanager
def collector_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestNoCyclicGarbage:
    QNAME = TestAtlasImport.QNAME
    BASE = TestAtlasImport.BASE

    def test_reading_records_leaves_none(self, tmp_path):
        rng = random.Random(0x5709)
        path = str(tmp_path / "campaign.jsonl")
        write_records([random_record(rng, i) for i in range(200)], path)
        with collector_off():
            assert len(read_records(path)) == 200
            assert gc.collect() == 0, CYCLE_REASON

    def test_importing_atlas_results_leaves_none(self, tmp_path):
        root_echo = base64.b64encode(mocknet.build_response(7, ".", mocknet.A, [])).decode("ascii")
        dns = [
            dns_entry(42, self.QNAME, self.BASE, 55.0),
            dns_entry(42, self.QNAME, self.BASE + 15, 21.0),
            dns_entry(42, self.QNAME, self.BASE + 15, 22.0),
            dns_entry(42, self.QNAME, self.BASE + 16, 23.0),
            dns_entry(42, self.QNAME, self.BASE + 17, 24.0, abuf="AAEC"),
            dns_entry(42, self.QNAME, self.BASE + 18, 25.0, abuf=root_echo),
            dns_entry(42, self.QNAME, self.BASE + 9000, 26.0),
            dns_entry(
                43, self.QNAME, self.BASE, 10.0,
                abuf=dns_abuf(self.QNAME, address="2001:db8::9", qtype=mocknet.AAAA),
            ),
            {
                "prb_id": 7,
                "timestamp": self.BASE,
                "resultset": [
                    {"dst_addr": r, "timestamp": self.BASE, "result": {"rt": 9.0, "abuf": dns_abuf(self.QNAME)}}
                    for r in ("192.168.1.1", "8.8.8.8")
                ],
            },
        ]
        tls = [tls_entry(42, self.QNAME, self.BASE + 20 + i, rt=25.0 + i) for i in range(3)]
        tls += [tls_entry(42, self.QNAME, self.BASE + 24, ttc=44.0), tls_entry(9, "lonely.example", self.BASE, rt=30.0)]
        inputs = write_atlas(tmp_path, dns, tls)
        with collector_off():
            result = import_atlas(*inputs)
            assert (len(result.sets), result.skipped, result.orphans) == (5, 2, 1)
            del result
            assert gc.collect() == 0, CYCLE_REASON

    def test_analyze_leaves_as_much_for_three_files_as_for_one(self, tmp_path, capsys):
        paths = []
        for vantage in ("p1", "p2", "p3"):
            sets = [make_set(vantage_id=vantage), make_set(vantage_id=vantage, ip_version=IpVersion.V6)]
            path = str(tmp_path / f"{vantage}.jsonl")
            write_records([CampaignRecord(campaign_id=vantage, mset=s) for s in sets], path)
            paths.append(path)

        def leftover(files):
            argv = ["analyze"] + [arg for path in files for arg in ("--input", path)]
            with collector_off():
                assert cli.main(argv) == 0
                return gc.collect()

        leftover(paths[:1])  # first call: logging set-up and lazy imports
        assert leftover(paths[:1]) == leftover(paths), CYCLE_REASON
        capsys.readouterr()
