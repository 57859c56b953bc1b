"""Campaign persistence round-trips and the Atlas result importer."""

import base64
import json
import random

import pytest

import mocknet
from factories import make_question, make_response, make_set
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
    read_records,
    record_to_dict,
    write_records,
)
from dnscdn.wire import IpVersion, RecordType, ResourceRecord


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


class TestRoundTrip:
    def test_structural_equality_over_varied_records(self, tmp_path):
        rng = random.Random(0x5709)
        records = [random_record(rng, i) for i in range(200)]
        path = str(tmp_path / "campaign.jsonl")
        write_records(records, path)
        assert read_records(path) == records

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
        return json.dumps(record_to_dict(CampaignRecord(campaign_id="c", mset=make_set())))

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

    def test_aaaa_queries_import_as_v6(self, tmp_path):
        abuf = dns_abuf(self.QNAME, address="2001:db8::9", qtype=mocknet.AAAA)
        dns = [dns_entry(1, self.QNAME, self.BASE, 10.0, abuf=abuf)]
        result = import_atlas(*write_atlas(tmp_path, dns, []))
        assert result.sets[0].ip_version is IpVersion.V6
