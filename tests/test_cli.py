"""End-to-end command flows against loopback mock services."""

import base64
import contextlib
import csv
import io
import json
import socket

import pytest

import mocknet
from factories import make_set
from dnscdn import cli
from dnscdn.campaign import is_usable
from dnscdn.resolver_id import Classification, ResolverClassification
from dnscdn.storage import CampaignRecord, Provenance, read_records, write_records
from dnscdn.wire import IpVersion


def dual_family_script(v4="127.0.0.1", v6="::1", ttl=20):
    def script(qname, qtype, count):
        if qtype == mocknet.AAAA:
            return mocknet.MockReply(answers=[(qname, mocknet.AAAA, ttl, v6)])
        return mocknet.MockReply(answers=[(qname, mocknet.A, ttl, v4)])

    return script


@contextlib.contextmanager
def mock_network(script=None):
    """Paired v4/v6 DNS servers and TCP edges sharing port numbers."""
    script = script or dual_family_script()
    with mocknet.MockDnsServer(script) as dns4, \
            mocknet.MockDnsServer(script, host="::1", port=dns4.port) as dns6, \
            mocknet.MockTcpListener() as tcp4, \
            mocknet.MockTcpListener(host="::1", port=tcp4.port) as tcp6:
        assert dns6.port == dns4.port and tcp6.port == tcp4.port
        yield dns4.port, tcp4.port


def write_config(tmp_path, dns_port=53, tcp_port=443, **overrides):
    doc = {
        "resolvers": [{"label": "local", "v4_address": "127.0.0.1", "v6_address": "::1"}],
        "websites": [["akamai", "www.wide.example"]],
        "prewarm_gap_s": 0.0,
        "per_query_timeout_ms": 400.0,
        "resolver_port": dns_port,
        "handshake_port": tcp_port,
        "fanout": 1,
        "output_dir": str(tmp_path / "campaigns"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestUsageErrors:
    def test_no_subcommand(self):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert cli.main(["analyze", "--frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "discover" in capsys.readouterr().out

    def test_analyze_needs_some_input(self, capsys):
        assert cli.main(["analyze"]) == 2

    def test_measure_needs_websites(self, capsys):
        assert cli.main(["measure"]) == 2
        assert "no websites" in capsys.readouterr().err


class TestMeasure:
    def test_campaign_reaches_disk_and_is_usable(self, tmp_path, capsys):
        with mock_network() as (dns_port, tcp_port):
            config = write_config(tmp_path, dns_port, tcp_port)
            output = str(tmp_path / "camp.jsonl")
            assert cli.main(["measure", "--config", config, "--output", output]) == 0
        records = read_records(output)
        assert len(records) == 2  # one website, one resolver, both families
        assert {r.mset.ip_version for r in records} == {IpVersion.V4, IpVersion.V6}
        for record in records:
            assert is_usable(record.mset)
            assert record.provenance is Provenance.NATIVE
            assert record.spec_snapshot["resolver_port"] == dns_port
        assert "wrote 2 sets (2 usable)" in capsys.readouterr().out

    def test_unreachable_resolver_dropped_in_preflight(self, tmp_path, capsys):
        with mock_network() as (dns_port, tcp_port):
            config = write_config(
                tmp_path,
                dns_port,
                tcp_port,
                resolvers=[
                    {"label": "local", "v4_address": "127.0.0.1", "v6_address": "::1"},
                    {"label": "dead", "v4_address": "192.0.2.55", "v6_address": "2001:db8::55"},
                ],
            )
            output = str(tmp_path / "camp.jsonl")
            assert cli.main(["measure", "--config", config, "--output", output]) == 1
        assert "dead" in capsys.readouterr().err
        assert {r.mset.resolver_label for r in read_records(output)} == {"local"}

    def test_malformed_preflight_reply_drops_the_resolver(self, tmp_path, capsys):
        def script(qname, qtype, count):
            if qname == cli.PREFLIGHT_PROBE_NAME:
                return mocknet.MockReply(raw_tail=b"\x81\x80\x00\x01")
            return dual_family_script()(qname, qtype, count)

        with mock_network(script) as (dns_port, tcp_port):
            config = write_config(tmp_path, dns_port, tcp_port)
            output = str(tmp_path / "camp.jsonl")
            assert cli.main(["measure", "--config", config, "--output", output]) == 1
        err = capsys.readouterr().err
        assert "resolver local" in err
        assert "no reachable resolvers" in err

    def test_skip_preflight_records_the_failures(self, tmp_path):
        with mock_network() as (dns_port, tcp_port):
            config = write_config(
                tmp_path,
                dns_port,
                tcp_port,
                per_query_timeout_ms=150.0,
                resolvers=[
                    {"label": "local", "v4_address": "127.0.0.1", "v6_address": "::1"},
                    {"label": "dead", "v4_address": "192.0.2.55", "v6_address": "2001:db8::55"},
                ],
            )
            output = str(tmp_path / "camp.jsonl")
            status = cli.main(
                ["measure", "--config", config, "--output", output, "--skip-preflight"]
            )
        assert status == 0  # nothing was dropped, failures are data
        records = read_records(output)
        assert len(records) == 4
        by_label = {}
        for record in records:
            by_label.setdefault(record.mset.resolver_label, []).append(record.mset)
        assert all(is_usable(s) for s in by_label["local"])
        assert not any(is_usable(s) for s in by_label["dead"])


class TestSchedule:
    def test_single_run_writes_one_campaign_file(self, tmp_path, capsys):
        with mock_network() as (dns_port, tcp_port):
            config = write_config(tmp_path, dns_port, tcp_port)
            assert cli.main(["schedule", "--config", config, "--count", "1"]) == 0
        files = list((tmp_path / "campaigns").iterdir())
        assert len(files) == 1
        assert len(read_records(str(files[0]))) == 2


def snapshot_for(dns_port, tcp_port, timeout_ms=400.0):
    return {
        "websites": [["akamai", "www.wide.example"]],
        "resolvers": [["local", "127.0.0.1", "::1"]],
        "dns_repeats": 3,
        "prewarm_gap_s": 0.0,
        "handshake_repeats": 3,
        "per_query_timeout_ms": timeout_ms,
        "resolver_port": dns_port,
        "handshake_port": tcp_port,
    }


def broken_campaign_file(tmp_path, dns_port, tcp_port):
    healthy = make_set(website="www.wide.example", resolver_label="local")
    broken = make_set(
        website="www.wide.example",
        resolver_label="local",
        dns=((10.0, 16.0, False), (11.0, 16.1, False)),
    )
    snapshot = snapshot_for(dns_port, tcp_port)
    records = [
        CampaignRecord(campaign_id="c1", mset=healthy, spec_snapshot=snapshot),
        CampaignRecord(campaign_id="c1", mset=broken, spec_snapshot=snapshot),
    ]
    path = str(tmp_path / "campaign.jsonl")
    write_records(records, path)
    return path, records


class TestFillIn:
    def test_retry_through_snapshot_spec_repairs_the_set(self, tmp_path, capsys):
        with mock_network() as (dns_port, tcp_port):
            path, originals = broken_campaign_file(tmp_path, dns_port, tcp_port)
            assert cli.main(["fill-in", "--input", path]) == 0
        updated = read_records(path)
        assert all(is_usable(r.mset) for r in updated)
        assert updated[0] == originals[0]  # the usable set rode along untouched
        assert len(updated[1].mset.dns_results) == 4
        assert not updated[1].mset.failed_twice
        assert "1 before, 0 after" in capsys.readouterr().out

    def test_double_failure_is_marked_and_reported(self, tmp_path):
        dead_dns, dead_tcp = free_port(), free_port()
        path, _ = broken_campaign_file(tmp_path, dead_dns, dead_tcp)
        assert cli.main(["fill-in", "--input", path]) == 1
        updated = read_records(path)
        assert updated[1].mset.failed_twice
        assert len(updated[1].mset.dns_results) == 2

    def test_output_flag_leaves_input_alone(self, tmp_path):
        with mock_network() as (dns_port, tcp_port):
            path, originals = broken_campaign_file(tmp_path, dns_port, tcp_port)
            out = str(tmp_path / "repaired.jsonl")
            assert cli.main(["fill-in", "--input", path, "--output", out]) == 0
        assert read_records(path) == originals
        assert all(is_usable(r.mset) for r in read_records(out))

    def test_empty_input_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli.main(["fill-in", "--input", str(path)]) == 1


def analysis_fixture(tmp_path):
    """Two vantages, both families; dns medians 11/111, mapping 25/125."""
    sets = []
    for vantage in ("p1", "p2"):
        sets.append(make_set(vantage_id=vantage))
        sets.append(
            make_set(
                vantage_id=vantage,
                ip_version=IpVersion.V6,
                dns=((130.0, 1.0, True), (110.0, 16.0, False), (111.0, 16.1, False), (112.0, 16.2, False)),
                handshakes=(125.0, 125.5, 124.5),
            )
        )
    path = str(tmp_path / "analysis.jsonl")
    write_records([CampaignRecord(campaign_id="c1", mset=s) for s in sets], path)
    geo_path = str(tmp_path / "geo.json")
    with open(geo_path, "w", encoding="utf-8") as fh:
        json.dump({"p1": "asia", "p2": "europe"}, fh)
    return path, geo_path


def csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


class TestAnalyze:
    def test_regional_medians_in_csv(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert cli.main(["analyze", "--input", path, "--geo", geo]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert header[:5] == ["metric", "region", "cdn", "resolver", "ip_version"]
        asia_dns_v4 = next(
            r for r in rows
            if r["metric"] == "dns" and r["region"] == "asia" and r["ip_version"] == "v4"
        )
        assert float(asia_dns_v4["median_ms"]) == 11.0
        assert asia_dns_v4["region_vantages"] == "1"
        assert len(rows) == 8  # 2 regions x 2 families x 2 metrics

    def test_filters_are_conjunctive(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert (
            cli.main(
                [
                    "analyze", "--input", path, "--geo", geo,
                    "--cdn", "akamai", "--resolver", "google",
                    "--ip-version", "v6", "--region", "europe",
                ]
            )
            == 0
        )
        _, rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 2  # dns + mapping for the single surviving key
        assert all(r["region"] == "europe" and r["ip_version"] == "v6" for r in rows)

    def test_no_match_yields_header_only_and_success(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert cli.main(["analyze", "--input", path, "--cdn", "nosuch"]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert rows == []

    def test_json_mode_matches_csv_rows(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        cli.main(["analyze", "--input", path, "--geo", geo])
        _, rows = csv_rows(capsys.readouterr().out)
        cli.main(["analyze", "--input", path, "--geo", geo, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == len(rows)
        assert doc[0]["metric"] == rows[0]["metric"]

    def test_output_is_deterministic(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        cli.main(["analyze", "--input", path, "--geo", geo])
        first = capsys.readouterr().out
        cli.main(["analyze", "--input", path, "--geo", geo])
        assert capsys.readouterr().out == first

    def test_data_dir_month_filter(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_records(
            [CampaignRecord(campaign_id="april", mset=make_set(vantage_id="p1"))],
            str(data_dir / "campaign-20260401-000000.jsonl"),
        )
        write_records(
            [CampaignRecord(campaign_id="may", mset=make_set(vantage_id="p2"))],
            str(data_dir / "campaign-20260515-000000.jsonl"),
        )
        geo_path = str(tmp_path / "geo.json")
        with open(geo_path, "w", encoding="utf-8") as fh:
            json.dump({"p1": "asia", "p2": "europe"}, fh)
        assert cli.main(
            ["analyze", "--data-dir", str(data_dir), "--month", "2026-04", "--geo", geo_path]
        ) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert {r["region"] for r in rows} == {"asia"}


class TestDamagedInput:
    @staticmethod
    def _cut(tmp_path, path, size=3000):
        cut = tmp_path / "cut.jsonl"
        with open(path, "rb") as fh:
            cut.write_bytes(fh.read()[:size])
        return str(cut)

    def test_analyze_uses_what_a_truncated_file_salvages(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        cut = self._cut(tmp_path, path)  # one whole record, then half of the next
        assert cli.main(["analyze", "--input", cut, "--geo", geo]) == 1
        out, err = capsys.readouterr()
        _, rows = csv_rows(out)
        assert {(r["region"], r["ip_version"]) for r in rows} == {("asia", "v4")}
        assert err.splitlines() == [f"damaged input: {cut}: truncated at line 2; salvaged 1 record(s)"]

    def test_report_uses_what_a_truncated_file_salvages(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        cut = self._cut(tmp_path, path)
        assert cli.main(["report", "--input", cut, "--kind", "table", "--geo", geo]) == 1
        out, err = capsys.readouterr()
        _, rows = csv_rows(out)
        assert len(rows) == 2  # dns + mapping for p1's v4 set
        assert "truncated at line 2" in err

    def test_fill_in_refuses_to_rewrite_a_truncated_file(self, tmp_path, capsys):
        path, _ = analysis_fixture(tmp_path)
        cut = self._cut(tmp_path, path)
        with open(cut, "rb") as fh:
            before = fh.read()
        assert cli.main(["fill-in", "--input", cut]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cut}: truncated record at line 2")
        with open(cut, "rb") as fh:
            assert fh.read() == before

    def test_schema_mismatch_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema_version": 99}) + "\n")
        for argv in (["analyze", "--input", str(path)], ["report", "--input", str(path)],
                     ["fill-in", "--input", str(path)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "schema version" in err

    def test_missing_file_is_an_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.jsonl")
        assert cli.main(["analyze", "--input", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReport:
    def test_cdf_series(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert cli.main(["report", "--input", path, "--kind", "cdf"]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert header == ["metric", "cdn", "resolver", "ip_version", "value_ms", "fraction"]
        assert rows and all(0 < float(r["fraction"]) <= 1.0 for r in rows)

    def test_penalty_rows(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert cli.main(["report", "--input", path, "--kind", "penalty", "--geo", geo]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        dns_rows = [r for r in rows if r["metric"] == "dns"]
        assert all(float(r["delta"]) == 100.0 for r in dns_rows)
        assert all(r["flagged"] == "False" for r in rows)

    def test_diversity_json(self, tmp_path, capsys):
        path, geo = analysis_fixture(tmp_path)
        assert cli.main(["report", "--input", path, "--kind", "diversity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {entry["website"] for entry in doc} == {"www.example.com"}
        assert all(entry["unique_addresses"] == 1 for entry in doc)

    def test_hit_rate_table(self, tmp_path, capsys):
        sets = [make_set(ttl=20) for _ in range(3)] + [make_set(ttl=5)]
        path = str(tmp_path / "hits.jsonl")
        write_records([CampaignRecord(campaign_id="c", mset=s) for s in sets], path)
        assert cli.main(["report", "--input", path, "--kind", "hit-rate"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["cdn"] == "akamai"
        assert float(row["hit_rate"]) == 75.0
        assert float(row["miss_rate"]) == 25.0
        assert row["median_unknown_ms"] == "N/A"

    def test_output_file(self, tmp_path):
        path, geo = analysis_fixture(tmp_path)
        out = tmp_path / "table.csv"
        assert cli.main(["report", "--input", path, "--kind", "table", "--output", str(out)]) == 0
        assert out.read_text().startswith("metric,region,cdn,resolver,ip_version,median_ms")


class TestImportAtlas:
    @staticmethod
    def _abuf(qname):
        raw = mocknet.build_response(7, qname, mocknet.A, [(qname, mocknet.A, 20, "192.0.2.7")])
        return base64.b64encode(raw).decode("ascii")

    def _write_inputs(self, tmp_path, dns_entries, tls_entries):
        dns_path = tmp_path / "dns.json"
        tls_path = tmp_path / "tls.json"
        dns_path.write_text(json.dumps(dns_entries))
        tls_path.write_text(json.dumps(tls_entries))
        return str(dns_path), str(tls_path)

    def test_import_writes_typed_records(self, tmp_path, capsys):
        qname = "www.wide.example"
        dns = [
            {
                "prb_id": 11,
                "timestamp": 1_650_000_000 + offset,
                "dst_addr": "8.8.8.8",
                "result": {"rt": 20.0, "abuf": self._abuf(qname)},
            }
            for offset in (0, 15, 16, 17)
        ]
        tls = [
            {
                "prb_id": 11,
                "dst_name": qname,
                "dst_addr": "203.0.113.7",
                "dst_port": 443,
                "timestamp": 1_650_000_020,
                "rt": 25.0,
            }
        ]
        dns_path, tls_path = self._write_inputs(tmp_path, dns, tls)
        out = str(tmp_path / "imported.jsonl")
        status = cli.main(
            ["import-atlas", "--dns", dns_path, "--tls", tls_path, "--output", out,
             "--campaign-id", "atlas-42"]
        )
        assert status == 0
        records = read_records(out)
        assert len(records) == 1
        assert records[0].provenance is Provenance.ATLAS_IMPORT
        assert records[0].campaign_id == "atlas-42"
        assert "imported 1 sets" in capsys.readouterr().out

    def test_empty_import_exits_nonzero(self, tmp_path):
        dns_path, tls_path = self._write_inputs(tmp_path, [], [])
        out = str(tmp_path / "none.jsonl")
        assert cli.main(["import-atlas", "--dns", dns_path, "--tls", tls_path, "--output", out]) == 1


class TestDetectIsp:
    @staticmethod
    def _resolv_conf(tmp_path):
        path = tmp_path / "resolv.conf"
        path.write_text("nameserver 127.0.0.1\nnameserver ::1\n")
        return str(path)

    def test_isp_provided_both_families(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "discover_vantage_address",
            lambda version, override=None: override or "203.0.113.50",
        )
        monkeypatch.setattr(
            cli, "classify_resolver",
            lambda resolver, vantage_ip, **kw: ResolverClassification(
                resolver=resolver, verdict=Classification.ISP_PROVIDED,
                vantage_asn=64500, egress_address="203.0.113.60", egress_asn=64500,
            ),
        )
        status = cli.main(["detect-isp", "--resolv-conf", self._resolv_conf(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "isp-usable: yes" in out
        assert "isp-provided" in out

    def test_indeterminate_classification_is_partial_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "discover_vantage_address", lambda version, override=None: "203.0.113.50"
        )
        monkeypatch.setattr(
            cli, "classify_resolver",
            lambda resolver, vantage_ip, **kw: ResolverClassification(
                resolver=resolver, verdict=Classification.INDETERMINATE
            ),
        )
        assert cli.main(["detect-isp", "--resolv-conf", self._resolv_conf(tmp_path)]) == 1
        assert "isp-usable: no" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["detect-isp", "--resolv-conf", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err


class TestDiscover:
    @staticmethod
    def _chain_script(qname_terminal="media.edgekey.net"):
        def script(qname, qtype, count):
            if qtype == mocknet.AAAA:
                return mocknet.MockReply(answers=[(qname, mocknet.AAAA, 20, "2001:db8::7")])
            if qname == qname_terminal:
                return mocknet.MockReply(answers=[(qname, mocknet.A, 20, "192.0.2.7")])
            return mocknet.MockReply(
                answers=[
                    (qname, mocknet.CNAME, 300, qname_terminal),
                    (qname_terminal, mocknet.A, 20, "192.0.2.7"),
                ]
            )

        return script

    def test_end_to_end_on_port_53(self, tmp_path, capsys):
        script = self._chain_script()
        try:
            dns4 = mocknet.MockDnsServer(script, port=53)
        except OSError:
            pytest.skip("cannot bind 127.0.0.1:53")
        try:
            dns6 = mocknet.MockDnsServer(script, host="::1", port=53)
        except OSError:
            dns4.close()
            pytest.skip("cannot bind [::1]:53")
        domains = tmp_path / "ranked.csv"
        domains.write_text("GlobalRank,TldRank,Domain\n1,1,cdn-site.example\n")
        config = write_config(tmp_path, quotas={"akamai": 1})
        output = tmp_path / "sites.json"
        try:
            status = cli.main(
                [
                    "discover", "--domains", str(domains), "--config", config,
                    "--output", str(output), "--no-embedded",
                ]
            )
        finally:
            dns4.close()
            dns6.close()
        assert status == 0
        doc = json.loads(output.read_text())
        assert [s["site_domain"] for s in doc["akamai"]] == ["cdn-site.example"]
        assert doc["akamai"][0]["terminal_cname"] == "media.edgekey.net"
        assert doc["akamai"][0]["dual_stack_ok"]["local"] == {"v4": True, "v6": True}
        assert "wrote 1 sites" in capsys.readouterr().out

    def test_unmet_quota_exits_nonzero(self, tmp_path, capsys):
        domains = tmp_path / "ranked.csv"
        domains.write_text("GlobalRank,TldRank,Domain\n")
        config = write_config(tmp_path, quotas={"akamai": 1})
        output = tmp_path / "sites.json"
        status = cli.main(
            ["discover", "--domains", str(domains), "--config", config, "--output", str(output)]
        )
        assert status == 1
        assert "quota unmet" in capsys.readouterr().err
