"""End-to-end command flows against loopback mock services."""

import base64
import contextlib
import csv
import gc
import io
import json
import socket

import pytest

import mocknet
from factories import asking, make_response, make_set
from dnscdn import cli, resolver_id
from dnscdn.campaign import is_usable
from dnscdn.resolver_id import Classification, ResolverClassification
from dnscdn.storage import CampaignRecord, Provenance, read_records, write_records
from dnscdn.wire import IpVersion, RecordType, ResourceRecord


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

    def test_schedule_rejects_a_negative_interval(self, tmp_path, capsys, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("no query may be sent")

        for name in ("ask", "run_campaign"):
            monkeypatch.setattr(cli, name, no_network)
        argv = ["schedule", "--config", write_config(tmp_path), "--count", "1", "--interval-s", "-1"]
        assert cli.main(argv) == 2
        assert "--interval-s" in capsys.readouterr().err


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
        assert "127.0.0.1 failed with MalformedMessageError" in err

    def test_unscoped_link_local_resolver_dropped_in_preflight(self, tmp_path, capsys):
        # fe80::1 without a scope fails with EINVAL, an OSError that is
        # neither a timeout nor unreachable.
        with mock_network() as (dns_port, tcp_port):
            config = write_config(
                tmp_path,
                dns_port,
                tcp_port,
                resolvers=[
                    {"label": "local", "v4_address": "127.0.0.1", "v6_address": "::1"},
                    {"label": "linklocal", "v4_address": "127.0.0.1", "v6_address": "fe80::1"},
                ],
            )
            output = str(tmp_path / "camp.jsonl")
            assert cli.main(["measure", "--config", config, "--output", output]) == 1
        notices = [line for line in capsys.readouterr().err.splitlines() if line.startswith("notice:")]
        assert len(notices) == 1
        assert "resolver linklocal" in notices[0]
        assert "fe80::1 failed with OSError" in notices[0]
        records = read_records(output)
        assert {r.mset.resolver_label for r in records} == {"local"}
        assert len(records) == 2 and all(is_usable(r.mset) for r in records)

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

    def test_double_failure_is_marked_and_reported(self, tmp_path, capsys):
        dead_dns, dead_tcp = free_port(), free_port()
        path, _ = broken_campaign_file(tmp_path, dead_dns, dead_tcp)
        assert cli.main(["fill-in", "--input", path]) == 1
        updated = read_records(path)
        assert updated[1].mset.failed_twice
        assert len(updated[1].mset.dns_results) == 2
        assert "unusable sets: 1 before, 1 after" in capsys.readouterr().out

    def test_output_flag_leaves_input_alone(self, tmp_path):
        with mock_network() as (dns_port, tcp_port):
            path, originals = broken_campaign_file(tmp_path, dns_port, tcp_port)
            out = str(tmp_path / "repaired.jsonl")
            assert cli.main(["fill-in", "--input", path, "--output", out]) == 0
        assert read_records(path) == originals
        assert all(is_usable(r.mset) for r in read_records(out))

    STORED_SPECS = {
        "no-resolvers": {"resolvers": None},
        "resolver-without-v6": {"resolvers": [["google", "8.8.8.8"]]},
        "unknown-field": {"bogus": 1},
        "website-not-a-dns-name": {"websites": [["akamai", "a..b"]]},
        # is_usable needs three successful handshakes, so such a spec could
        # never repair a set.
        "two-handshakes": {"handshake_repeats": 2},
        "unknown-quirk": {"resolvers": [["local", "127.0.0.1", "::1", "bogus"]]},
        "gap-a-bool": {"prewarm_gap_s": True},
        "repeats-a-string": {"dns_repeats": "3"},
        "resolver-label-a-number": {"resolvers": [[5, "127.0.0.1", "::1"]]},
        "resolver-label-empty": {"resolvers": [["", "127.0.0.1", "::1"]]},
        "duplicate-resolver-label": {"resolvers": [["local", "127.0.0.1", "::1"], ["local", "127.0.0.2", "::2"]]},
    }

    @pytest.mark.parametrize("change", STORED_SPECS.values(), ids=STORED_SPECS)
    def test_stored_spec_that_cannot_be_rebuilt_is_an_error_line(self, tmp_path, capsys, monkeypatch, change):
        def no_network(*args, **kwargs):
            raise AssertionError("no query may be sent")

        monkeypatch.setattr(cli, "fill_in", no_network)
        snapshot = {**snapshot_for(53, 443), **change}
        snapshot = {key: value for key, value in snapshot.items() if value is not None}
        mset = make_set(website="www.wide.example", resolver_label="local", handshakes=(25.0, 25.5))
        path = tmp_path / "campaign.jsonl"
        write_records([CampaignRecord(campaign_id="c1", mset=mset, spec_snapshot=snapshot)], str(path))
        before = path.read_bytes()
        assert cli.main(["fill-in", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        assert path.read_bytes() == before

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


class TestRegionRule:
    """analyze and every region-aware report name a vantage's region alike."""

    @staticmethod
    def _regions(command, out):
        if command == ["report", "--kind", "diversity"]:
            return {region for entry in json.loads(out) for region in entry["regional_purity"]}
        return {row["region"] for row in csv_rows(out)[1]}

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["report", "--kind", "table"], ["report", "--kind", "penalty"],
         ["report", "--kind", "diversity"]],
        ids=["analyze", "table", "penalty", "diversity"],
    )
    @pytest.mark.parametrize(
        "p2_geo", [{}, {"p2": None}, {"p2": ""}], ids=["omitted", "null", "empty"]
    )
    def test_vantage_without_a_region_is_unassigned(self, tmp_path, capsys, command, p2_geo):
        path, geo = analysis_fixture(tmp_path)
        with open(geo, "w", encoding="utf-8") as fh:
            json.dump({"p1": "asia", **p2_geo}, fh)
        assert cli.main([*command, "--input", path, "--geo", geo]) == 0
        assert self._regions(command, capsys.readouterr().out) == {"asia", "unassigned"}


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

    @pytest.mark.parametrize("qname", ["a..b", 7])
    def test_invalid_stored_qname_is_an_error_line(self, tmp_path, capsys, qname):
        path, _ = analysis_fixture(tmp_path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        first = json.loads(lines[0])
        first["set"]["dns_results"][0]["question"]["qname"] = qname
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        assert cli.main(["analyze", "--input", str(damaged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1: malformed record" in err

    @pytest.mark.parametrize("reading", ["5", None, -5, float("nan"), True], ids=repr)
    @pytest.mark.parametrize(
        "command", [["analyze"], ["report", "--kind", "cdf"], ["report", "--kind", "hit-rate"]], ids=" ".join
    )
    def test_a_stored_reading_that_is_not_a_number_at_least_0_is_damage(self, tmp_path, capsys, command, reading):
        path = tmp_path / "one.jsonl"
        write_records([CampaignRecord(campaign_id="c1", mset=make_set())], str(path))
        stored = json.loads(path.read_text())
        for result in stored["set"]["dns_results"]:
            result["latency_ms"] = reading
        path.write_text(json.dumps(stored) + "\n")
        assert cli.main([*command, "--input", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"damaged input: {path}: truncated at line 1; salvaged 0 record(s)"
        ]

    def test_missing_file_is_an_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.jsonl")
        assert cli.main(["analyze", "--input", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")


READ_COMMANDS = {
    "analyze": ["analyze"],
    "cdf": ["report", "--kind", "cdf"],
    "table": ["report", "--kind", "table"],
    "penalty": ["report", "--kind", "penalty"],
    "diversity": ["report", "--kind", "diversity"],
    "hit-rate": ["report", "--kind", "hit-rate"],
}
REPORT_KINDS = [kind for kind, command in READ_COMMANDS.items() if command[0] == "report"]


def fixture_lines(tmp_path):
    """analysis_fixture's four stored lines, and its geo file."""
    path, geo = analysis_fixture(tmp_path)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines(), geo


def run_read_command(command, paths, geo, *extra):
    inputs = [arg for path in paths for arg in ("--input", str(path))]
    return cli.main([*command, *inputs, "--geo", geo, *extra])


class TestReadPath:
    """How analyze and every report kind treat blank and damaged lines."""

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_damage_in_a_later_file_stops_before_any_output(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text("\n".join(lines) + "\n")
        second.write_text("\n".join([lines[0], "{garbage", *lines[1:]]) + "\n")
        output = tmp_path / "report.out"
        extra = ["--output", str(output)] if command[0] == "report" else []
        assert run_read_command(command, [first, second], geo, *extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: {second}: line 2: unparseable record: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]
        assert not output.exists()

    @pytest.mark.parametrize("kind", REPORT_KINDS)
    def test_damage_leaves_an_existing_output_file_alone(self, tmp_path, capsys, kind):
        lines, geo = fixture_lines(tmp_path)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("\n".join([lines[0], "{garbage", lines[1]]) + "\n")
        output = tmp_path / "report.out"
        output.write_text("earlier report\n")
        assert run_read_command(READ_COMMANDS[kind], [damaged], geo, "--output", str(output)) == 2
        assert output.read_text() == "earlier report\n"

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_truncated_final_line_salvages_the_rest(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        whole, cut = tmp_path / "three.jsonl", tmp_path / "cut.jsonl"
        whole.write_text("\n".join(lines[:3]) + "\n")
        cut.write_text("\n".join(lines[:3]) + "\n" + lines[3][:200])
        assert run_read_command(command, [whole], geo) == 0
        salvaged_out = capsys.readouterr().out
        assert run_read_command(command, [cut], geo) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"damaged input: {cut}: truncated at line 4; salvaged 3 record(s)"]
        assert out == salvaged_out

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_trailing_blank_lines_are_ignored(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        plain, padded = tmp_path / "plain.jsonl", tmp_path / "padded.jsonl"
        plain.write_text("\n".join(lines) + "\n")
        padded.write_text("\n".join(lines) + "\n\n\n")
        assert run_read_command(command, [plain], geo) == 0
        plain_out = capsys.readouterr().out
        assert run_read_command(command, [padded], geo) == 0
        assert capsys.readouterr() == (plain_out, "")

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_interior_blank_line_is_a_schema_error(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
        assert run_read_command(command, [gapped], geo) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {gapped}: line 2: unparseable record: Expecting value: line 1 column 1 (char 0)\n",
        )


class TestUndecodableBytes:
    """A stored line holding bytes that are not UTF-8 is a damaged line."""

    @staticmethod
    def _write(tmp_path, lines, bad_index):
        raw = [line.encode("utf-8") for line in lines]
        raw[bad_index] = raw[bad_index].replace(b'"campaign_id":"c1"', b'"campaign_id":"c\xff1"')
        path = tmp_path / "undecodable.jsonl"
        path.write_bytes(b"\n".join(raw) + b"\n")
        return path

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_mid_file_is_a_schema_error(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        path = self._write(tmp_path, lines, 1)
        assert run_read_command(command, [path], geo) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {path}: line 2: record is not valid UTF-8"]

    @pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
    def test_final_line_is_a_truncation(self, tmp_path, capsys, command):
        lines, geo = fixture_lines(tmp_path)
        path = self._write(tmp_path, lines, 3)
        assert run_read_command(command, [path], geo) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"damaged input: {path}: truncated at line 4; salvaged 3 record(s)"
        ]

    @pytest.mark.parametrize("bad_index", [1, 3], ids=["mid-file", "final-line"])
    def test_fill_in_reports_an_error_line(self, tmp_path, capsys, bad_index):
        lines, _ = fixture_lines(tmp_path)
        path = self._write(tmp_path, lines, bad_index)
        before = path.read_bytes()
        assert cli.main(["fill-in", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert path.read_bytes() == before


class TestEmptyCorpus:
    """With no usable set, every command prints its header and succeeds."""

    FIRST_LINES = {
        "analyze": "metric,region,cdn,resolver,ip_version,median_ms,mean_ms,region_vantages",
        "cdf": "metric,cdn,resolver,ip_version,value_ms,fraction",
        "table": "metric,region,cdn,resolver,ip_version,median_ms",
        "penalty": "metric,region,cdn,resolver,v4_median,v6_median,delta,flagged",
        "diversity": "[]",
        "hit-rate": "cdn,resolver,ip_version,count,hit_rate,miss_rate,unknown_rate,"
        "median_hit_ms,median_miss_ms,median_unknown_ms",
    }

    CORPORA = {
        "empty": [],
        "unusable": [make_set(dns=(), handshakes=())],
        "answers-without-handshakes": [make_set(handshakes=())],
    }

    @pytest.mark.parametrize("kind", READ_COMMANDS)
    @pytest.mark.parametrize("content", CORPORA)
    def test_prints_the_header_only(self, tmp_path, capsys, kind, content):
        path = str(tmp_path / "corpus.jsonl")
        write_records([CampaignRecord("c1", mset) for mset in self.CORPORA[content]], path)
        assert cli.main([*READ_COMMANDS[kind], "--input", path]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [self.FIRST_LINES[kind]]
        assert err == ""


class TestGeoFile:
    """--geo must be a JSON object whose regions are strings or null."""

    CONTENTS = {
        "missing": None,
        "cut-short": '{"p1": ',
        "non-string-region": '{"p1": "asia", "p2": 5}',
        "not-an-object": '["asia"]',
    }

    @pytest.mark.parametrize(
        "command", [["analyze"], ["report", "--kind", "table"]], ids=["analyze", "report"]
    )
    @pytest.mark.parametrize("case", CONTENTS)
    def test_unusable_geo_is_an_error_line(self, tmp_path, capsys, command, case):
        path, _ = analysis_fixture(tmp_path)
        geo = tmp_path / "unusable-geo.json"
        if self.CONTENTS[case] is not None:
            geo.write_text(self.CONTENTS[case])
        assert cli.main([*command, "--input", path, "--geo", str(geo)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {geo}: ")


class TestMissingConfig:
    """Every command that takes --config reports a missing one as an error line."""

    @staticmethod
    def _argv(tmp_path, command):
        if command == "discover":
            domains = tmp_path / "ranked.csv"
            domains.write_text("GlobalRank,TldRank,Domain\n")
            return ["discover", "--domains", str(domains), "--output", str(tmp_path / "sites.json")]
        if command == "detect-isp":
            resolv = tmp_path / "resolv.conf"
            resolv.write_text("nameserver 127.0.0.1\n")
            return ["detect-isp", "--resolv-conf", str(resolv)]
        if command in ("fill-in", "report"):
            path, _ = analysis_fixture(tmp_path)
            return [command, "--input", path]
        return {"measure": ["measure"], "schedule": ["schedule", "--count", "1"]}[command]

    @pytest.mark.parametrize(
        "command", ["discover", "detect-isp", "measure", "schedule", "fill-in", "report"]
    )
    def test_missing_config_is_an_error_line(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.json"
        assert cli.main([*self._argv(tmp_path, command), "--config", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {missing}: ")


SITES_CASES = {
    "missing": None,
    "cut-short": '{"akamai": [',
    "not-an-object": '["www.example.com"]',
    "sites-not-a-list": '{"akamai": "www.example.com"}',
    "no-terminal-cname": '{"akamai": [{"rank": 1, "site_domain": "example.com"}]}',
    "terminal-cname-not-a-string": '{"akamai": [{"terminal_cname": 5}]}',
    "terminal-cname-not-a-dns-name": '{"akamai": [{"terminal_cname": "a..b"}]}',
}
CONFIG_CASES = {
    "not-an-object": "[]",
    "resolver-without-label": '{"resolvers": [{"v4_address": "127.0.0.1"}]}',
    "resolvers-not-a-list": '{"resolvers": "x"}',
    "resolver-not-an-object": '{"resolvers": [["local", "127.0.0.1", "::1"]]}',
    "website-not-a-pair": '{"websites": [["akamai"]]}',
    "website-not-strings": '{"websites": [["akamai", 5]]}',
    "website-not-a-dns-name": '{"websites": [["akamai", "a..b"]]}',
    "two-handshakes": '{"websites": [["akamai", "www.wide.example"]], "handshake_repeats": 2}',
    "resolver-with-unknown-quirk":
        '{"resolvers": [{"label": "l", "v4_address": "127.0.0.1", "v6_address": "::1", "ttl_quirk": "x"}]}',
    # Each value must have the type its field declares.
    "repeats-a-string": '{"handshake_repeats": "3"}',
    "gap-a-bool": '{"prewarm_gap_s": true}',
    "vantage-a-number": '{"vantage_id": 5}',
    "quotas-a-number": '{"quotas": 5}',
    "quota-a-string": '{"quotas": {"akamai": "5"}}',
    "catalog-path-a-number": '{"catalog_path": 5}',
    "negative-quota": '{"quotas": {"akamai": -1}}',
    "negative-interval": '{"recurrence_interval_s": -1}',
    "gap-not-a-finite-number": '{"prewarm_gap_s": NaN}',
    "timeout-not-positive": '{"per_query_timeout_ms": 0}',
    "resolver-port-out-of-range": '{"resolver_port": 70000}',
    "negative-handshake-port": '{"handshake_port": -1}',
    "resolver-label-empty": '{"resolvers": [{"label": "", "v4_address": "127.0.0.1", "v6_address": "::1"}]}',
    # Two resolvers under one label would fold into one row everywhere.
    "duplicate-resolver-label":
        '{"resolvers": [{"label": "l", "v4_address": "127.0.0.1", "v6_address": "::1"},'
        ' {"label": "l", "v4_address": "127.0.0.2", "v6_address": "::2"}]}',
}
UNUSABLE_INPUT_PATHS = {
    **{f"analyze-data-dir-{case}": ("analyze", "--data-dir", content)
       for case, content in {"missing": None, "a-file": "campaign.jsonl\n"}.items()},
    **{f"{command}-sites-{case}": (command, "--sites", content)
       for command in ("measure", "schedule") for case, content in SITES_CASES.items()},
    **{f"discover-domains-{case}": ("discover", "--domains", content)
       for case, content in {
           "missing": None,
           "not-utf-8": b"1,1,\xff.example\n",
           "field-over-the-csv-limit": "1,1," + "a" * 200_000 + "\n",
       }.items()},
    **{f"discover-catalog-{case}": ("discover", "--catalog", content)
       for case, content in {"missing": None, "one-field-line": "akamai\n"}.items()},
    **{f"{command}-config-{case}": (command, "--config", content)
       for command in ("measure", "schedule", "report", "discover")
       for case, content in CONFIG_CASES.items()},
}


class TestUnusableInputPath:
    """A missing or unusable input path is one error line and exit status 2,
    before any query is sent or any output file is written."""

    @staticmethod
    def _argv(tmp_path, command, flag, path):
        config = write_config(tmp_path)
        output = str(tmp_path / "out")
        domains = tmp_path / "ranked.csv"
        domains.write_text("GlobalRank,TldRank,Domain\n1,1,cdn-site.example\n")
        return {
            "analyze": ["analyze"],
            "measure": ["measure", "--config", config, "--output", output],
            "schedule": ["schedule", "--config", config, "--count", "1"],
            "discover": ["discover", "--domains", str(domains), "--config", config, "--output", output],
            "report": ["report", "--kind", "hit-rate", "--input", analysis_fixture(tmp_path)[0],
                       "--output", output],
        }[command] + [flag, path]

    @pytest.mark.parametrize(
        "command, flag, content", UNUSABLE_INPUT_PATHS.values(), ids=UNUSABLE_INPUT_PATHS
    )
    def test_is_an_error_line(self, tmp_path, capsys, monkeypatch, command, flag, content):
        def no_network(*args, **kwargs):
            raise AssertionError("no query may be sent")

        for name in ("ask", "run_campaign", "scan_domain_list"):
            monkeypatch.setattr(cli, name, no_network)
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert cli.main(self._argv(tmp_path, command, flag, str(path))) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists() and not (tmp_path / "campaigns").exists()


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

    def test_invalid_question_echo_is_skipped(self, tmp_path, capsys):
        qname = "www.wide.example"
        root_echo = base64.b64encode(mocknet.build_response(7, ".", mocknet.A, [])).decode("ascii")
        dns = [
            {
                "prb_id": 11,
                "timestamp": 1_650_000_000 + offset,
                "dst_addr": "8.8.8.8",
                "result": {"rt": 20.0, "abuf": abuf},
            }
            for offset, abuf in (
                (0, self._abuf(qname)),
                (5, root_echo),
                (15, self._abuf(qname)),
            )
        ]
        dns_path, tls_path = self._write_inputs(tmp_path, dns, [])
        out = str(tmp_path / "imported.jsonl")
        assert cli.main(["import-atlas", "--dns", dns_path, "--tls", tls_path, "--output", out]) == 0
        assert "skipped 1" in capsys.readouterr().out
        assert [len(r.mset.dns_results) for r in read_records(out)] == [2]

    def test_readings_that_are_no_number_stay_out_of_the_file(self, tmp_path, capsys):
        qname = "www.wide.example"
        dns = [
            {
                "prb_id": 11,
                "timestamp": 1_650_000_000 + offset,
                "dst_addr": "8.8.8.8",
                "result": {"rt": rt, "abuf": self._abuf(qname)},
            }
            for offset, rt in ((0, 20.0), (5, "nan"), (6, "inf"), (15, 21.0))
        ]
        dns_path, tls_path = self._write_inputs(tmp_path, dns, [])
        out = tmp_path / "imported.jsonl"
        assert cli.main(["import-atlas", "--dns", dns_path, "--tls", tls_path, "--output", str(out)]) == 0
        assert "skipped 2" in capsys.readouterr().out

        def not_json(constant):
            raise AssertionError(f"{constant} stored in the imported file")

        stored = [json.loads(line, parse_constant=not_json) for line in out.read_text().splitlines()]
        assert [r["latency_ms"] for r in stored[0]["set"]["dns_results"]] == [20.0, 21.0]

    def test_empty_import_exits_nonzero(self, tmp_path):
        dns_path, tls_path = self._write_inputs(tmp_path, [], [])
        out = str(tmp_path / "none.jsonl")
        assert cli.main(["import-atlas", "--dns", dns_path, "--tls", tls_path, "--output", out]) == 1

    @pytest.mark.parametrize("flag", ["--dns", "--tls"])
    @pytest.mark.parametrize("content", [None, "{}", "["], ids=["missing", "not-an-array", "cut-short"])
    def test_unusable_input_file_is_an_error_line(self, tmp_path, capsys, flag, content):
        dns_path, tls_path = self._write_inputs(tmp_path, [], [])
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        paths = {"--dns": dns_path, "--tls": tls_path, flag: str(bad)}
        out = tmp_path / "imported.jsonl"
        argv = ["import-atlas", "--dns", paths["--dns"], "--tls", paths["--tls"], "--output", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()


class TestDetectIsp:
    @staticmethod
    def _resolv_conf(tmp_path):
        path = tmp_path / "resolv.conf"
        path.write_text("nameserver 127.0.0.1\nnameserver ::1\n")
        return str(path)

    def test_isp_provided_both_families(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "discover_vantage_address",
            lambda version, override=None, **kw: override or "203.0.113.50",
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
            cli, "discover_vantage_address", lambda version, override=None, **kw: "203.0.113.50"
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

    def test_config_timeout_reaches_every_query(self, tmp_path, capsys, monkeypatch):
        sent = []

        def fake(question):
            sent.append((question.qname, question.timeout_ms))
            if question.qname.startswith("whoami."):
                strings = ["ns", "203.0.113.60"]
            else:
                strings = ["64500 | 203.0.113.0/24 | ZZ | test | 2020-01-01"]
            record = ResourceRecord(name=question.qname, rtype=int(RecordType.TXT), ttl=60, rdata=strings)
            return make_response(1.0, 1.0, qname=question.qname, answers=[record])

        monkeypatch.setattr(cli, "ask", asking(fake))
        conf = tmp_path / "resolv.conf"
        conf.write_text("nameserver 192.168.1.1\nnameserver 9.9.9.9\n")  # private and public paths
        argv = ["detect-isp", "--resolv-conf", str(conf), "--config", write_config(tmp_path)]
        assert cli.main(argv) == 0
        asked = {qname.split(".", 1)[0] if qname.startswith("whoami.") else qname for qname, _ in sent}
        assert {"whoami", resolver_id.cymru_query_name("9.9.9.9"),
                resolver_id.cymru_query_name("203.0.113.60")} <= asked
        assert {timeout for _, timeout in sent} == {400.0}


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


class TestCollectorPause:
    """analyze, report and import-atlas run with the cyclic collector off."""

    ARGV = {
        "analyze": ["analyze", "--input", "x.jsonl"],
        "report": ["report", "--input", "x.jsonl"],
        "import-atlas": ["import-atlas", "--dns", "d.json", "--tls", "t.json", "--output", "o.jsonl"],
        "measure": ["measure"],
    }
    HANDLERS = {
        "analyze": "_cmd_analyze",
        "report": "_cmd_report",
        "import-atlas": "_cmd_import_atlas",
        "measure": "_cmd_measure",
    }

    @staticmethod
    @contextlib.contextmanager
    def collector(enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            yield
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def stub(self, monkeypatch, command, raises=None):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            if raises is not None:
                raise raises
            return 0

        monkeypatch.setattr(cli, self.HANDLERS[command], handler)
        return seen

    @pytest.mark.parametrize("command", ["analyze", "report", "import-atlas"])
    def test_bulk_commands_run_with_the_collector_off(self, monkeypatch, command):
        seen = self.stub(monkeypatch, command)
        with self.collector(True):
            assert cli.main(self.ARGV[command]) == 0
            assert seen == [False]
            assert gc.isenabled()

    def test_measure_keeps_the_collector_on(self, monkeypatch):
        seen = self.stub(monkeypatch, "measure")
        with self.collector(True):
            assert cli.main(self.ARGV["measure"]) == 0
            assert seen == [True]
            assert gc.isenabled()

    @pytest.mark.parametrize("command", ["analyze", "report", "import-atlas"])
    def test_a_raising_command_turns_the_collector_back_on(self, monkeypatch, command):
        seen = self.stub(monkeypatch, command, raises=RuntimeError("boom"))
        with self.collector(True):
            with pytest.raises(RuntimeError, match="boom"):
                cli.main(self.ARGV[command])
            assert seen == [False]
            assert gc.isenabled()

    @pytest.mark.parametrize("command", ["analyze", "report", "import-atlas"])
    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, monkeypatch, command):
        seen = self.stub(monkeypatch, command)
        with self.collector(False):
            assert cli.main(self.ARGV[command]) == 0
            assert seen == [False]
            assert not gc.isenabled()
