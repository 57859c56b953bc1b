"""Tool config file round trips and the stored spec snapshot format."""

import importlib
import json
import pathlib
from dataclasses import asdict, fields, replace

import pytest

from dnscdn import analytics
from dnscdn.cache import TtlQuirk
from dnscdn.campaign import MeasurementSpec, ResolverEntry
from dnscdn.config import ToolConfig, default_resolvers, load_config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

SPEC = MeasurementSpec(
    websites=[("akamai", "www.example.com"), ("fastly", "img.example.net")],
    resolvers=[
        ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888"),
        ResolverEntry("quad9", "9.9.9.9", "2620:fe::fe"),
    ],
    prewarm_gap_s=0.5,
    per_query_timeout_ms=750.0,
    resolver_port=5353,
)

# The snapshot every stored record carries; files written by earlier
# releases hold exactly this shape, so it must not drift.
SNAPSHOT_LINE = (
    '{"websites": [["akamai", "www.example.com"], ["fastly", "img.example.net"]], '
    '"resolvers": [["google", "8.8.8.8", "2001:4860:4860::8888"], '
    '["quad9", "9.9.9.9", "2620:fe::fe"]], "dns_repeats": 3, "prewarm_gap_s": 0.5, '
    '"handshake_repeats": 3, "per_query_timeout_ms": 750.0, "resolver_port": 5353, '
    '"handshake_port": 443}'
)


def write_json(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def config_file_doc(config: ToolConfig) -> dict:
    """config as the one flat JSON object a config file holds."""
    doc = {name: value for name, value in asdict(config).items() if name != "spec"}
    doc.update(asdict(config.spec))
    for entry in doc["resolvers"]:
        entry["ttl_quirk"] = entry["ttl_quirk"].value
    return doc


class TestConfigFile:
    def test_save_then_load_round_trips(self, tmp_path):
        config = ToolConfig(
            spec=MeasurementSpec(
                websites=[("akamai", "www.example.com")],
                resolvers=[
                    ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888", TtlQuirk.GOOGLE_DECREMENT),
                    ResolverEntry("local", "127.0.0.1", "::1"),
                ],
                prewarm_gap_s=2.0,
                resolver_port=5353,
            ),
            catalog_path="catalog.txt",
            quotas={"akamai": 7},
            vantage_id="desk",
        )
        loaded = load_config(write_json(tmp_path, config_file_doc(config)))
        assert loaded == config
        assert [r.ttl_quirk for r in loaded.spec.resolvers] == [TtlQuirk.GOOGLE_DECREMENT, TtlQuirk.NONE]

    def test_swapped_family_addresses_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            {"resolvers": [{"label": "swapped", "v4_address": "::1", "v6_address": "127.0.0.1"}]},
        )
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_keys_are_ignored(self, tmp_path):
        # "spec" is the name of a ToolConfig field, not a key of the file.
        path = write_json(tmp_path, {"no_such_option": 1, "spec": 1, "dns_repeats": 4})
        config = load_config(path)
        assert config.spec.dns_repeats == 4
        assert not hasattr(config, "no_such_option")
        assert config.spec.resolvers == default_resolvers()

    def test_config_with_the_retired_geo_path_still_loads(self, tmp_path):
        # Regions reach the CLI through --geo only; older configs carry geo_path.
        path = write_json(tmp_path, {"geo_path": "regions.json", "vantage_id": "desk"})
        config = load_config(path)
        assert config.vantage_id == "desk"
        assert not hasattr(config, "geo_path")

    def test_threshold_defaults_to_the_analytics_constant(self):
        assert ToolConfig().happy_eyeballs_threshold_ms == analytics.HAPPY_EYEBALLS_THRESHOLD_MS

    def test_spec_carries_the_roster(self, tmp_path):
        assert ToolConfig().spec.resolvers == default_resolvers()
        for doc in ({}, {"resolvers": []}):  # no roster, or an empty one
            assert load_config(write_json(tmp_path, doc)).spec.resolvers == default_resolvers()

    def test_spec_carries_every_shared_field(self, tmp_path):
        # Every key of the file that names a MeasurementSpec field reaches
        # config.spec as written.
        doc = {
            "websites": [["fastly", "img.example.net"]],
            "resolvers": [{"label": "local", "v4_address": "127.0.0.1", "v6_address": "::1"}],
            "dns_repeats": 5,
            "prewarm_gap_s": 2.5,
            "handshake_repeats": 4,
            "per_query_timeout_ms": 750.0,
            "resolver_port": 5353,
            "handshake_port": 8443,
        }
        assert set(doc) == {f.name for f in fields(MeasurementSpec)}
        spec = load_config(write_json(tmp_path, doc)).spec
        default = ToolConfig().spec
        assert all(getattr(spec, name) != getattr(default, name) for name in doc)
        assert spec == MeasurementSpec(
            **{**doc, "websites": [("fastly", "img.example.net")],
               "resolvers": [ResolverEntry("local", "127.0.0.1", "::1")]}
        )

    def test_websites_argument_overrides_the_config(self):
        # measure and schedule --sites: replace runs the spec's checks again.
        spec = ToolConfig(spec=SPEC).spec
        assert replace(spec, websites=[["fastly", "cdn.example"]]).websites == [("fastly", "cdn.example")]
        with pytest.raises(ValueError, match="not a DNS name"):
            replace(spec, websites=[("akamai", "a..b")])

    def test_tool_settings_and_spec_fields_do_not_overlap(self):
        tool = {f.name for f in fields(ToolConfig)}
        assert not tool & {f.name for f in fields(MeasurementSpec)}
        # The file's other keys: the tool's own settings.
        assert tool - {"spec"} == {
            "catalog_path", "quotas", "thresholds", "output_dir", "recurrence_interval_s",
            "fanout", "happy_eyeballs_threshold_ms", "vantage_id",
        }

    def test_loads_the_benchmark_campaign_config(self, tmp_path, monkeypatch):
        # campaign-loopback runs `measure --config` on exactly this file.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        truth = gen.write_campaign(str(tmp_path), 7)
        config = load_config(gen.write_campaign_config(str(tmp_path), truth, 5353, 8443))
        assert config.vantage_id == "loopback"
        assert config.spec.websites == [tuple(w) for w in truth["websites"]]
        assert [r.label for r in config.spec.resolvers] == list(gen.CAMPAIGN_LABELS)
        assert (config.spec.resolver_port, config.spec.handshake_port) == (5353, 8443)
        assert config.spec.prewarm_gap_s == truth["gap_s"]


class TestSpecSnapshot:
    def test_golden_line(self):
        assert json.dumps(SPEC.snapshot()) == SNAPSHOT_LINE

    def test_round_trip(self):
        assert MeasurementSpec.from_snapshot(SPEC.snapshot()) == SPEC

    def test_stored_line_loads(self):
        spec = MeasurementSpec.from_snapshot(json.loads(SNAPSHOT_LINE))
        assert spec == SPEC
        assert spec.resolver_by_label("quad9").v6_address == "2620:fe::fe"

    def test_ttl_quirk_survives(self):
        spec = replace(SPEC, resolvers=default_resolvers())
        doc = json.loads(json.dumps(spec.snapshot()))
        assert doc["resolvers"][0] == ["google", "8.8.8.8", "2001:4860:4860::8888", "google-decrement"]
        assert doc["resolvers"][1] == ["cloudflare", "1.1.1.1", "2606:4700:4700::1111"]
        back = MeasurementSpec.from_snapshot(doc)
        assert back == spec
        assert back.resolver_by_label("google").ttl_quirk is TtlQuirk.GOOGLE_DECREMENT

    def test_unknown_quirk_is_rejected(self):
        doc = {**SPEC.snapshot(), "resolvers": [["local", "127.0.0.1", "::1", "bogus"]]}
        with pytest.raises(ValueError):
            MeasurementSpec.from_snapshot(doc)

    @pytest.mark.parametrize(
        "resolvers",
        [[[5, "8.8.8.8", "::1"]], [["", "8.8.8.8", "::1"]], [["x", "127.0.0.1", "::1"], ["x", "127.0.0.2", "::2"]]],
        ids=["label-a-number", "label-empty", "duplicate-label"],
    )
    def test_stored_resolver_labels_are_checked(self, resolvers):
        with pytest.raises(ValueError):
            MeasurementSpec.from_snapshot({"websites": [], "resolvers": resolvers})

    @pytest.mark.parametrize("doc", [5, [1], "resolvers"])
    def test_stored_spec_that_is_not_an_object_is_rejected(self, doc):
        with pytest.raises(ValueError):
            MeasurementSpec.from_snapshot(doc)
