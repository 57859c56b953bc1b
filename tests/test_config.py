"""Tool config file round trips and the stored spec snapshot format."""

import json
from dataclasses import asdict, fields

import pytest

from dnscdn import analytics
from dnscdn.cache import TtlQuirk
from dnscdn.campaign import MeasurementSpec, ResolverEntry
from dnscdn.cli import _spec_snapshot, spec_from_snapshot
from dnscdn.config import ToolConfig, default_resolvers, load_config

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


class TestConfigFile:
    def test_save_then_load_round_trips(self, tmp_path):
        config = ToolConfig(
            resolvers=[
                ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888", TtlQuirk.GOOGLE_DECREMENT),
                ResolverEntry("local", "127.0.0.1", "::1"),
            ],
            websites=[("akamai", "www.example.com")],
            prewarm_gap_s=2.0,
            resolver_port=5353,
            vantage_id="desk",
        )
        doc = asdict(config)
        for entry in doc["resolvers"]:
            entry["ttl_quirk"] = entry["ttl_quirk"].value
        loaded = load_config(write_json(tmp_path, doc))
        assert loaded == config
        assert loaded.resolvers[0].ttl_quirk is TtlQuirk.GOOGLE_DECREMENT
        assert loaded.quirk_map() == {"google": TtlQuirk.GOOGLE_DECREMENT, "local": TtlQuirk.NONE}

    def test_swapped_family_addresses_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            {"resolvers": [{"label": "swapped", "v4_address": "::1", "v6_address": "127.0.0.1"}]},
        )
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_keys_are_ignored(self, tmp_path):
        path = write_json(tmp_path, {"no_such_option": 1, "dns_repeats": 4})
        config = load_config(path)
        assert config.dns_repeats == 4
        assert not hasattr(config, "no_such_option")
        assert config.resolvers == default_resolvers()

    def test_config_with_the_retired_geo_path_still_loads(self, tmp_path):
        # Regions reach the CLI through --geo only; older configs carry geo_path.
        path = write_json(tmp_path, {"geo_path": "regions.json", "vantage_id": "desk"})
        config = load_config(path)
        assert config.vantage_id == "desk"
        assert not hasattr(config, "geo_path")

    def test_threshold_defaults_to_the_analytics_constant(self):
        assert ToolConfig().happy_eyeballs_threshold_ms == analytics.HAPPY_EYEBALLS_THRESHOLD_MS

    def test_spec_carries_the_roster(self):
        config = ToolConfig(websites=[["akamai", "www.example.com"]])
        spec = config.to_measurement_spec()
        assert spec.resolvers == config.resolvers
        assert spec.websites == [("akamai", "www.example.com")]

    def test_spec_carries_every_shared_field(self):
        shared = {
            "websites": [("fastly", "img.example.net")],
            "resolvers": [ResolverEntry("local", "127.0.0.1", "::1")],
            "dns_repeats": 5,
            "prewarm_gap_s": 2.5,
            "handshake_repeats": 4,
            "per_query_timeout_ms": 750.0,
            "resolver_port": 5353,
            "handshake_port": 8443,
        }
        assert set(shared) == {f.name for f in fields(MeasurementSpec)}
        assert all(value != getattr(ToolConfig(), name) for name, value in shared.items())
        spec = ToolConfig(**shared).to_measurement_spec()
        assert {name: getattr(spec, name) for name in shared} == shared

    def test_websites_argument_overrides_the_config(self):
        config = ToolConfig(websites=[("akamai", "www.example.com")])
        spec = config.to_measurement_spec([("fastly", "img.example.net")])
        assert spec.websites == [("fastly", "img.example.net")]


class TestSpecSnapshot:
    def test_golden_line(self):
        assert json.dumps(_spec_snapshot(SPEC)) == SNAPSHOT_LINE

    def test_round_trip(self):
        assert spec_from_snapshot(_spec_snapshot(SPEC)) == SPEC

    def test_stored_line_loads(self):
        spec = spec_from_snapshot(json.loads(SNAPSHOT_LINE))
        assert spec == SPEC
        assert spec.resolver_by_label("quad9").v6_address == "2620:fe::fe"
