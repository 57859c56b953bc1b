"""Tool configuration: resolver roster, quotas, thresholds, cadence.

Ships with the four public resolver services most clients compare
against; every roster entry must carry both family addresses because all
measurements run dual-stack.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .analytics import HAPPY_EYEBALLS_THRESHOLD_MS
from .cache import TtlQuirk
from .campaign import DEFAULT_PREWARM_GAP_S, MeasurementSpec, ResolverEntry


def default_resolvers() -> list[ResolverEntry]:
    return [
        ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888", TtlQuirk.GOOGLE_DECREMENT),
        ResolverEntry("cloudflare", "1.1.1.1", "2606:4700:4700::1111"),
        ResolverEntry("opendns", "208.67.222.222", "2620:119:35::35"),
        ResolverEntry("quad9", "9.9.9.9", "2620:fe::fe"),
    ]


def default_quotas() -> dict[str, int]:
    return {"akamai": 50, "fastly": 5, "cloudflare-cdn": 5, "edgecast": 5}


def default_thresholds() -> dict[str, int]:
    return {"akamai": 30, "fastly": 3, "cloudflare-cdn": 3, "edgecast": 3}


@dataclass
class ToolConfig:
    resolvers: list[ResolverEntry] = field(default_factory=default_resolvers)
    websites: list[tuple[str, str]] = field(default_factory=list)  # (cdn, hostname)
    catalog_path: str | None = None
    quotas: dict[str, int] = field(default_factory=default_quotas)
    thresholds: dict[str, int] = field(default_factory=default_thresholds)
    dns_repeats: int = 3
    handshake_repeats: int = 3
    prewarm_gap_s: float = DEFAULT_PREWARM_GAP_S
    per_query_timeout_ms: float = 5000.0
    resolver_port: int = 53
    handshake_port: int = 443
    output_dir: str = "campaigns"
    recurrence_interval_s: float = 30 * 24 * 3600.0
    fanout: int = 4  # domains `discover` checks at once; campaigns run on one event loop
    happy_eyeballs_threshold_ms: float = HAPPY_EYEBALLS_THRESHOLD_MS
    geo_path: str | None = None
    vantage_id: str = "local"

    def to_measurement_spec(self, websites: list[tuple[str, str]] | None = None) -> MeasurementSpec:
        return MeasurementSpec(
            websites=websites or self.websites,
            resolvers=list(self.resolvers),
            dns_repeats=self.dns_repeats,
            prewarm_gap_s=self.prewarm_gap_s,
            handshake_repeats=self.handshake_repeats,
            per_query_timeout_ms=self.per_query_timeout_ms,
            resolver_port=self.resolver_port,
            handshake_port=self.handshake_port,
        )

    def quirk_map(self) -> dict[str, TtlQuirk]:
        return {r.label: r.ttl_quirk for r in self.resolvers}


def save_config(config: ToolConfig, path: str):
    doc = asdict(config)
    for entry in doc["resolvers"]:
        entry["ttl_quirk"] = entry["ttl_quirk"].value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_config(path: str) -> ToolConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    resolvers = [
        ResolverEntry(
            label=e["label"],
            v4_address=e["v4_address"],
            v6_address=e["v6_address"],
            ttl_quirk=TtlQuirk(e.get("ttl_quirk", "none")),
        )
        for e in doc.get("resolvers", [])
    ] or default_resolvers()
    known = {f for f in ToolConfig.__dataclass_fields__ if f not in ("resolvers", "websites")}
    extra = {k: v for k, v in doc.items() if k in known}
    websites = [tuple(w) for w in doc.get("websites", [])]
    return ToolConfig(resolvers=resolvers, websites=websites, **extra)
