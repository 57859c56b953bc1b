"""Tool configuration: resolver roster, quotas, thresholds, cadence.

Ships with the four public resolver services most clients compare
against; every roster entry must carry both family addresses because all
measurements run dual-stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .analytics import HAPPY_EYEBALLS_THRESHOLD_MS
from .cache import TtlQuirk
from .campaign import DEFAULT_PREWARM_GAP_S, MeasurementSpec, ResolverEntry
from .wire import DEFAULT_TIMEOUT_MS


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
    per_query_timeout_ms: float = DEFAULT_TIMEOUT_MS
    resolver_port: int = 53
    handshake_port: int = 443
    output_dir: str = "campaigns"
    recurrence_interval_s: float = 30 * 24 * 3600.0
    fanout: int = 4  # domains `discover` checks at once; campaigns run on one event loop
    happy_eyeballs_threshold_ms: float = HAPPY_EYEBALLS_THRESHOLD_MS
    vantage_id: str = "local"

    def to_measurement_spec(self, websites: list[tuple[str, str]] | None = None) -> MeasurementSpec:
        shared = {f.name: getattr(self, f.name) for f in fields(MeasurementSpec)}
        shared.update(
            websites=self.websites if websites is None else websites, resolvers=list(self.resolvers)
        )
        return MeasurementSpec(**shared)

    def quirk_map(self) -> dict[str, TtlQuirk]:
        return {r.label: r.ttl_quirk for r in self.resolvers}


def load_config(path: str) -> ToolConfig:
    """The config file at path.  A document that is not an object, a
    roster entry or website of the wrong shape, and values no measurement
    spec accepts raise ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    entries, websites = doc.get("resolvers", []), doc.get("websites", [])
    if not isinstance(entries, list) or not isinstance(websites, list):
        raise ValueError("resolvers and websites must be lists")
    for w in websites:
        if not (isinstance(w, list) and len(w) == 2 and all(isinstance(part, str) for part in w)):
            raise ValueError(f"website {w!r} is not a [cdn, hostname] pair of strings")
    resolvers = [_resolver_entry(e) for e in entries] or default_resolvers()
    known = {f for f in ToolConfig.__dataclass_fields__ if f not in ("resolvers", "websites")}
    extra = {k: v for k, v in doc.items() if k in known}
    config = ToolConfig(resolvers=resolvers, websites=[tuple(w) for w in websites], **extra)
    config.to_measurement_spec()  # the spec's own checks, before any command runs
    return config


def _resolver_entry(entry) -> ResolverEntry:
    names = ("label", "v4_address", "v6_address")
    if not isinstance(entry, dict) or not all(isinstance(entry.get(name), str) for name in names):
        raise ValueError(f"resolver {entry!r} needs label, v4_address and v6_address strings")
    return ResolverEntry(
        label=entry["label"],
        v4_address=entry["v4_address"],
        v6_address=entry["v6_address"],
        ttl_quirk=TtlQuirk(entry.get("ttl_quirk", "none")),
    )
