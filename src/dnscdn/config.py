"""Tool configuration: the measurement spec, quotas, thresholds, cadence.

A config file is one flat JSON object.  Its keys name the fields of
MeasurementSpec (websites, resolvers, repeats, gap, timeout, ports) and
the tool's own settings, the other fields of ToolConfig; other keys are
ignored.  Each value must have the type its field declares.  The roster
ships with the four public resolver services most clients compare
against; every entry must carry both family addresses because all
measurements run dual-stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .analytics import HAPPY_EYEBALLS_THRESHOLD_MS
from .cache import TtlQuirk
from .campaign import MeasurementSpec, ResolverEntry, checked_fields


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
    spec: MeasurementSpec = field(
        default_factory=lambda: MeasurementSpec(websites=[], resolvers=default_resolvers())
    )
    catalog_path: str | None = None
    quotas: dict[str, int] = field(default_factory=default_quotas)
    thresholds: dict[str, int] = field(default_factory=default_thresholds)
    output_dir: str = "campaigns"
    recurrence_interval_s: float = 30 * 24 * 3600.0
    fanout: int = 4  # domains `discover` checks at once; campaigns run on one event loop
    happy_eyeballs_threshold_ms: float = HAPPY_EYEBALLS_THRESHOLD_MS
    vantage_id: str = "local"

    def __post_init__(self):
        if any(quota < 0 for quota in self.quotas.values()):
            raise ValueError("quotas must be non-negative")
        if not 0 <= self.recurrence_interval_s < math.inf:
            raise ValueError("recurrence_interval_s must be a non-negative number of seconds")


def load_config(path: str) -> ToolConfig:
    """The config file at path.  A document that is not an object, a value
    of another type than its field declares, a roster entry of the wrong
    shape, and values the spec or ToolConfig rejects raise ValueError.  A
    file with no roster, or an empty one, gets default_resolvers()."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    entries = doc.get("resolvers", [])
    if not isinstance(entries, list):
        raise ValueError("resolvers must be a list")
    spec = MeasurementSpec(
        **{"websites": [], **checked_fields(MeasurementSpec, doc, skip="resolvers")},
        resolvers=[_resolver_entry(e) for e in entries] or default_resolvers(),
    )
    return ToolConfig(spec=spec, **checked_fields(ToolConfig, doc, skip="spec"))


def _resolver_entry(entry) -> ResolverEntry:
    names = ("label", "v4_address", "v6_address")
    if not isinstance(entry, dict) or not all(isinstance(entry.get(name), str) for name in names):
        raise ValueError(f"resolver {entry!r} needs label, v4_address and v6_address strings")
    return ResolverEntry(*(entry[name] for name in names), entry.get("ttl_quirk", TtlQuirk.NONE))
