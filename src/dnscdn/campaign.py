"""Measurement orchestration and data-quality rules.

One measurement set is: a prewarm DNS query, a fixed gap, three
back-to-back DNS queries, then three timed TCP handshakes against the
edge address those answers assigned.  Downstream rules decide which sets
are usable, which (vantage, website) pairs are complete across every
resolver, and which vantages carry enough complete pairs to keep.
"""

from __future__ import annotations

import logging
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .cache import TtlQuirk
from .mapping import HandshakeSample, NoAddressError, measure_handshake, select_edge
from .resolve import ResolveError, TimedDnsResponse, resolve_once
from .wire import DnsQuestion, IpVersion, MalformedMessageError, RecordType

log = logging.getLogger(__name__)

DEFAULT_PREWARM_GAP_S = 15.0


@dataclass
class ResolverEntry:
    """One resolver service, reachable over both address families."""

    label: str
    v4_address: str
    v6_address: str
    ttl_quirk: TtlQuirk = TtlQuirk.NONE

    def __post_init__(self):
        if IpVersion.of_address(self.v4_address) is not IpVersion.V4:
            raise ValueError(f"{self.label}: {self.v4_address} is not IPv4")
        if IpVersion.of_address(self.v6_address) is not IpVersion.V6:
            raise ValueError(f"{self.label}: {self.v6_address} is not IPv6")


@dataclass
class MeasurementSpec:
    """What to measure: websites (with their CDN), resolvers, and cadence."""

    websites: list[tuple[str, str]]  # (cdn, hostname)
    resolvers: list[ResolverEntry]
    dns_repeats: int = 3
    prewarm_gap_s: float = DEFAULT_PREWARM_GAP_S
    handshake_repeats: int = 3
    per_query_timeout_ms: float = 5000.0
    resolver_port: int = 53
    handshake_port: int = 443

    def __post_init__(self):
        # The latest-three median must be able to exclude a misordered
        # prewarm, which takes at least two post-prewarm readings.
        if self.dns_repeats < 2:
            raise ValueError("dns_repeats must be at least 2")
        if self.handshake_repeats < 1:
            raise ValueError("handshake_repeats must be at least 1")
        if self.prewarm_gap_s < 0:
            raise ValueError("prewarm_gap_s must be non-negative")
        self.websites = [tuple(w) for w in self.websites]

    def resolver_by_label(self, label: str) -> ResolverEntry:
        for entry in self.resolvers:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def website_by_name(self, name: str) -> tuple[str, str]:
        for entry in self.websites:
            if entry[1] == name:
                return entry
        raise KeyError(name)


@dataclass
class MeasurementSet:
    vantage_id: str
    website: str
    cdn: str
    resolver_label: str
    ip_version: IpVersion
    dns_results: list[TimedDnsResponse] = field(default_factory=list)
    handshake_results: list[HandshakeSample] = field(default_factory=list)
    created_at: float = 0.0
    failed_twice: bool = False

    def __post_init__(self):
        stamps = [r.sent_at_monotonic for r in self.dns_results]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("dns_results must carry strictly increasing send timestamps")
        if sum(1 for r in self.dns_results if r.is_prewarm) > 1:
            raise ValueError("at most one dns result may be the prewarm attempt")

    @property
    def key(self) -> tuple[str, str, str, IpVersion]:
        return (self.vantage_id, self.website, self.resolver_label, self.ip_version)


def run_measurement_set(
    spec: MeasurementSpec,
    website: tuple[str, str],
    resolver: ResolverEntry,
    ip_version: IpVersion,
    *,
    vantage_id: str = "local",
    resolve_fn=resolve_once,
    handshake_fn=measure_handshake,
    sleep_fn=time.sleep,
) -> MeasurementSet:
    """Run one full set for (website, resolver, family).

    Sub-measurement failures leave gaps rather than aborting: a dropped or
    undecodable reply is simply absent from dns_results, an unreachable
    edge leaves handshake_results empty, and the set is returned either way.
    """
    cdn, hostname = website
    label = resolver.label
    v4 = ip_version is IpVersion.V4
    question = DnsQuestion(
        qname=hostname,
        qtype=RecordType.A if v4 else RecordType.AAAA,
        resolver_address=resolver.v4_address if v4 else resolver.v6_address,
        timeout_ms=spec.per_query_timeout_ms,
        resolver_port=spec.resolver_port,
    )
    created_at = time.time()
    dns_results: list[TimedDnsResponse] = []

    try:
        prewarm = resolve_fn(question)
        prewarm.is_prewarm = True
        dns_results.append(prewarm)
    except (ResolveError, MalformedMessageError) as exc:
        log.debug("prewarm for %s via %s failed: %s", hostname, label, exc)

    sleep_fn(spec.prewarm_gap_s)

    for attempt in range(spec.dns_repeats):
        try:
            dns_results.append(resolve_fn(question))
        except (ResolveError, MalformedMessageError) as exc:
            log.debug("query %d for %s via %s failed: %s", attempt + 1, hostname, label, exc)

    handshake_results: list[HandshakeSample] = []
    try:
        edge = select_edge(dns_results, ip_version, website=hostname, resolver_label=label)
    except NoAddressError:
        edge = None
    if edge is not None:
        for _ in range(spec.handshake_repeats):
            sample = handshake_fn(
                edge.address, spec.handshake_port, timeout_ms=spec.per_query_timeout_ms
            )
            # failures are recorded as absent, not as failed samples
            if sample.success:
                handshake_results.append(sample)

    return MeasurementSet(
        vantage_id=vantage_id,
        website=hostname,
        cdn=cdn,
        resolver_label=label,
        ip_version=ip_version,
        dns_results=dns_results,
        handshake_results=handshake_results,
        created_at=created_at,
    )


def is_usable(
    mset: MeasurementSet, *, dns_required: int = 3, handshake_required: int = 3
) -> bool:
    """At least three DNS results (prewarm counts) and every handshake
    succeeded; stored failed samples do not count."""
    return (
        len(mset.dns_results) >= dns_required
        and sum(1 for h in mset.handshake_results if h.success) >= handshake_required
    )


def completeness_filter(
    sets: list[MeasurementSet],
    thresholds: dict[str, int],
    *,
    dns_required: int = 3,
    handshake_required: int = 3,
) -> set[tuple[str, str]]:
    """Retained (vantage, website) pairs under the completeness rules.

    A pair is complete when a usable set exists for every
    (resolver, family) combination seen anywhere in the corpus.  A vantage
    survives only if, for every CDN in thresholds, it holds at least that
    many complete websites; all pairs of a dropped vantage go with it.
    """
    universe = {(s.resolver_label, s.ip_version) for s in sets}
    if not universe:
        return set()

    usable_combos: dict[tuple[str, str], set] = {}
    pair_cdn: dict[tuple[str, str], str] = {}
    for s in sets:
        pair = (s.vantage_id, s.website)
        pair_cdn.setdefault(pair, s.cdn)
        if is_usable(s, dns_required=dns_required, handshake_required=handshake_required):
            usable_combos.setdefault(pair, set()).add((s.resolver_label, s.ip_version))

    complete_pairs = {pair for pair, combos in usable_combos.items() if combos == universe}

    per_vantage_cdn_count: dict[str, dict[str, int]] = {}
    for vantage, website in complete_pairs:
        cdn = pair_cdn[(vantage, website)]
        per_vantage_cdn_count.setdefault(vantage, {}).setdefault(cdn, 0)
        per_vantage_cdn_count[vantage][cdn] += 1

    retained_vantages = {
        vantage
        for vantage, counts in per_vantage_cdn_count.items()
        if all(counts.get(cdn, 0) >= minimum for cdn, minimum in thresholds.items())
    }
    return {pair for pair in complete_pairs if pair[0] in retained_vantages}


def fill_in(
    sets: list[MeasurementSet],
    spec: MeasurementSpec,
    *,
    run_fn=run_measurement_set,
    dns_required: int = 3,
    handshake_required: int = 3,
    **run_kwargs,
) -> list[MeasurementSet]:
    """Retry every combination that lacks a usable set.

    A usable retry replaces the original set wholesale; a retry that also
    fails leaves the original in place, marked failed_twice.
    """
    out: list[MeasurementSet] = []
    for original in sets:
        if is_usable(original, dns_required=dns_required, handshake_required=handshake_required):
            out.append(original)
            continue
        try:
            website = spec.website_by_name(original.website)
            resolver = spec.resolver_by_label(original.resolver_label)
        except KeyError:
            log.warning(
                "cannot fill in %s via %s: not in the measurement spec",
                original.website,
                original.resolver_label,
            )
            out.append(original)
            continue
        retry = run_fn(
            spec,
            website,
            resolver,
            original.ip_version,
            vantage_id=original.vantage_id,
            **run_kwargs,
        )
        if is_usable(retry, dns_required=dns_required, handshake_required=handshake_required):
            out.append(retry)
        else:
            original.failed_twice = True
            out.append(original)
    return out


def run_campaign(
    spec: MeasurementSpec,
    *,
    vantage_id: str = "local",
    rng: random.Random | None = None,
    fanout: int = 1,
    run_fn=run_measurement_set,
    **run_kwargs,
) -> list[MeasurementSet]:
    """Measure every (website, resolver, family) combination once.

    Website order is shuffled independently per resolver so that cache
    warming from one resolver's pass does not systematically lead or trail
    another's.  Distinct combinations may run concurrently up to fanout;
    each set is internally serial.
    """
    rng = rng or random.Random()
    jobs = []
    for resolver in spec.resolvers:
        ordered = list(spec.websites)
        rng.shuffle(ordered)
        for website in ordered:
            for version in (IpVersion.V4, IpVersion.V6):
                jobs.append((website, resolver, version))

    def run_one(job):
        website, resolver, version = job
        return run_fn(spec, website, resolver, version, vantage_id=vantage_id, **run_kwargs)

    if fanout <= 1:
        return [run_one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=fanout) as pool:
        return list(pool.map(run_one, jobs))
