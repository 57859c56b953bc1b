"""Statistics over measurement sets.

Aggregation follows a strict ladder: per-set medians use the three
latest-timestamped DNS results (masking a misordered prewarm), per-CDN
medians collapse a vantage's websites to one latency point, and all
tables, distributions, and tests operate on those points.  Everything
here is pure; identical inputs give identical outputs.

The three folds over sets, build_latency_points, hit_rate_table and
address_diversity, each skip a set that is not usable (is_usable) as it
comes, so every output counts usable sets only.

A vantage's region is decided once, by region_of, when
build_latency_points makes its points; every table after that reads the
point's region.
"""

from __future__ import annotations

import logging
import math
import statistics
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from .cache import Convention, TtlQuirk, Verdict, classify
from .campaign import MeasurementSet, is_usable
from .mapping import mapping_latency, select_edge
from .wire import IpVersion

log = logging.getLogger(__name__)

UNASSIGNED_REGION = "unassigned"
HAPPY_EYEBALLS_THRESHOLD_MS = 250.0
ANYCAST_MAX_UNIQUE = 8


class Metric(Enum):
    DNS = "dns"
    MAPPING = "mapping"


class TooFewResultsError(Exception):
    pass


class EmptyInputError(Exception):
    pass


@dataclass
class LatencyPoint:
    """One vantage's single latency datum for a (cdn, resolver, family, metric)."""

    vantage_id: str
    cdn: str
    resolver_label: str
    ip_version: IpVersion
    metric: Metric
    value: float
    region: str = UNASSIGNED_REGION

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("latency value must be non-negative")


def latest_three(mset: MeasurementSet):
    if len(mset.dns_results) < 3:
        raise TooFewResultsError(
            f"set for {mset.website} via {mset.resolver_label} has "
            f"{len(mset.dns_results)} DNS results, need 3"
        )
    ordered = sorted(mset.dns_results, key=lambda r: r.sent_at_monotonic)
    return ordered[-3:]


def per_website_median(mset: MeasurementSet) -> float:
    """Median latency of the three latest-timestamped DNS results.

    Sorting by timestamp (not list position) keeps a prewarm that ran out
    of order from polluting the median.
    """
    return statistics.median(r.latency_ms for r in latest_three(mset))


def per_cdn_median(website_medians: list[float]) -> float:
    """Collapse a vantage's per-website medians to its per-CDN latency.

    Even-length input takes the mean of the two middle values.
    """
    if not website_medians:
        raise EmptyInputError("no website medians")
    return statistics.median(website_medians)


def ecdf(values: list[float]) -> list[tuple[float, float]]:
    """Sorted (value, fraction ≤ value) pairs with ties collapsed."""
    if not values:
        raise EmptyInputError("no values")
    ordered = sorted(values)
    n = len(ordered)
    out = []
    for i, v in enumerate(ordered):
        if i + 1 == n or ordered[i + 1] != v:
            out.append((v, (i + 1) / n))
    return out


def distribution(points: list[LatencyPoint]) -> dict:
    """ECDF series per (metric, cdn, resolver, ip_version)."""
    if not points:
        raise EmptyInputError("no points")
    groups: dict = {}
    for p in points:
        key = (p.metric.value, p.cdn, p.resolver_label, p.ip_version.value)
        groups.setdefault(key, []).append(p.value)
    return {key: ecdf(vals) for key, vals in groups.items()}


@dataclass
class KsResult:
    d_statistic: float
    p_value: float
    n1: int
    n2: int


def _ks_d_numerator(a: list[float], b: list[float]) -> int:
    """max over pooled values of |i*n2 - j*n1| (i = #a ≤ v, j = #b ≤ v).

    Integer arithmetic so D = numerator/(n1*n2) is exact.
    """
    sa, sb = sorted(a), sorted(b)
    n1, n2 = len(sa), len(sb)
    best = 0
    for v in sorted(set(sa) | set(sb)):
        i = bisect_right(sa, v)
        j = bisect_right(sb, v)
        best = max(best, abs(i * n2 - j * n1))
    return best


def _ks_asymptotic_p(d: float, n1: int, n2: int) -> float:
    en = math.sqrt(n1 * n2 / (n1 + n2))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam == 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _ks_exact_p(a: list[float], b: list[float], d_num: int) -> float:
    """Exact permutation p-value: P(D >= observed) over all C(n1+n2, n1)
    assignments of the pooled values, tie-aware.

    Walks the pooled distinct values as blocks; a state is the number of
    a-items consumed, weighted by the ways to pick them inside tie blocks.
    Only boundary states within the strict band |i*n2 - j*n1| < d_num
    count toward 'less extreme'.
    """
    n1, n2 = len(a), len(b)
    pooled = sorted(set(a) | set(b))
    blocks = []
    for v in pooled:
        blocks.append((sum(1 for x in a if x == v), sum(1 for x in b if x == v)))
    # weights[i] = number of assignments so far ending with i a-items consumed
    weights = {0: 1}
    consumed = 0
    for ta, tb in blocks:
        t = ta + tb
        consumed += t
        nxt: dict[int, int] = {}
        for i, w in weights.items():
            for k in range(0, t + 1):
                ni = i + k
                if ni > n1 or (consumed - ni) > n2:
                    continue
                j = consumed - ni
                if abs(ni * n2 - j * n1) >= d_num:
                    continue
                nxt[ni] = nxt.get(ni, 0) + w * math.comb(t, k)
        weights = nxt
        if not weights:
            break
    allowed = weights.get(n1, 0)
    return 1.0 - allowed / math.comb(n1 + n2, n1)


def ks_two_sample(a: list[float], b: list[float], *, exact: bool = False) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is computed exactly (integer arithmetic over pooled ranks).  The
    p-value uses the asymptotic series with the standard small-sample
    correction; exact=True switches to full permutation enumeration,
    accepted only for samples of 12 or fewer each.
    """
    if not a or not b:
        raise EmptyInputError("both samples must be non-empty")
    n1, n2 = len(a), len(b)
    d_num = _ks_d_numerator(a, b)
    d = d_num / (n1 * n2)
    if exact:
        if max(n1, n2) > 12:
            raise ValueError("exact mode is limited to samples of 12 or fewer")
        p = _ks_exact_p(a, b, d_num) if d_num > 0 else 1.0
    else:
        p = _ks_asymptotic_p(d, n1, n2)
    return KsResult(d_statistic=d, p_value=p, n1=n1, n2=n2)


@dataclass
class RegionalBreakdown:
    # keyed by (metric, region, cdn, resolver_label, ip_version)
    medians: dict[tuple, float] = field(default_factory=dict)
    means: dict[tuple, float] = field(default_factory=dict)
    region_vantage_counts: dict[str, int] = field(default_factory=dict)


def region_of(geo: dict[str, str], vantage_id: str) -> str:
    """The region geo gives a vantage; "unassigned" when it gives none,
    null or an empty name."""
    return geo.get(vantage_id) or UNASSIGNED_REGION


def regional_breakdown(points: list[LatencyPoint]) -> RegionalBreakdown:
    """Medians per (metric, region, cdn, resolver, family), with the count
    of distinct vantages per region.  Means ride along for secondary
    reporting.
    """
    grouped: dict[tuple, list[float]] = {}
    region_vantages: dict[str, set] = {}
    for p in points:
        key = (p.metric, p.region, p.cdn, p.resolver_label, p.ip_version)
        grouped.setdefault(key, []).append(p.value)
        region_vantages.setdefault(p.region, set()).add(p.vantage_id)
    table = RegionalBreakdown()
    for key, values in grouped.items():
        table.medians[key] = statistics.median(values)
        table.means[key] = statistics.fmean(values)
    table.region_vantage_counts = {r: len(v) for r, v in region_vantages.items()}
    return table


@dataclass
class PenaltyRow:
    metric: Metric
    region: str
    cdn: str
    resolver_label: str
    v4_median: float
    v6_median: float
    delta: float
    exceeds_threshold: bool


def ipv6_penalty(
    points: list[LatencyPoint],
    threshold_ms: float = HAPPY_EYEBALLS_THRESHOLD_MS,
) -> list[PenaltyRow]:
    """IPv6 minus IPv4 median latency per (metric, region, cdn, resolver).

    Rows whose delta reaches threshold_ms are flagged (the conventional
    Happy-Eyeballs connection-attempt delay is 250 ms).  Keys with only
    one family present are skipped with a warning.
    """
    grouped: dict[tuple, dict[IpVersion, list[float]]] = {}
    for p in points:
        key = (p.metric, p.region, p.cdn, p.resolver_label)
        grouped.setdefault(key, {}).setdefault(p.ip_version, []).append(p.value)
    rows = []
    for key in sorted(grouped, key=lambda k: (k[0].value, k[1], k[2], k[3])):
        families = grouped[key]
        if IpVersion.V4 not in families or IpVersion.V6 not in families:
            log.warning("ipv6_penalty: key %s lacks both families, skipped", key)
            continue
        v4 = statistics.median(families[IpVersion.V4])
        v6 = statistics.median(families[IpVersion.V6])
        delta = v6 - v4
        rows.append(
            PenaltyRow(
                metric=key[0],
                region=key[1],
                cdn=key[2],
                resolver_label=key[3],
                v4_median=v4,
                v6_median=v6,
                delta=delta,
                exceeds_threshold=delta >= threshold_ms,
            )
        )
    return rows


@dataclass
class DiversityReport:
    website: str
    resolver_label: str
    ip_version: IpVersion
    unique_addresses: int
    address_frequency: dict[str, int]
    regional_purity: dict[str, float]
    anycast_like: bool


def address_diversity(
    sets: Iterable[MeasurementSet],
    *,
    geo: dict[str, str] | None = None,
) -> list[DiversityReport]:
    """Edge-address spread per (website, resolver, family), over usable sets.

    A set's edge is the address select_edge reads from its DNS answers; a
    usable set without one is skipped.  Regional purity is, per region
    (region_of(geo, vantage)), the share of that region's sets carrying
    the region's most common address: 1.0 means the region maps to one
    address, values near the global modal share mean the addresses are
    intermixed irrespective of geography.  A report is flagged
    anycast_like when at most ANYCAST_MAX_UNIQUE distinct addresses serve
    everyone.

    Each set's edge is folded into its group's address counts and
    per-region address counts, and the set is dropped.
    """
    geo = geo or {}
    # per (website, resolver, family)
    freq: dict[tuple, dict[str, int]] = {}
    by_region: dict[tuple, dict[str, dict[str, int]]] = {}
    for mset in sets:
        if not is_usable(mset):
            continue
        address = select_edge(mset.dns_results, mset.ip_version)
        if address is None:
            continue
        key = (mset.website, mset.resolver_label, mset.ip_version)
        counts = freq.setdefault(key, {})
        counts[address] = counts.get(address, 0) + 1
        counts = by_region.setdefault(key, {}).setdefault(region_of(geo, mset.vantage_id), {})
        counts[address] = counts.get(address, 0) + 1
    reports = []
    for key in sorted(freq, key=lambda k: (k[0], k[1], k[2].value)):
        website, resolver_label, ip_version = key
        purity = {
            region: max(counts.values()) / sum(counts.values())
            for region, counts in by_region[key].items()
        }
        reports.append(
            DiversityReport(
                website=website,
                resolver_label=resolver_label,
                ip_version=ip_version,
                unique_addresses=len(freq[key]),
                address_frequency=freq[key],
                regional_purity=purity,
                anycast_like=len(freq[key]) <= ANYCAST_MAX_UNIQUE,
            )
        )
    return reports


def build_latency_points(
    sets: Iterable[MeasurementSet],
    *,
    geo: dict[str, str] | None = None,
) -> list[LatencyPoint]:
    """Run the aggregation ladder over usable sets.

    For each (vantage, cdn, resolver, family): every usable website set
    yields a per-website DNS median (latest three) and a mapping median
    (handshake RTTs); the per-CDN median of those website values becomes
    the vantage's single point for each metric, in the region
    region_of(geo, vantage) names.  Each set is folded into its website's
    medians as it comes, and a later set for the same website replaces an
    earlier one.
    """
    geo = geo or {}
    ladder: dict[tuple, dict[str, dict[Metric, float]]] = {}
    for mset in sets:
        if not is_usable(mset):
            continue
        key = (mset.vantage_id, mset.cdn, mset.resolver_label, mset.ip_version)
        per_site = ladder.setdefault(key, {}).setdefault(mset.website, {})
        per_site[Metric.DNS] = per_website_median(mset)
        per_site[Metric.MAPPING] = mapping_latency(mset.handshake_results)
    points = []
    for (vantage_id, cdn, resolver_label, ip_version), sites in ladder.items():
        for metric in (Metric.DNS, Metric.MAPPING):
            values = [m[metric] for m in sites.values() if metric in m]
            if not values:
                continue
            points.append(
                LatencyPoint(
                    vantage_id=vantage_id,
                    cdn=cdn,
                    resolver_label=resolver_label,
                    ip_version=ip_version,
                    metric=metric,
                    value=per_cdn_median(values),
                    region=region_of(geo, vantage_id),
                )
            )
    return points


@dataclass
class HitRateRow:
    cdn: str
    resolver_label: str
    ip_version: IpVersion
    count: int
    hit_rate: float  # percent
    miss_rate: float
    unknown_rate: float
    median_hit_ms: float | None
    median_miss_ms: float | None
    median_unknown_ms: float | None


def hit_rate_table(
    sets: Iterable[MeasurementSet],
    auth_ttls: dict[str, int],
    *,
    quirks: dict[str, TtlQuirk] | None = None,
    convention: Convention = Convention.EQUAL_IS_HIT,
) -> list[HitRateRow]:
    """Cache verdict rates per (cdn, resolver, family), over usable sets.

    For each usable set, the median-latency response among the latest
    three supplies both the latency and the TTL that is classified (its
    first address record, or else its first answer), so verdict and
    latency always come from the same response; a set whose response has
    no answer is skipped.  auth_ttls is keyed by website, falling back to
    the set's CDN name; quirks maps resolver labels to their TTL quirk.

    Each set's latency is folded into its row's latencies per verdict, and
    the set is dropped.  Rates are percentages summing to 100 per row; a
    verdict with no sets reports rate 0 and a missing median (rendered
    "N/A" downstream).  Raises EmptyInputError when no set was classified.
    """
    quirks = quirks or {}
    groups: dict[tuple, dict[Verdict, list[float]]] = {}
    for mset in sets:
        if not is_usable(mset):
            continue
        auth = auth_ttls.get(mset.website, auth_ttls.get(mset.cdn))
        if auth is None:
            log.warning("no authoritative TTL for %s (%s), skipped", mset.website, mset.cdn)
            continue
        candidates = sorted(latest_three(mset), key=lambda r: r.latency_ms)
        median_response = candidates[len(candidates) // 2]
        answers = median_response.answers
        record = next((rec for rec in answers if rec.is_address), answers[0] if answers else None)
        if record is None:
            continue
        verdict = classify(
            record.ttl,
            auth,
            quirk=quirks.get(mset.resolver_label, TtlQuirk.NONE),
            convention=convention,
        )
        key = (mset.cdn, mset.resolver_label, mset.ip_version)
        by_verdict = groups.get(key)
        if by_verdict is None:
            by_verdict = groups[key] = {v: [] for v in Verdict}
        by_verdict[verdict].append(median_response.latency_ms)
    if not groups:
        raise EmptyInputError("no classified sets")
    rows = []
    for (cdn, resolver_label, ip_version), by_verdict in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)
    ):
        total = sum(map(len, by_verdict.values()))
        rows.append(
            HitRateRow(
                cdn=cdn,
                resolver_label=resolver_label,
                ip_version=ip_version,
                count=total,
                hit_rate=100.0 * len(by_verdict[Verdict.HIT]) / total,
                miss_rate=100.0 * len(by_verdict[Verdict.MISS]) / total,
                unknown_rate=100.0 * len(by_verdict[Verdict.UNKNOWN]) / total,
                median_hit_ms=_maybe_median(by_verdict[Verdict.HIT]),
                median_miss_ms=_maybe_median(by_verdict[Verdict.MISS]),
                median_unknown_ms=_maybe_median(by_verdict[Verdict.UNKNOWN]),
            )
        )
    return rows


def _maybe_median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None
