"""Tour the analysis pipeline on a synthetic corpus with known answers.

Eighty pretend vantage points across two regions measure one website
through two resolvers. The latencies are drawn around planted medians,
so every table printed below can be checked against the numbers at the
top of the file.

Run:  python3 demos/04_analytics_tour.py
"""

import random

from dnscdn.analytics import (
    Metric,
    build_latency_points,
    ipv6_penalty,
    ks_two_sample,
    regional_breakdown,
)
from dnscdn.campaign import MeasurementSet
from dnscdn.mapping import HandshakeSample
from dnscdn.resolve import TimedDnsResponse
from dnscdn.wire import DnsQuestion, IpVersion, RecordType, ResourceRecord

# Planted per-region DNS medians (ms): IPv6 carries a small penalty in
# "asia" and none in "europe". The "slowpoke" resolver adds 40 ms flat.
PLAN = {
    ("asia", IpVersion.V4): 12.0,
    ("asia", IpVersion.V6): 18.0,
    ("europe", IpVersion.V4): 9.0,
    ("europe", IpVersion.V6): 9.0,
}
REGION_SIZES = {"asia": 50, "europe": 30}
WEBSITE = "www.demo.example"


def synthetic_set(rng, vantage, resolver, version, base_ms):
    """One measurement set: prewarm + three timed queries + handshakes."""
    qtype = RecordType.A if version is IpVersion.V4 else RecordType.AAAA
    address = "192.0.2.1" if version is IpVersion.V4 else "2001:db8::1"
    answer = [ResourceRecord(name=WEBSITE, rtype=int(qtype), ttl=20, rdata=address)]
    question = DnsQuestion(
        qname=WEBSITE,
        qtype=qtype,
        resolver_address="127.0.0.1",
        transport_version=IpVersion.V4,
    )
    results = []
    for i, prewarm in enumerate([True, False, False, False]):
        jitter = 0.0 if i == 2 else rng.uniform(-3.0, 3.0)  # keep the median planted
        results.append(
            TimedDnsResponse(
                question=question,
                rcode=0,
                answers=answer,
                latency_ms=(base_ms * 3 if prewarm else base_ms + jitter),
                sent_at_monotonic=float(i),
                sent_at_wall=1_700_000_000.0 + i,
                is_prewarm=prewarm,
            )
        )
    handshakes = [
        HandshakeSample(address=address, port=443, rtt_ms=base_ms * 2 + rng.uniform(-2, 2), success=True)
        for _ in range(3)
    ]
    return MeasurementSet(
        vantage_id=vantage,
        website=WEBSITE,
        cdn="demo-cdn",
        resolver_label=resolver,
        ip_version=version,
        dns_results=results,
        handshake_results=handshakes,
        created_at=1_700_000_000.0,
    )


def main():
    rng = random.Random(7)
    geo, sets = {}, []
    for region, count in REGION_SIZES.items():
        for i in range(count):
            vantage = f"{region}-{i:02d}"
            geo[vantage] = region
            for version in (IpVersion.V4, IpVersion.V6):
                base = PLAN[(region, version)]
                sets.append(synthetic_set(rng, vantage, "fastdns", version, base))
                sets.append(synthetic_set(rng, vantage, "slowpoke", version, base + 40.0))

    points = build_latency_points(sets, geo=geo)
    print(f"{len(sets)} sets -> {len(points)} latency points\n")

    table = regional_breakdown(points)
    print("Regional DNS medians (planted values in the PLAN table up top):")
    for key in sorted(table.medians, key=lambda k: (k[0].value, k[1], k[3], k[4].value)):
        metric, region, _, resolver, version = key
        if metric is not Metric.DNS:
            continue
        print(
            f"  {region:<7} {resolver:<9} {version.value}: "
            f"median {table.medians[key]:6.2f} ms  "
            f"({table.region_vantage_counts[region]} vantages)"
        )

    print("\nIPv6 penalty per region (threshold 250 ms, so nothing is flagged):")
    for row in ipv6_penalty(points, 250.0):
        if row.metric is not Metric.DNS:
            continue
        print(
            f"  {row.region:<7} {row.resolver_label:<9} "
            f"v4 {row.v4_median:6.2f}  v6 {row.v6_median:6.2f}  "
            f"delta {row.delta:+6.2f} ms  flagged={row.exceeds_threshold}"
        )

    fast = [p.value for p in points if p.resolver_label == "fastdns" and p.metric is Metric.DNS]
    slow = [p.value for p in points if p.resolver_label == "slowpoke" and p.metric is Metric.DNS]
    verdict = ks_two_sample(fast, slow)
    print(
        f"\nK-S on fastdns vs slowpoke DNS points: D={verdict.d_statistic:.3f}, "
        f"p={verdict.p_value:.2e}  (a 40 ms flat offset is unmissable)"
    )
    same = ks_two_sample(fast, list(fast))
    print(f"K-S on fastdns vs itself:              D={same.d_statistic:.3f}, p={same.p_value:.2f}")


if __name__ == "__main__":
    main()
