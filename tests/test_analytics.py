"""Aggregation ladder, distributions, K-S, regional tables, diversity, hit rates."""

import itertools
import random
import statistics

import pytest

from factories import make_response, make_set
from dnscdn.analytics import (
    UNASSIGNED_REGION,
    EmptyInputError,
    LatencyPoint,
    Metric,
    TooFewResultsError,
    address_diversity,
    build_latency_points,
    distribution,
    ecdf,
    hit_rate_table,
    ipv6_penalty,
    ks_two_sample,
    latest_three,
    per_cdn_median,
    per_website_median,
    region_of,
    regional_breakdown,
)
from dnscdn.cache import Convention, TtlQuirk, Verdict
from dnscdn.campaign import MeasurementSet
from dnscdn.mapping import HandshakeSample
from dnscdn.wire import IpVersion, RecordType, ResourceRecord


def median_oracle(values):
    """Sort-based median, written separately from statistics.median."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def ks_d_oracle(a, b):
    """sup |ECDF_a - ECDF_b| by direct counting at every pooled value."""
    best = 0.0
    for v in sorted(set(a) | set(b)):
        fa = sum(1 for x in a if x <= v) / len(a)
        fb = sum(1 for x in b if x <= v) / len(b)
        best = max(best, abs(fa - fb))
    return best


def ks_p_oracle(a, b):
    """Exact permutation p-value by enumerating every pooled assignment."""
    pool = a + b
    observed = ks_d_oracle(a, b)
    total = extreme = 0
    for picks in itertools.combinations(range(len(pool)), len(a)):
        chosen = set(picks)
        sa = [pool[i] for i in picks]
        sb = [pool[i] for i in range(len(pool)) if i not in chosen]
        total += 1
        if ks_d_oracle(sa, sb) >= observed - 1e-12:
            extreme += 1
    return extreme / total


class TestPerWebsiteMedian:
    def test_prewarm_first_excluded(self):
        mset = make_set(
            dns=((50.0, 1.0, True), (10.0, 16.0, False), (12.0, 16.1, False), (30.0, 16.2, False))
        )
        assert per_website_median(mset) == 12.0

    def test_prewarm_timestamped_last_pollutes_by_design(self):
        # the rule is "latest three by timestamp", nothing more; a prewarm
        # that lands with the newest timestamp stays in the window
        mset = make_set(
            dns=((10.0, 1.0, False), (12.0, 2.0, False), (30.0, 3.0, False), (50.0, 4.0, True))
        )
        assert per_website_median(mset) == 30.0

    def test_exactly_three(self):
        mset = make_set(dns=((9.0, 1.0, False), (9.0, 2.0, False), (9.0, 3.0, False)))
        assert per_website_median(mset) == 9.0

    def test_too_few_results(self):
        mset = make_set(dns=((9.0, 1.0, False), (9.0, 2.0, False)))
        with pytest.raises(TooFewResultsError):
            per_website_median(mset)

    def test_latest_three_ordering_is_by_timestamp(self):
        mset = make_set(
            dns=((50.0, 1.0, True), (10.0, 16.0, False), (12.0, 16.1, False), (30.0, 16.2, False))
        )
        assert [r.latency_ms for r in latest_three(mset)] == [10.0, 12.0, 30.0]

    def test_random_sets_match_sort_oracle(self):
        rng = random.Random(0xA11CE)
        for _ in range(200):
            count = rng.randint(3, 6)
            latencies = [round(rng.uniform(1, 200), 3) for _ in range(count)]
            dns = tuple(
                (lat, float(i + 1), i == 0 and rng.random() < 0.5)
                for i, lat in enumerate(latencies)
            )
            mset = make_set(dns=dns)
            assert per_website_median(mset) == median_oracle(latencies[-3:])


class TestPerCdnMedian:
    def test_odd_count(self):
        assert per_cdn_median([12.0, 8.0, 40.0]) == 12.0

    def test_even_count_means_the_middles(self):
        assert per_cdn_median([10.0, 20.0]) == 15.0

    def test_thirty_random_values_match_oracle(self):
        rng = random.Random(30)
        values = [rng.uniform(0, 500) for _ in range(30)]
        assert per_cdn_median(values) == median_oracle(values)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            per_cdn_median([])


class TestDistribution:
    def test_four_distinct_values(self):
        assert ecdf([1.0, 2.0, 3.0, 4.0]) == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]

    def test_single_point(self):
        assert ecdf([7.5]) == [(7.5, 1.0)]

    def test_ties_collapse(self):
        assert ecdf([2.0, 2.0, 4.0]) == [(2.0, 2 / 3), (4.0, 1.0)]

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            ecdf([])

    def test_monotone_and_terminates_at_one(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [rng.choice([1.0, 2.0, 5.0, 9.0]) for _ in range(rng.randint(1, 40))]
            series = ecdf(values)
            assert series[-1][1] == 1.0
            assert series == sorted(series)
            assert all(b[1] > a[1] for a, b in zip(series, series[1:]))

    def test_groups_do_not_mix(self):
        def point(cdn, value):
            return LatencyPoint(
                vantage_id="p", cdn=cdn, resolver_label="google",
                ip_version=IpVersion.V4, metric=Metric.DNS, value=value,
            )

        series = distribution([point("akamai", 1.0), point("fastly", 9.0)])
        assert series[("dns", "akamai", "google", "v4")] == [(1.0, 1.0)]
        assert series[("dns", "fastly", "google", "v4")] == [(9.0, 1.0)]


class TestKsTwoSample:
    def test_interleaved_pair_is_half(self):
        assert ks_two_sample([1.0, 3.0], [2.0, 4.0]).d_statistic == 0.5

    def test_identical_samples(self):
        result = ks_two_sample([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert result.d_statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_supports(self):
        result = ks_two_sample([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        assert result.d_statistic == 1.0

    def test_full_separation_at_eight_is_significant(self):
        result = ks_two_sample(list(map(float, range(8))), list(map(float, range(100, 108))))
        assert result.d_statistic == 1.0
        assert result.p_value < 0.01

    def test_twenty_point_separation_is_extreme(self):
        a = [10.0 + i * 0.1 for i in range(20)]
        b = [500.0 + i * 0.1 for i in range(20)]
        assert ks_two_sample(a, b).p_value < 1e-6

    def test_symmetry(self):
        rng = random.Random(88)
        for _ in range(50):
            a = [rng.gauss(30, 5) for _ in range(rng.randint(2, 25))]
            b = [rng.gauss(35, 5) for _ in range(rng.randint(2, 25))]
            fwd = ks_two_sample(a, b)
            rev = ks_two_sample(b, a)
            assert fwd.d_statistic == rev.d_statistic
            assert fwd.p_value == rev.p_value

    def test_monotone_transform_invariance(self):
        import math

        rng = random.Random(0xBEEF)
        transforms = [lambda x: 2 * x + 7, math.exp, lambda x: x ** 3, lambda x: -1 / (1 + x)]
        for _ in range(100):
            a = [rng.uniform(0, 10) for _ in range(rng.randint(2, 15))]
            b = [rng.uniform(2, 12) for _ in range(rng.randint(2, 15))]
            base = ks_two_sample(a, b)
            for fn in transforms:
                mapped = ks_two_sample([fn(x) for x in a], [fn(x) for x in b])
                assert mapped.d_statistic == base.d_statistic
                assert mapped.p_value == base.p_value

    def test_d_matches_counting_oracle(self):
        rng = random.Random(0xD)
        for _ in range(200):
            a = [rng.choice([1.0, 2.0, 3.0, 5.0, 8.0]) for _ in range(rng.randint(1, 12))]
            b = [rng.choice([1.0, 2.0, 4.0, 5.0, 9.0]) for _ in range(rng.randint(1, 12))]
            assert ks_two_sample(a, b).d_statistic == pytest.approx(ks_d_oracle(a, b), abs=1e-12)

    def test_exact_p_matches_permutation_oracle(self):
        cases = [
            ([1.0, 3.0], [2.0, 4.0]),
            ([1.0, 2.0, 2.0, 5.0], [2.0, 3.0, 4.0, 4.0]),
            ([10.0, 11.0, 12.0], [11.5, 12.5, 13.5, 14.5]),
            ([1.0, 1.0, 1.0], [1.0, 1.0]),
        ]
        rng = random.Random(0xE)
        for _ in range(10):
            cases.append(
                (
                    [rng.choice([1.0, 2.0, 3.0, 4.0]) for _ in range(rng.randint(2, 5))],
                    [rng.choice([2.0, 3.0, 4.0, 5.0]) for _ in range(rng.randint(2, 5))],
                )
            )
        for a, b in cases:
            got = ks_two_sample(a, b, exact=True).p_value
            assert got == pytest.approx(ks_p_oracle(a, b), abs=1e-12), (a, b)

    def test_exact_mode_size_cap(self):
        with pytest.raises(ValueError):
            ks_two_sample(list(map(float, range(13))), [1.0], exact=True)

    def test_empty_sample(self):
        with pytest.raises(EmptyInputError):
            ks_two_sample([], [1.0])
        with pytest.raises(EmptyInputError):
            ks_two_sample([1.0], [])

    def test_empty_input_is_the_cache_error(self):
        # The hit-rate table raises the one class every other empty input
        # raises, so one except clause covers empty input anywhere in the
        # analysis.
        with pytest.raises(EmptyInputError):
            hit_rate_table([], {"akamai": 20})


def dns_point(vantage, value, *, cdn="akamai", resolver="google",
              version=IpVersion.V4, metric=Metric.DNS, region=UNASSIGNED_REGION):
    return LatencyPoint(
        vantage_id=vantage, cdn=cdn, resolver_label=resolver,
        ip_version=version, metric=metric, value=value, region=region,
    )


class TestRegionalBreakdown:
    def test_planted_medians_and_counts(self):
        points = [dns_point(f"asia-{i}", 5.0, region="asia") for i in range(3)]
        points += [dns_point(f"eu-{i}", 50.0, region="europe") for i in range(2)]
        table = regional_breakdown(points)
        key_asia = (Metric.DNS, "asia", "akamai", "google", IpVersion.V4)
        key_eu = (Metric.DNS, "europe", "akamai", "google", IpVersion.V4)
        assert table.medians[key_asia] == 5.0
        assert table.medians[key_eu] == 50.0
        assert table.region_vantage_counts == {"asia": 3, "europe": 2}

    def test_single_region_equals_global(self):
        values = [3.0, 9.0, 27.0, 81.0, 243.0]
        points = [dns_point(f"p{i}", v, region="americas") for i, v in enumerate(values)]
        table = regional_breakdown(points)
        key = (Metric.DNS, "americas", "akamai", "google", IpVersion.V4)
        assert table.medians[key] == statistics.median(values)
        assert table.means[key] == pytest.approx(statistics.fmean(values))

    def test_unlisted_vantage_groups_as_unassigned(self):
        points = build_latency_points([make_set()], geo={"elsewhere": "asia"})
        table = regional_breakdown(points)
        assert list(table.region_vantage_counts) == ["unassigned"]

    @pytest.mark.parametrize("geo", [{}, {"p1": None}, {"p1": ""}], ids=["omitted", "null", "empty"])
    def test_region_of_falls_back_to_unassigned(self, geo):
        assert region_of(geo, "p1") == UNASSIGNED_REGION
        assert region_of({"p1": "asia"}, "p1") == "asia"


class TestIpv6Penalty:
    def test_modest_delta_not_flagged(self):
        points = [
            dns_point("p1", 12.80, version=IpVersion.V4, region="asia"),
            dns_point("p1", 18.34, version=IpVersion.V6, region="asia"),
        ]
        rows = ipv6_penalty(points)
        assert len(rows) == 1
        row = rows[0]
        assert row.v4_median == 12.80
        assert row.v6_median == 18.34
        assert row.delta == pytest.approx(5.54, abs=1e-9)
        assert not row.exceeds_threshold

    def test_equal_families_delta_zero(self):
        points = [
            dns_point("p1", 40.0, version=IpVersion.V4),
            dns_point("p1", 40.0, version=IpVersion.V6),
        ]
        assert ipv6_penalty(points)[0].delta == 0.0

    def test_large_delta_flagged(self):
        points = [
            dns_point("p1", 10.0, version=IpVersion.V4),
            dns_point("p1", 300.0, version=IpVersion.V6),
        ]
        row = ipv6_penalty(points, threshold_ms=250.0)[0]
        assert row.delta == 290.0
        assert row.exceeds_threshold

    def test_unpaired_key_skipped_with_warning(self, caplog):
        points = [dns_point("p1", 10.0, version=IpVersion.V4)]
        with caplog.at_level("WARNING", logger="dnscdn.analytics"):
            rows = ipv6_penalty(points)
        assert rows == []
        assert any("lacks both families" in rec.getMessage() for rec in caplog.records)

    def test_keys_separate_metrics(self):
        points = [
            dns_point("p1", 10.0, version=IpVersion.V4, metric=Metric.DNS),
            dns_point("p1", 20.0, version=IpVersion.V6, metric=Metric.DNS),
            dns_point("p1", 100.0, version=IpVersion.V4, metric=Metric.MAPPING),
            dns_point("p1", 400.0, version=IpVersion.V6, metric=Metric.MAPPING),
        ]
        rows = ipv6_penalty(points)
        deltas = {(r.metric, r.delta) for r in rows}
        assert deltas == {(Metric.DNS, 10.0), (Metric.MAPPING, 300.0)}


def edge_set(vantage, address, website="www.example.com", **kwargs):
    return make_set(vantage_id=vantage, website=website, address=address, **kwargs)


class TestAddressDiversity:
    def test_two_addresses_intermixed(self):
        rng = random.Random(21)
        pool = ["192.0.2.1", "192.0.2.2"]
        sets = [edge_set(f"p{i}", rng.choice(pool)) for i in range(100)]
        geo = {f"p{i}": rng.choice(["asia", "europe"]) for i in range(100)}
        report = address_diversity(sets, geo=geo)[0]
        assert report.unique_addresses == 2
        assert report.anycast_like
        assert sum(report.address_frequency.values()) == 100
        for region in ("asia", "europe"):
            regional = [s.handshake_results[0].address for s in sets if geo[s.vantage_id] == region]
            top = max(regional.count(a) for a in set(regional))
            assert report.regional_purity[region] == pytest.approx(top / len(regional))

    def test_exclusive_region_addresses_have_purity_one(self):
        sets = [edge_set(f"a{i}", "192.0.2.1") for i in range(10)]
        sets += [edge_set(f"e{i}", "192.0.2.2") for i in range(10)]
        geo = {s.vantage_id: "asia" if s.vantage_id.startswith("a") else "europe" for s in sets}
        report = address_diversity(sets, geo=geo)[0]
        assert report.regional_purity == {"asia": 1.0, "europe": 1.0}
        assert report.unique_addresses == 2

    def test_fiftythree_addresses_is_not_anycast_like(self):
        sets = [edge_set(f"p{i}", f"198.51.100.{i + 1}") for i in range(53)]
        report = address_diversity(sets)[0]
        assert report.unique_addresses == 53
        assert not report.anycast_like
        assert report.regional_purity == {UNASSIGNED_REGION: pytest.approx(1 / 53)}

    def test_groups_split_by_website(self):
        sets = [
            edge_set("p1", "192.0.2.1", website="a.example"),
            edge_set("p1", "192.0.2.2", website="b.example"),
        ]
        reports = address_diversity(sets)
        assert [r.website for r in reports] == ["a.example", "b.example"]

    def test_edge_is_the_first_address_of_the_earliest_query(self):
        mset = edge_set("p1", "192.0.2.1")
        mset.dns_results[1].answers.insert(
            0, ResourceRecord(name="www.example.com", rtype=1, ttl=60, rdata="192.0.2.9")
        )
        assert address_diversity([mset])[0].address_frequency == {"192.0.2.9": 1}

    def test_unusable_set_is_not_counted(self):
        usable = edge_set("p1", "192.0.2.1")
        two_handshakes = edge_set("p2", "192.0.2.2", handshakes=(25.0, 25.5))
        report = address_diversity([usable, two_handshakes])[0]
        assert report.address_frequency == {"192.0.2.1": 1}
        assert report.unique_addresses == 1

    def test_usable_set_without_an_address_answer_is_skipped(self):
        cname_only = edge_set("p2", "192.0.2.2")
        for response in cname_only.dns_results:
            response.answers = [
                ResourceRecord(name="www.example.com", rtype=5, ttl=60, rdata="x.cdn.example")
            ]
        report = address_diversity([edge_set("p1", "192.0.2.1"), cname_only])[0]
        assert report.address_frequency == {"192.0.2.1": 1}


class TestBuildLatencyPoints:
    def _site_set(self, website, dns_latencies, handshake_rtts, **kwargs):
        dns = tuple((lat, 16.0 + i / 10, False) for i, lat in enumerate(dns_latencies))
        return make_set(website=website, dns=dns, handshakes=handshake_rtts, **kwargs)

    def test_ladder_produces_one_point_per_key_and_metric(self):
        sets = [
            self._site_set("a.example", (10.0, 12.0, 14.0), (25.0, 25.5, 24.5)),
            self._site_set("b.example", (18.0, 20.0, 22.0), (29.0, 30.0, 31.0)),
        ]
        points = build_latency_points(sets)
        assert len(points) == 2
        by_metric = {p.metric: p for p in points}
        # per-website medians 12 and 20 -> per-CDN median 16
        assert by_metric[Metric.DNS].value == 16.0
        # handshake medians 25 and 30 -> 27.5
        assert by_metric[Metric.MAPPING].value == 27.5
        keys = {(p.vantage_id, p.cdn, p.resolver_label, p.ip_version, p.metric) for p in points}
        assert len(keys) == len(points)

    def test_unusable_sets_contribute_nothing(self):
        broken = make_set(dns=((10.0, 16.0, False), (11.0, 16.1, False)))
        assert build_latency_points([broken]) == []

    def test_geo_annotates_points(self):
        points = build_latency_points([make_set()], geo={"probe-1": "asia"})
        assert all(p.region == "asia" for p in points)

    def test_families_stay_separate(self):
        sets = [
            make_set(ip_version=IpVersion.V4),
            make_set(ip_version=IpVersion.V6),
        ]
        points = build_latency_points(sets)
        assert {p.ip_version for p in points} == {IpVersion.V4, IpVersion.V6}
        assert len(points) == 4


class TestClassifySets:
    def _set_with_ttls(self, latency_ttl_pairs, website="www.example.com"):
        """latest-three responses with chosen (latency, ttl) pairs."""
        responses = [
            make_response(lat, 16.0 + i / 10, qname=website, ttl=ttl)
            for i, (lat, ttl) in enumerate(latency_ttl_pairs)
        ]
        return MeasurementSet(
            vantage_id="p1", website=website, cdn="akamai",
            resolver_label="google", ip_version=IpVersion.V4,
            dns_results=responses,
            handshake_results=[
                HandshakeSample(address="192.0.2.1", port=443, rtt_ms=20.0, success=True)
            ] * 3,
        )

    def test_ttl_and_latency_come_from_the_same_response(self):
        # median-latency response (11ms) carries the only matching TTL
        mset = self._set_with_ttls([(10.0, 19), (11.0, 20), (12.0, 19)])
        (row,) = hit_rate_table([mset], {"akamai": 20})
        assert row.hit_rate == 100.0
        assert row.median_hit_ms == 11.0

    def test_first_address_record_is_classified(self):
        cname = ResourceRecord("www.example.com", int(RecordType.CNAME), 99, "edge.example.net")
        address = ResourceRecord("edge.example.net", int(RecordType.A), 20, "192.0.2.1")
        mset = make_set()
        for result in mset.dns_results:
            result.answers = [cname, address]
        (row,) = hit_rate_table([mset], {"akamai": 20})
        assert row.hit_rate == 100.0

    def test_set_without_answers_is_skipped(self):
        silent = make_set()
        for result in silent.dns_results:
            result.answers = []
        (row,) = hit_rate_table([silent, make_set(ttl=20)], {"akamai": 20})
        assert row.count == 1

    def test_website_ttl_overrides_cdn_ttl(self):
        mset = self._set_with_ttls([(10.0, 30), (11.0, 30), (12.0, 30)])
        (row,) = hit_rate_table([mset], {"www.example.com": 30, "akamai": 20})
        assert row.hit_rate == 100.0

    def test_quirk_applies_per_resolver_label(self):
        mset = self._set_with_ttls([(10.0, 19), (11.0, 19), (12.0, 19)])
        (row,) = hit_rate_table(
            [mset],
            {"akamai": 20},
            quirks={"google": TtlQuirk.GOOGLE_DECREMENT},
            convention=Convention.EQUAL_IS_MISS,
        )
        assert row.miss_rate == 100.0

    def test_missing_ttl_reference_skips_set(self, caplog):
        mset = self._set_with_ttls([(10.0, 20), (11.0, 20), (12.0, 20)])
        with caplog.at_level("WARNING", logger="dnscdn.analytics"):
            with pytest.raises(EmptyInputError):
                hit_rate_table([mset], {"fastly": 30})
        assert any("no authoritative TTL" in rec.getMessage() for rec in caplog.records)

    def test_unusable_sets_skipped(self):
        broken = make_set(dns=((10.0, 16.0, False), (11.0, 16.1, False)))
        (row,) = hit_rate_table([broken, make_set(ttl=5)], {"akamai": 20})
        assert (row.count, row.miss_rate) == (1, 100.0)


AUTH_TTL = 20
VERDICT_TTLS = {Verdict.HIT: AUTH_TTL, Verdict.MISS: 5, Verdict.UNKNOWN: 25}


def classified_set(verdict, latency, cdn="akamai", resolver="google", version=IpVersion.V4):
    """A usable set whose latest three all take latency ms and read as verdict."""
    return make_set(
        cdn=cdn,
        resolver_label=resolver,
        ip_version=version,
        dns=((latency, 1.0, True), (latency, 16.0, False), (latency, 16.1, False), (latency, 16.2, False)),
        ttl=VERDICT_TTLS[verdict],
    )


def table(sets):
    return hit_rate_table(sets, {"akamai": AUTH_TTL, "fastly": AUTH_TTL})


class TestHitRateTable:
    def test_three_hits_one_miss(self):
        sets = [
            classified_set(Verdict.HIT, 9.0),
            classified_set(Verdict.HIT, 10.0),
            classified_set(Verdict.HIT, 11.0),
            classified_set(Verdict.MISS, 40.0),
        ]
        (row,) = table(sets)
        assert row.count == 4
        assert row.hit_rate == 75.0
        assert row.miss_rate == 25.0
        assert row.unknown_rate == 0.0
        assert row.median_hit_ms == 10.0
        assert row.median_miss_ms == 40.0
        assert row.median_unknown_ms is None

    def test_all_hits(self):
        (row,) = table([classified_set(Verdict.HIT, 5.0), classified_set(Verdict.HIT, 6.0)])
        assert (row.hit_rate, row.miss_rate, row.unknown_rate) == (100.0, 0.0, 0.0)
        assert row.median_miss_ms is None

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            table([])

    def test_keys_separate_rows(self):
        sets = [
            classified_set(Verdict.HIT, 5.0, resolver="google"),
            classified_set(Verdict.MISS, 6.0, resolver="quad9"),
            classified_set(Verdict.HIT, 6.0, resolver="google", version=IpVersion.V6),
        ]
        rows = table(sets)
        assert len(rows) == 3
        keys = {(r.cdn, r.resolver_label, r.ip_version) for r in rows}
        assert ("akamai", "quad9", IpVersion.V4) in keys

    def test_random_corpus_matches_counting_oracle(self):
        rng = random.Random(99)
        verdicts = [Verdict.HIT, Verdict.MISS, Verdict.UNKNOWN]
        sets = []
        planted = {}
        for _ in range(2000):
            cdn = rng.choice(["akamai", "fastly"])
            resolver = rng.choice(["google", "quad9"])
            version = rng.choice([IpVersion.V4, IpVersion.V6])
            verdict = rng.choice(verdicts)
            key = (cdn, resolver, version)
            planted.setdefault(key, {v: 0 for v in verdicts})
            planted[key][verdict] += 1
            sets.append(classified_set(verdict, rng.uniform(1, 50), cdn, resolver, version))
        rows = table(sets)
        assert {(r.cdn, r.resolver_label, r.ip_version) for r in rows} == set(planted)
        for row in rows:
            counts = planted[(row.cdn, row.resolver_label, row.ip_version)]
            total = sum(counts.values())
            assert row.count == total
            assert row.hit_rate == 100.0 * counts[Verdict.HIT] / total
            assert row.miss_rate == 100.0 * counts[Verdict.MISS] / total
            assert row.unknown_rate == 100.0 * counts[Verdict.UNKNOWN] / total
            assert abs(row.hit_rate + row.miss_rate + row.unknown_rate - 100.0) < 1e-9
