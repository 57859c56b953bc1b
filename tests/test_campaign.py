"""Measurement-set orchestration and the usable/complete/fill-in rules."""

import functools
import random

import pytest

import mocknet
from factories import make_response, make_set
from dnscdn.analytics import build_latency_points
from dnscdn.campaign import (
    MeasurementSet,
    MeasurementSpec,
    ResolverEntry,
    completeness_filter,
    fill_in,
    is_usable,
    run_campaign,
    run_measurement_set,
)
from dnscdn.mapping import HandshakeFailure, HandshakeSample, measure_handshake
from dnscdn.wire import IpVersion

JITTER_MS = 5.0

WEBSITE = ("akamai", "www.wide.example")
RESOLVER = ResolverEntry("local", "127.0.0.1", "::1")


def loopback_spec(server, **overrides):
    defaults = dict(
        websites=[WEBSITE],
        resolvers=[RESOLVER],
        per_query_timeout_ms=2000.0,
        resolver_port=server.port,
    )
    defaults.update(overrides)
    return MeasurementSpec(**defaults)


def ok_handshake(address, port, timeout_ms=0.0):
    return HandshakeSample(address=address, port=port, rtt_ms=21.0, success=True)


class TestMeasurementSpec:
    def test_single_dns_repeat_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], dns_repeats=1)

    def test_two_repeats_is_the_floor(self):
        spec = MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], dns_repeats=2)
        assert spec.dns_repeats == 2

    def test_zero_handshakes_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], handshake_repeats=0)

    def test_resolver_needs_both_families(self):
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[ResolverEntry("half", "8.8.8.8", "")])
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[ResolverEntry("swapped", "::1", "127.0.0.1")])

    def test_lookup_helpers(self):
        spec = MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER])
        assert spec.website_by_name("www.wide.example") == WEBSITE
        assert spec.resolver_by_label("local") == RESOLVER
        with pytest.raises(KeyError):
            spec.website_by_name("nope.example")
        with pytest.raises(KeyError):
            spec.resolver_by_label("nope")


class TestMeasurementSetInvariants:
    def test_timestamps_must_strictly_increase(self):
        results = [make_response(10.0, 5.0), make_response(11.0, 5.0)]
        with pytest.raises(ValueError):
            MeasurementSet(
                vantage_id="p", website="w", cdn="akamai",
                resolver_label="r", ip_version=IpVersion.V4, dns_results=results,
            )

    def test_at_most_one_prewarm(self):
        results = [make_response(10.0, 1.0, prewarm=True), make_response(11.0, 2.0, prewarm=True)]
        with pytest.raises(ValueError):
            MeasurementSet(
                vantage_id="p", website="w", cdn="akamai",
                resolver_label="r", ip_version=IpVersion.V4, dns_results=results,
            )

    def test_factory_set_is_valid(self):
        mset = make_set()
        assert mset.key == ("probe-1", "www.example.com", "google", IpVersion.V4)


class TestRunMeasurementSet:
    def test_full_set_shape_and_timing(self):
        script = mocknet.constant_script([("www.wide.example", mocknet.A, 20, "127.0.0.1")])
        gaps = []
        with mocknet.MockDnsServer(script, delay_ms=20.0) as server:
            mset = run_measurement_set(
                loopback_spec(server),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                vantage_id="probe-7",
                handshake_fn=ok_handshake,
                sleep_fn=gaps.append,
            )
        assert len(mset.dns_results) == 4
        assert mset.dns_results[0].is_prewarm
        assert sum(1 for r in mset.dns_results if r.is_prewarm) == 1
        for result in mset.dns_results:
            assert 20.0 <= result.latency_ms <= 20.0 + JITTER_MS
        assert gaps == [15.0]
        assert len(mset.handshake_results) == 3
        assert mset.key == ("probe-7", "www.wide.example", "local", IpVersion.V4)
        assert mset.cdn == "akamai"

    def test_dropped_query_leaves_a_gap(self):
        def script(qname, qtype, count):
            if count == 2:  # second post-prewarm query vanishes
                return None
            return mocknet.MockReply(answers=[(qname, mocknet.A, 20, "127.0.0.1")])

        with mocknet.MockDnsServer(script) as server:
            mset = run_measurement_set(
                loopback_spec(server, per_query_timeout_ms=300.0),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                handshake_fn=ok_handshake,
                sleep_fn=lambda s: None,
            )
        assert len(mset.dns_results) == 3
        assert sum(1 for r in mset.dns_results if r.is_prewarm) == 1

    def test_dropped_prewarm_leaves_unflagged_results(self):
        def script(qname, qtype, count):
            if count == 0:
                return None
            return mocknet.MockReply(answers=[(qname, mocknet.A, 20, "127.0.0.1")])

        with mocknet.MockDnsServer(script) as server:
            mset = run_measurement_set(
                loopback_spec(server, per_query_timeout_ms=300.0),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                handshake_fn=ok_handshake,
                sleep_fn=lambda s: None,
            )
        assert len(mset.dns_results) == 3
        assert not any(r.is_prewarm for r in mset.dns_results)

    def test_v6_transport_and_answers(self):
        script = mocknet.constant_script([("www.wide.example", mocknet.AAAA, 20, "2001:db8::7")])
        with mocknet.MockDnsServer(script, host="::1") as server:
            mset = run_measurement_set(
                loopback_spec(server),
                WEBSITE,
                RESOLVER,
                IpVersion.V6,
                handshake_fn=ok_handshake,
                sleep_fn=lambda s: None,
            )
        assert len(mset.dns_results) == 4
        assert mset.ip_version is IpVersion.V6
        assert mset.handshake_results[0].address == "2001:db8::7"

    def test_no_address_answer_skips_handshakes(self):
        script = mocknet.constant_script(
            [("www.wide.example", mocknet.CNAME, 300, "edge.cdn.example")]
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("handshake attempted with no edge address")

        with mocknet.MockDnsServer(script) as server:
            mset = run_measurement_set(
                loopback_spec(server),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                handshake_fn=forbidden,
                sleep_fn=lambda s: None,
            )
        assert len(mset.dns_results) == 4
        assert mset.handshake_results == []

    def test_full_stack_with_real_handshakes(self):
        """DNS delayed 20ms, TCP connect delayed 25ms, both recovered."""
        script = mocknet.constant_script([("www.wide.example", mocknet.A, 20, "127.0.0.1")])
        handshake_fn = functools.partial(
            measure_handshake, socket_factory=mocknet.delayed_socket_factory(25.0)
        )
        with mocknet.MockDnsServer(script, delay_ms=20.0) as server, mocknet.MockTcpListener() as edge:
            mset = run_measurement_set(
                loopback_spec(server, handshake_port=edge.port),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                handshake_fn=handshake_fn,
                sleep_fn=lambda s: None,
            )
        assert len(mset.handshake_results) == 3
        for sample in mset.handshake_results:
            assert 25.0 <= sample.rtt_ms <= 25.0 + JITTER_MS
            assert sample.port == edge.port


class TestIsUsable:
    def test_four_dns_three_handshakes(self):
        assert is_usable(make_set())

    def test_three_dns_still_usable(self):
        mset = make_set(dns=((10.0, 16.0, False), (11.0, 16.1, False), (12.0, 16.2, False)))
        assert is_usable(mset)

    def test_two_dns_is_not(self):
        mset = make_set(dns=((10.0, 16.0, False), (11.0, 16.1, False)))
        assert not is_usable(mset)

    def test_missing_handshake_is_not(self):
        assert not is_usable(make_set(handshakes=(25.0, 24.0)))

    def test_prewarm_counts_toward_the_three(self):
        mset = make_set(dns=((30.0, 1.0, True), (10.0, 16.0, False), (11.0, 16.1, False)))
        assert is_usable(mset)

    def test_failed_handshake_samples_do_not_count(self):
        # Atlas imports and hand-made files may store failed samples.
        mset = make_set()
        mset.handshake_results = [
            HandshakeSample(
                address="192.0.2.1", port=443, rtt_ms=None, success=False,
                error_kind=HandshakeFailure.TIMEOUT,
            )
            for _ in range(3)
        ]
        assert not is_usable(mset)
        assert build_latency_points([mset]) == []


def usable_set(vantage, website, resolver, version, cdn="akamai"):
    return make_set(
        vantage_id=vantage, website=website, cdn=cdn,
        resolver_label=resolver, ip_version=version,
    )


def broken_set(vantage, website, resolver, version, cdn="akamai"):
    return make_set(
        vantage_id=vantage, website=website, cdn=cdn,
        resolver_label=resolver, ip_version=version,
        dns=((10.0, 16.0, False), (11.0, 16.1, False)),
    )


class TestCompletenessFilter:
    def test_pair_needs_every_resolver_family_combo(self):
        sets = []
        for resolver in ("google", "cloudflare"):
            for version in (IpVersion.V4, IpVersion.V6):
                sets.append(usable_set("p1", "a.example", resolver, version))
        # b.example misses cloudflare/v6 entirely
        sets += [
            usable_set("p1", "b.example", "google", IpVersion.V4),
            usable_set("p1", "b.example", "google", IpVersion.V6),
            usable_set("p1", "b.example", "cloudflare", IpVersion.V4),
        ]
        retained = completeness_filter(sets, {"akamai": 1})
        assert retained == {("p1", "a.example")}

    def test_unusable_set_breaks_completeness_like_a_missing_one(self):
        sets = [
            usable_set("p1", "a.example", "google", IpVersion.V4),
            broken_set("p1", "a.example", "google", IpVersion.V6),
        ]
        assert completeness_filter(sets, {"akamai": 1}) == set()

    def test_threshold_boundary_thirty_keeps_twentynine_drops(self):
        sets = []
        for i in range(30):
            sets.append(usable_set("keeper", f"site{i}.example", "google", IpVersion.V4))
        for i in range(29):
            sets.append(usable_set("dropper", f"site{i}.example", "google", IpVersion.V4))
        retained = completeness_filter(sets, {"akamai": 30})
        assert len(retained) == 30
        assert {vantage for vantage, _ in retained} == {"keeper"}

    def test_dropped_vantage_loses_even_complete_pairs(self):
        sets = [usable_set("small", f"s{i}.example", "google", IpVersion.V4) for i in range(5)]
        assert completeness_filter(sets, {"akamai": 6}) == set()

    def test_thresholds_apply_per_cdn(self):
        sets = [
            usable_set("p1", f"a{i}.example", "google", IpVersion.V4, cdn="akamai")
            for i in range(3)
        ]
        assert completeness_filter(sets, {"akamai": 3, "fastly": 1}) == set()
        sets.append(usable_set("p1", "f.example", "google", IpVersion.V4, cdn="fastly"))
        retained = completeness_filter(sets, {"akamai": 3, "fastly": 1})
        assert len(retained) == 4

    def test_empty_corpus(self):
        assert completeness_filter([], {"akamai": 1}) == set()


SPEC = MeasurementSpec(
    websites=[("akamai", "www.example.com")],
    resolvers=[ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888")],
)


class TestFillIn:
    def test_usable_retry_replaces_wholesale(self):
        original = broken_set("p1", "www.example.com", "google", IpVersion.V4)
        replacement = usable_set("p1", "www.example.com", "google", IpVersion.V4)

        def run_fn(spec, website, resolver, version, **kwargs):
            assert website == ("akamai", "www.example.com")
            assert resolver.label == "google"
            assert kwargs["vantage_id"] == "p1"
            return replacement

        out = fill_in([original], SPEC, run_fn=run_fn)
        assert out == [replacement]
        assert out[0] is replacement
        assert not original.failed_twice

    def test_usable_sets_are_not_retried(self):
        original = usable_set("p1", "www.example.com", "google", IpVersion.V4)

        def run_fn(*args, **kwargs):
            raise AssertionError("retried a usable set")

        assert fill_in([original], SPEC, run_fn=run_fn) == [original]

    def test_double_failure_marks_the_original(self):
        original = broken_set("p1", "www.example.com", "google", IpVersion.V4)
        retry = broken_set("p1", "www.example.com", "google", IpVersion.V4)
        out = fill_in([original], SPEC, run_fn=lambda *a, **k: retry)
        assert out == [original]
        assert original.failed_twice

    def test_combo_outside_spec_is_kept_with_warning(self, caplog):
        original = broken_set("p1", "legacy.example", "google", IpVersion.V4)
        with caplog.at_level("WARNING", logger="dnscdn.campaign"):
            out = fill_in([original], SPEC, run_fn=lambda *a, **k: None)
        assert out == [original]
        assert any("legacy.example" in rec.getMessage() for rec in caplog.records)


class TestRunCampaign:
    WEBSITES = [("akamai", f"w{i}.example") for i in range(6)]
    RESOLVERS = [
        ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888"),
        ResolverEntry("quad9", "9.9.9.9", "2620:fe::fe"),
    ]

    def _spec(self):
        return MeasurementSpec(websites=self.WEBSITES, resolvers=self.RESOLVERS)

    @staticmethod
    def _recording_run_fn(order):
        def run_fn(spec, website, resolver, version, vantage_id="local", **kwargs):
            order.append((website[1], resolver.label, version))
            return MeasurementSet(
                vantage_id=vantage_id,
                website=website[1],
                cdn=website[0],
                resolver_label=resolver.label,
                ip_version=version,
            )

        return run_fn

    def test_covers_every_combination_once(self):
        order = []
        sets = run_campaign(self._spec(), rng=random.Random(1), run_fn=self._recording_run_fn(order))
        assert len(sets) == 6 * 2 * 2
        assert len(set(order)) == len(order)

    def test_seeded_order_is_reproducible(self):
        first, second = [], []
        run_campaign(self._spec(), rng=random.Random(7), run_fn=self._recording_run_fn(first))
        run_campaign(self._spec(), rng=random.Random(7), run_fn=self._recording_run_fn(second))
        assert first == second

    def test_website_order_is_shuffled_per_resolver(self):
        order = []
        run_campaign(self._spec(), rng=random.Random(0), run_fn=self._recording_run_fn(order))
        per_resolver = {}
        for website, resolver, version in order:
            if version is IpVersion.V4:
                per_resolver.setdefault(resolver, []).append(website)
        assert set(per_resolver["google"]) == set(per_resolver["quad9"])
        assert per_resolver["google"] != per_resolver["quad9"]

    def test_fanout_covers_the_same_combinations(self):
        serial_order, pooled_order = [], []
        serial = run_campaign(
            self._spec(), rng=random.Random(3), run_fn=self._recording_run_fn(serial_order)
        )
        pooled = run_campaign(
            self._spec(), rng=random.Random(3), fanout=4, run_fn=self._recording_run_fn(pooled_order)
        )
        assert {s.key for s in serial} == {s.key for s in pooled}
        assert len(pooled) == len(serial)


def test_malformed_reply_leaves_a_gap_instead_of_aborting():
    broken = "www.broken.example"

    def script(qname, qtype, count):
        if qname == broken:
            return mocknet.MockReply(raw_tail=b"\x81\x80\x00\x01")  # 6 bytes with the txid
        return mocknet.MockReply(answers=[(qname, mocknet.A, 20, "127.0.0.1")])

    with mocknet.MockDnsServer(script) as server:
        spec = loopback_spec(
            server, websites=[WEBSITE, ("akamai", broken)], per_query_timeout_ms=300.0
        )
        sets = run_campaign(spec, handshake_fn=ok_handshake, sleep_fn=lambda s: None)
    v4 = {s.website: s for s in sets if s.ip_version is IpVersion.V4}
    assert len(sets) == 4
    assert v4[broken].dns_results == []
    assert len(v4["www.wide.example"].dns_results) == 4
    assert is_usable(v4["www.wide.example"])
