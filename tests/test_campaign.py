"""Measurement-set orchestration and the usable/complete/fill-in rules."""

import contextlib
import functools
import logging
import random
import socket
import statistics
import time

import pytest

import mocknet
from factories import make_response, make_set
from dnscdn import campaign, resolve
from dnscdn.analytics import build_latency_points, latest_three
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
        prewarm_gap_s=0.0,
        per_query_timeout_ms=2000.0,
        resolver_port=server.port,
    )
    defaults.update(overrides)
    return MeasurementSpec(**defaults)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def gap_s(mset):
    """Seconds from the prewarm's answer to the first query after it."""
    prewarm, first = mset.dns_results[:2]
    return first.sent_at_monotonic - (prewarm.sent_at_monotonic + prewarm.latency_ms / 1000.0)


def ok_handshake(address, port, timeout_ms=0.0):
    return HandshakeSample(address=address, port=port, rtt_ms=21.0, success=True)


class TestMeasurementSpec:
    def test_single_dns_repeat_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], dns_repeats=1)

    def test_two_repeats_is_the_floor(self):
        spec = MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], dns_repeats=2)
        assert spec.dns_repeats == 2

    @pytest.mark.parametrize("repeats", [0, 1, 2])
    def test_zero_handshakes_rejected(self, repeats):
        # is_usable needs three successful handshakes.
        with pytest.raises(ValueError, match="usable"):
            MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER], handshake_repeats=repeats)

    @pytest.mark.parametrize(
        "hostname", ["a..b", "x" * 64 + ".example", ""], ids=["empty-label", "long-label", "empty"]
    )
    def test_website_that_is_not_a_dns_name_rejected(self, hostname):
        with pytest.raises(ValueError, match="website"):
            MeasurementSpec(websites=[("akamai", hostname)], resolvers=[RESOLVER])

    def test_resolver_needs_both_families(self):
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[ResolverEntry("half", "8.8.8.8", "")])
        with pytest.raises(ValueError):
            MeasurementSpec(websites=[WEBSITE], resolvers=[ResolverEntry("swapped", "::1", "127.0.0.1")])

    @pytest.mark.parametrize("label", [5, None, ""])
    def test_resolver_label_must_be_a_non_empty_string(self, label):
        with pytest.raises(ValueError, match="label"):
            ResolverEntry(label, "127.0.0.1", "::1")

    def test_duplicate_resolver_label_rejected(self):
        twin = ResolverEntry("local", "127.0.0.2", "::2")
        with pytest.raises(ValueError, match="'local'"):
            MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER, twin])

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
        with mocknet.MockDnsServer(script, delay_ms=20.0) as server:
            mset = run_measurement_set(
                loopback_spec(server),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                vantage_id="probe-7",
                handshake_fn=ok_handshake,
            )
        assert len(mset.dns_results) == 4
        assert mset.dns_results[0].is_prewarm
        assert sum(1 for r in mset.dns_results if r.is_prewarm) == 1
        for result in mset.dns_results:
            assert 20.0 <= result.latency_ms
        mocknet.assert_tracks_holds(mocknet.excess_ms(server.served, mset.dns_results), JITTER_MS)
        assert len(mset.handshake_results) == 3
        assert mset.key == ("probe-7", "www.wide.example", "local", IpVersion.V4)
        assert mset.cdn == "akamai"

    def test_the_spec_gap_separates_prewarm_and_queries(self):
        script = mocknet.constant_script([("www.wide.example", mocknet.A, 20, "127.0.0.1")])
        with mocknet.MockDnsServer(script, delay_ms=20.0) as server:
            mset = run_measurement_set(
                loopback_spec(server, prewarm_gap_s=0.1), WEBSITE, RESOLVER, IpVersion.V4,
                handshake_fn=ok_handshake,
            )
        slowest_s = max(r.latency_ms for r in mset.dns_results) / 1000.0
        # The gap is kept, and overshot by at most one query latency.
        assert 0.1 <= gap_s(mset) <= 0.1 + slowest_s + JITTER_MS / 1000.0

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
            )
        assert len(mset.dns_results) == 4
        assert mset.handshake_results == []

    def test_full_stack_with_real_handshakes(self, monkeypatch):
        """DNS delayed 20ms, TCP connect delayed 25ms, both recovered."""
        script = mocknet.constant_script([("www.wide.example", mocknet.A, 20, "127.0.0.1")])
        timed = mocknet.record_timed_sockets(monkeypatch)
        handshake_fn = functools.partial(measure_handshake, socket_factory=mocknet.delayed_socket_factory(25.0))
        with mocknet.MockDnsServer(script, delay_ms=20.0) as server, mocknet.MockTcpListener() as edge:
            mset = run_measurement_set(
                loopback_spec(server, handshake_port=edge.port),
                WEBSITE,
                RESOLVER,
                IpVersion.V4,
                handshake_fn=handshake_fn,
            )
        assert len(mset.handshake_results) == 3
        for sample in mset.handshake_results:
            assert 25.0 <= sample.rtt_ms
            assert sample.port == edge.port
        excess = mocknet.handshake_excess_ms(mset.handshake_results, timed)
        mocknet.assert_tracks_holds(excess, JITTER_MS)


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


class TestFillIn:
    def test_usable_retry_replaces_wholesale(self):
        original = broken_set("p1", WEBSITE[1], "local", IpVersion.V4)
        with mocknet.MockDnsServer(dual_family_script()) as server, mocknet.MockTcpListener() as edge:
            out = fill_in([original], loopback_spec(server, handshake_port=edge.port))
        [retry] = out
        assert retry is not original and is_usable(retry)
        assert retry.key == original.key and retry.cdn == original.cdn
        assert len(retry.dns_results) == 4 and len(retry.handshake_results) == 3
        assert not original.failed_twice and not retry.failed_twice

    def test_usable_sets_are_not_retried(self):
        queried = []
        answer = dual_family_script()

        def script(qname, qtype, count):
            queried.append(qname)
            return answer(qname, qtype, count)

        websites = [WEBSITE, ("akamai", "www.other.example")]
        usable = usable_set("p1", websites[0][1], "local", IpVersion.V4)
        broken = broken_set("p1", websites[1][1], "local", IpVersion.V4)
        with mocknet.MockDnsServer(script) as server, mocknet.MockTcpListener() as edge:
            spec = loopback_spec(server, websites=websites, handshake_port=edge.port)
            out = fill_in([usable, broken], spec)
        assert out[0] is usable and is_usable(out[1])
        assert queried and set(queried) == {websites[1][1]}

    def test_double_failure_marks_the_original(self):
        # Nothing listens on either port.
        original = broken_set("p1", WEBSITE[1], "local", IpVersion.V4)
        spec = MeasurementSpec(
            websites=[WEBSITE], resolvers=[RESOLVER], prewarm_gap_s=0.0,
            per_query_timeout_ms=300.0, resolver_port=free_port(), handshake_port=free_port(),
        )
        out = fill_in([original], spec)
        assert out == [original] and out[0] is original
        assert original.failed_twice

    def test_combo_outside_spec_is_kept_with_warning(self, caplog):
        queried = []
        original = broken_set("p1", "legacy.example", "local", IpVersion.V4)
        with mocknet.MockDnsServer(lambda *query: queried.append(query)) as server:
            with caplog.at_level("WARNING", logger="dnscdn.campaign"):
                out = fill_in([original], loopback_spec(server))
        assert out == [original] and out[0] is original
        assert not original.failed_twice
        assert queried == []
        assert any("legacy.example" in rec.getMessage() for rec in caplog.records)

    def test_retries_share_one_gap(self):
        # Every retry's prewarm goes out before any retry's first query after
        # its gap, so the retries wait out the gap together, not one by one.
        # One address has at most one query in flight, so the server sees the
        # queries in send order.  A set whose gap overran sends its prewarm
        # again later, so each name's first query is what counts.
        received = []
        answer = dual_family_script()

        def script(qname, qtype, count):
            received.append((qname, count))
            return answer(qname, qtype, count)

        websites = [("akamai", f"w{i}.example") for i in range(4)]
        originals = [broken_set("p1", w[1], "local", IpVersion.V4) for w in websites]
        with mocknet.MockDnsServer(script) as server, mocknet.MockTcpListener() as edge:
            spec = loopback_spec(server, websites=websites, prewarm_gap_s=0.2, handshake_port=edge.port)
            out = fill_in(originals, spec)
        assert all(is_usable(s) and s is not o for s, o in zip(out, originals))
        assert sorted(received[:4]) == [(w[1], 0) for w in websites]


def dual_family_script(tc_site=None, **reply_kwargs):
    """A for 127.0.0.1 and AAAA for ::1, so handshakes come back to the loopback."""

    def script(qname, qtype, count):
        rtype, address = (mocknet.AAAA, "::1") if qtype == mocknet.AAAA else (mocknet.A, "127.0.0.1")
        return mocknet.MockReply(answers=[(qname, rtype, 20, address)], tc=qname == tc_site, **reply_kwargs)

    return script


@contextlib.contextmanager
def loopback_network(script, delay_ms=0.0, tcp=False, served=None):
    """DNS servers on 127.0.0.1 and ::1 sharing a port, and TCP edges
    likewise.  Both DNS servers record the queries they take in on served."""

    def dns(host, port):
        return mocknet.MockDnsServer(script, delay_ms=delay_ms, host=host, port=port, tcp=tcp, served=served)

    with contextlib.ExitStack() as stack:
        yield bind_pair(stack, dns), bind_pair(stack, mocknet.MockTcpListener)


def bind_pair(stack, make, attempts=5):
    """Servers on 127.0.0.1 and ::1 sharing a port, entered on stack.

    The port the first one draws may be taken for TCP, or on ::1, by some
    other socket; then both are closed and the pair is tried again.
    """
    for _ in range(attempts):
        try:
            first = make("127.0.0.1", 0)
        except OSError:
            continue
        try:
            second = make("::1", first.port)
        except OSError:
            first.close()
            continue
        stack.enter_context(first)
        stack.enter_context(second)
        return first.port
    raise OSError("no port free on both loopback addresses")


def by_address(sets):
    """Every DNS reading's (sent, answered) interval, per resolver address."""
    out = {}
    for mset in sets:
        for r in mset.dns_results:
            end = r.sent_at_monotonic + r.latency_ms / 1000.0
            out.setdefault(r.question.resolver_address, []).append((r.sent_at_monotonic, end))
    return out


class TestRunCampaign:
    WEBSITES = [("akamai", f"w{i}.example") for i in range(6)]
    RESOLVERS = [
        ResolverEntry("google", "127.0.0.1", "::1"),
        ResolverEntry("quad9", "127.0.0.1", "::1"),
    ]

    def _spec(self, dns_port, tcp_port, **overrides):
        defaults = dict(
            websites=self.WEBSITES,
            resolvers=self.RESOLVERS,
            prewarm_gap_s=0.02,
            per_query_timeout_ms=2000.0,
            resolver_port=dns_port,
            handshake_port=tcp_port,
        )
        defaults.update(overrides)
        return MeasurementSpec(**defaults)

    def _run(self, seed, script=None, **overrides):
        with loopback_network(script or dual_family_script()) as (dns_port, tcp_port):
            return run_campaign(self._spec(dns_port, tcp_port, **overrides), rng=random.Random(seed))

    def _job_order(self, seed):
        """The job order run_campaign promises, drawn from the rng as documented."""
        rng = random.Random(seed)
        order = []
        for resolver in self.RESOLVERS:
            websites = list(self.WEBSITES)
            rng.shuffle(websites)
            order += [(w[1], resolver.label, v) for w in websites for v in (IpVersion.V4, IpVersion.V6)]
        return order

    def test_covers_every_combination_once(self):
        sets = self._run(1)
        keys = [(s.website, s.resolver_label, s.ip_version) for s in sets]
        assert len(sets) == 6 * 2 * 2
        assert len(set(keys)) == len(keys)
        assert all(is_usable(s) for s in sets)

    def test_seeded_order_is_reproducible(self):
        first = [(s.website, s.resolver_label, s.ip_version) for s in self._run(7)]
        second = [(s.website, s.resolver_label, s.ip_version) for s in self._run(7)]
        assert first == second == self._job_order(7)

    def test_website_order_is_shuffled_per_resolver(self):
        per_resolver = {}
        for s in self._run(0):
            if s.ip_version is IpVersion.V4:
                per_resolver.setdefault(s.resolver_label, []).append(s.website)
        assert set(per_resolver["google"]) == set(per_resolver["quad9"])
        assert per_resolver["google"] != per_resolver["quad9"]

    def test_send_stamps_strictly_increase_within_a_set(self):
        for mset in self._run(2):
            stamps = [r.sent_at_monotonic for r in mset.dns_results]
            assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
            assert mset.dns_results[0].is_prewarm

    def test_one_query_in_flight_per_resolver_address(self):
        with loopback_network(dual_family_script(), delay_ms=5.0) as (dns_port, tcp_port):
            sets = run_campaign(self._spec(dns_port, tcp_port), rng=random.Random(3))
        intervals = by_address(sets)
        assert set(intervals) == {"127.0.0.1", "::1"}
        for spans in intervals.values():
            spans.sort()
            assert len(spans) == 6 * 2 * 4
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1e-9

    def test_every_gap_is_kept_and_barely_overshot(self):
        gap = 0.1
        with loopback_network(dual_family_script(), delay_ms=10.0) as (dns_port, tcp_port):
            sets = run_campaign(self._spec(dns_port, tcp_port, prewarm_gap_s=gap), rng=random.Random(4))
        slowest_s = max(r.latency_ms for s in sets for r in s.dns_results) / 1000.0
        for mset in sets:
            assert len(mset.dns_results) == 4
            assert gap <= gap_s(mset) <= gap + slowest_s + JITTER_MS / 1000.0

    def test_a_dropped_query_does_not_stretch_other_gaps(self, caplog):
        # One lost query holds its address until its timeout; the sets whose
        # gaps end meanwhile must start over rather than run late, and the
        # run says how many did.
        gap = 0.1
        dropped = []
        answer = dual_family_script()

        def script(qname, qtype, count):
            if qtype == mocknet.A and count == 1 and not dropped:
                dropped.append(qname)  # the first query after a gap
                return None
            return answer(qname, qtype, count)

        websites = [("akamai", f"w{i}.example") for i in range(16)]
        with loopback_network(script, delay_ms=10.0) as (dns_port, tcp_port):
            spec = self._spec(
                dns_port, tcp_port, websites=websites, resolvers=[RESOLVER],
                prewarm_gap_s=gap, per_query_timeout_ms=300.0,
            )
            with caplog.at_level(logging.WARNING, logger="dnscdn.campaign"):
                sets = run_campaign(spec, rng=random.Random(10))
        assert len(dropped) == 1
        [warning] = [r for r in caplog.records if r.levelno == logging.WARNING]
        restarts, gave_up = warning.args
        assert 1 <= restarts < len(websites) and gave_up == 0
        slowest_s = max(r.latency_ms for s in sets for r in s.dns_results) / 1000.0
        for mset in sets:
            assert is_usable(mset)
            if (mset.website, mset.ip_version) == (dropped[0], IpVersion.V4):
                assert len(mset.dns_results) == 3
                continue
            assert len(mset.dns_results) == 4
            assert gap <= gap_s(mset) <= gap + slowest_s + JITTER_MS / 1000.0
        for spans in by_address(sets).values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 1e-9

    def test_the_lane_packs_windows_once_its_prewarms_are_out(self):
        # Every prewarm fits into the gap, so once they are out the address
        # serves only the sets' queries: each set's first query should follow
        # the previous set's last answer at once, not after room booked for
        # a prewarm that never comes.
        websites = [("akamai", f"w{i}.example") for i in range(8)]
        jobs = [(w, RESOLVER, IpVersion.V4, "local") for w in websites]
        with mocknet.MockDnsServer(dual_family_script(), delay_ms=10.0) as dns, mocknet.MockTcpListener() as edge:
            spec = self._spec(dns.port, edge.port, websites=websites, resolvers=[RESOLVER], prewarm_gap_s=0.4)
            sets = campaign._CampaignLoop(spec, socket.socket).run(jobs)
        assert all(len(s.dns_results) == 4 and is_usable(s) for s in sets)
        readings = sorted(
            (r.sent_at_monotonic, r.sent_at_monotonic + r.latency_ms / 1000.0, r.is_prewarm, s.website)
            for s in sets for r in s.dns_results
        )
        # From one set's last answer to the next set's first query, where
        # no prewarm comes between them.
        holes = [
            b[0] - a[1] for a, b in zip(readings, readings[1:]) if a[3] != b[3] and not (a[2] or b[2])
        ]
        assert len(holes) >= len(websites) // 2
        assert statistics.median(holes) < 0.003

    def test_truncated_site_retries_over_tcp(self):
        tc_site = self.WEBSITES[2][1]
        with loopback_network(dual_family_script(tc_site=tc_site), delay_ms=2.0, tcp=True) as ports:
            sets = run_campaign(self._spec(*ports), rng=random.Random(5))
        for mset in sets:
            assert is_usable(mset)
            for r in mset.dns_results:
                assert r.truncated_retried == (mset.website == tc_site)
                assert r.first_address(mset.ip_version) is not None

    def test_mismatched_txid_is_dropped_and_the_wait_goes_on(self):
        sets = self._run(6, dual_family_script(wrong_txid_first=True))
        assert all(len(s.dns_results) == 4 and is_usable(s) for s in sets)

    def test_unreachable_resolver_and_edge_leave_gaps(self):
        # Nothing listens on the handshake port, and no DNS server on ::1.
        with mocknet.MockDnsServer(dual_family_script()) as dns4:
            spec = self._spec(dns4.port, free_port(), per_query_timeout_ms=300.0)
            sets = run_campaign(spec, rng=random.Random(8))
        for mset in sets:
            assert mset.handshake_results == []
            if mset.ip_version is IpVersion.V4:
                assert len(mset.dns_results) == 4
            else:
                assert mset.dns_results == []

    def test_no_address_answer_skips_handshakes(self):
        def forbidden(*args, **kwargs):
            raise AssertionError("handshake attempted with no edge address")

        script = mocknet.constant_script([("www.wide.example", mocknet.CNAME, 300, "edge.cdn.example")])
        with loopback_network(script) as (dns_port, tcp_port):
            spec = self._spec(dns_port, tcp_port, websites=[WEBSITE])
            sets = run_campaign(spec, rng=random.Random(9), socket_factory=forbidden)
        assert len(sets) == 4
        assert all(len(s.dns_results) == 4 and s.handshake_results == [] for s in sets)

    def test_scripted_handshake_rtt_is_recovered(self, monkeypatch):
        served, timed = [], mocknet.record_timed_sockets(monkeypatch)
        with loopback_network(dual_family_script(), delay_ms=20.0, served=served) as (dns_port, tcp_port):
            spec = self._spec(dns_port, tcp_port, websites=[WEBSITE], resolvers=[RESOLVER])
            sets = run_campaign(spec, socket_factory=mocknet.delayed_socket_factory(25.0))
        for mset in sets:
            assert len(mset.handshake_results) == 3
            assert all(sample.rtt_ms >= 25.0 for sample in mset.handshake_results)
            excess = mocknet.handshake_excess_ms(mset.handshake_results, timed)
            mocknet.assert_tracks_holds(excess, JITTER_MS, median=True)
            assert all(r.latency_ms >= 20.0 for r in mset.dns_results)
            excess = mocknet.excess_ms(served, latest_three(mset))
            mocknet.assert_tracks_holds(excess, JITTER_MS, median=True)


def drive_steps(late_times):
    """Run one set's steps by hand, answering its first query after the gap
    with _LATE late_times times; return the step kinds and the set."""
    spec = MeasurementSpec(websites=[WEBSITE], resolvers=[RESOLVER])
    steps = campaign._set_steps(spec, WEBSITE, RESOLVER, IpVersion.V4, "local")
    kinds, outcome, clock = [], None, 0.0
    while True:
        try:
            kind, arg = steps.send(outcome)
        except StopIteration as done:
            return kinds, done.value
        kinds.append(kind)
        clock += 1.0
        if kind == campaign._GAP:
            outcome = None
        elif kind == campaign._CONNECT:
            outcome = ok_handshake(arg, 443)
        elif kind == campaign._QUERY and kinds[-2] == campaign._GAP and late_times:
            late_times -= 1
            outcome = campaign._LATE
        else:
            outcome = make_response(10.0, clock, qname=WEBSITE[1])


def test_a_late_set_starts_over_from_its_prewarm():
    kinds, mset = drive_steps(late_times=1)
    assert kinds[:4] == [campaign._PREWARM, campaign._GAP, campaign._QUERY, campaign._PREWARM]
    # Only the second attempt's readings are kept.
    assert [r.sent_at_monotonic for r in mset.dns_results] == [4.0, 6.0, 7.0, 8.0]
    assert mset.dns_results[0].is_prewarm
    assert is_usable(mset)


def test_a_set_late_past_its_restarts_gives_up():
    kinds, mset = drive_steps(late_times=campaign._MAX_RESTARTS + 1)
    assert kinds == [campaign._PREWARM, campaign._GAP, campaign._QUERY] * (campaign._MAX_RESTARTS + 1)
    assert len(mset.dns_results) == 1 and mset.dns_results[0].is_prewarm
    assert mset.handshake_results == []
    assert not is_usable(mset)


def test_malformed_reply_leaves_a_gap_instead_of_aborting():
    broken = "www.broken.example"

    def script(qname, qtype, count):
        if qname == broken:
            return mocknet.MockReply(raw_tail=b"\x81\x80\x00\x01")  # 6 bytes with the txid
        return mocknet.MockReply(answers=[(qname, mocknet.A, 20, "127.0.0.1")])

    with mocknet.MockDnsServer(script) as server, mocknet.MockTcpListener() as edge:
        spec = loopback_spec(
            server,
            websites=[WEBSITE, ("akamai", broken)],
            per_query_timeout_ms=300.0,
            handshake_port=edge.port,
        )
        sets = run_campaign(spec)
    v4 = {s.website: s for s in sets if s.ip_version is IpVersion.V4}
    assert len(sets) == 4
    assert v4[broken].dns_results == []
    assert len(v4["www.wide.example"].dns_results) == 4
    assert is_usable(v4["www.wide.example"])


def slow_decode(monkeypatch, delay_s):
    """Make every decode in the measuring code take delay_s longer."""
    decode = resolve.decode_response

    def slow(data):
        time.sleep(delay_s)
        return decode(data)

    monkeypatch.setattr(resolve, "decode_response", slow)


def test_decode_cost_stays_out_of_campaign_readings(monkeypatch):
    slow_decode(monkeypatch, 0.02)
    script = mocknet.constant_script([("www.wide.example", mocknet.A, 20, "127.0.0.1")])
    # Only the v4 resolver answers, so no reply waits on another's decode.
    with mocknet.MockDnsServer(script, delay_ms=20.0) as server, mocknet.MockTcpListener() as edge:
        sets = run_campaign(loopback_spec(server, per_query_timeout_ms=300.0, handshake_port=edge.port))
    responses = [r for s in sets for r in s.dns_results]
    assert len(responses) == 4
    excess = mocknet.excess_ms(server.served, responses)
    # A clock that ran through the decode would read at least 20 ms over.
    assert all(20.0 <= r.latency_ms for r in responses)
    assert all(e < 20.0 for e in excess)
    mocknet.assert_tracks_holds(excess, JITTER_MS, median=True)
