"""Cache verdict classification and TTL discovery."""

import functools
import random

import pytest

import mocknet
from factories import asking, make_response
from dnscdn.cache import (
    AuthoritativeTtl,
    Convention,
    NoAuthorityError,
    TtlQuirk,
    TtlSource,
    Verdict,
    classify,
    discover_authoritative_ttl,
    load_ttl_table,
    parse_ttl_table,
)
from dnscdn.resolve import QueryTimeoutError, ask
from dnscdn.wire import RecordType, ResourceRecord


def default_rule_oracle(response_ttl, authoritative_ttl):
    """The default reading re-stated independently: equal = hit, lower =
    miss, higher = unknown.  The Google decrement does not change this
    partition (one-lower is just a miss)."""
    if response_ttl > authoritative_ttl:
        return Verdict.UNKNOWN
    if response_ttl == authoritative_ttl:
        return Verdict.HIT
    return Verdict.MISS


class TestClassify:
    def test_equal_is_hit(self):
        assert classify(20, 20) is Verdict.HIT

    def test_lower_is_miss(self):
        assert classify(5, 20) is Verdict.MISS

    def test_greater_is_unknown(self):
        assert classify(25, 20) is Verdict.UNKNOWN

    def test_google_decrement_one_lower_is_miss(self):
        assert classify(19, 20, quirk=TtlQuirk.GOOGLE_DECREMENT) is Verdict.MISS

    def test_google_decrement_keeps_partition(self):
        assert classify(20, 20, quirk=TtlQuirk.GOOGLE_DECREMENT) is Verdict.HIT
        assert classify(3, 20, quirk=TtlQuirk.GOOGLE_DECREMENT) is Verdict.MISS
        assert classify(21, 20, quirk=TtlQuirk.GOOGLE_DECREMENT) is Verdict.UNKNOWN

    def test_inverted_convention_equal_is_miss(self):
        assert classify(20, 20, convention=Convention.EQUAL_IS_MISS) is Verdict.MISS
        assert classify(5, 20, convention=Convention.EQUAL_IS_MISS) is Verdict.HIT
        assert classify(25, 20, convention=Convention.EQUAL_IS_MISS) is Verdict.UNKNOWN

    def test_inverted_google_decrement_fresh_signature(self):
        kw = {"quirk": TtlQuirk.GOOGLE_DECREMENT, "convention": Convention.EQUAL_IS_MISS}
        assert classify(19, 20, **kw) is Verdict.MISS
        assert classify(20, 20, **kw) is Verdict.HIT
        assert classify(18, 20, **kw) is Verdict.HIT
        assert classify(25, 20, **kw) is Verdict.UNKNOWN

    def test_negative_ttls_rejected(self):
        with pytest.raises(ValueError):
            classify(-1, 20)
        with pytest.raises(ValueError):
            classify(20, -1)

    def test_randomized_sweep_matches_rule_oracle(self):
        rng = random.Random(2022)
        for _ in range(2000):
            auth = rng.randint(0, 4000)
            response = rng.randint(0, 4000)
            quirk = rng.choice([TtlQuirk.NONE, TtlQuirk.GOOGLE_DECREMENT])
            assert classify(response, auth, quirk) is default_rule_oracle(response, auth)

    def test_unknown_iff_strictly_greater(self):
        for response in range(0, 42):
            verdict = classify(response, 20)
            assert (verdict is Verdict.UNKNOWN) == (response > 20)


class TestTtlTable:
    def test_packaged_defaults(self):
        table = load_ttl_table()
        assert table == {"akamai": 20, "fastly": 30, "cloudflare-cdn": 300, "edgecast": 3600}

    def test_parse_skips_comments_and_blanks(self):
        table = parse_ttl_table("# heading\n\nfoo 10\n  bar\t20\n")
        assert table == {"foo": 10, "bar": 20}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ttl_table("foo 10 extra\n")
        with pytest.raises(ValueError):
            parse_ttl_table("foo zero\n")
        with pytest.raises(ValueError):
            parse_ttl_table("foo 0\n")


def _failing_resolver(question):
    raise QueryTimeoutError("scripted failure")


class TestDiscoverAuthoritativeTtl:
    def test_static_fallback_akamai(self):
        result = discover_authoritative_ttl("x.edgekey.net", "akamai", ask=asking(_failing_resolver))
        assert result.ttl == 20
        assert result.source is TtlSource.STATIC_DEFAULT

    def test_static_fallback_edgecast(self):
        result = discover_authoritative_ttl("x.systemcdn.net", "edgecast", ask=asking(_failing_resolver))
        assert result.ttl == 3600
        assert result.source is TtlSource.STATIC_DEFAULT

    def test_no_default_no_authority(self):
        with pytest.raises(NoAuthorityError):
            discover_authoritative_ttl("x.example.net", "nobody-cdn", ask=asking(_failing_resolver))

    def test_direct_query_against_mock_server(self):
        domain = "site.cdn.example"

        def script(qname, qtype, count):
            if qtype == mocknet.NS and qname == domain:
                return mocknet.MockReply(answers=[(qname, mocknet.NS, 3600, "ns1.cdn.example")])
            if qtype == mocknet.A and qname == "ns1.cdn.example":
                return mocknet.MockReply(answers=[(qname, mocknet.A, 3600, "127.0.0.1")])
            if qtype == mocknet.A and qname == domain:
                return mocknet.MockReply(answers=[(qname, mocknet.A, 300, "203.0.113.10")])
            return mocknet.MockReply(rcode=3)

        with mocknet.MockDnsServer(script) as server:
            to_server = functools.partial(ask, port=server.port)
            result = discover_authoritative_ttl(domain, "cdn", recursive_resolver="127.0.0.1", ask=to_server)
        assert result.ttl == 300
        assert result.source is TtlSource.DIRECT_QUERY

    def test_ns_walk_up_to_parent_zone(self):
        domain = "deep.a.cdn.example"
        calls = []

        def fake_resolve(question):
            calls.append((question.qname, question.qtype))
            if question.qtype == RecordType.NS:
                if question.qname == "a.cdn.example":
                    return make_response(
                        1.0, 1.0, qname=question.qname,
                        answers=[ResourceRecord(question.qname, int(RecordType.NS), 600, "ns.cdn.example")],
                    )
                return make_response(1.0, 1.0, qname=question.qname, answers=[])
            if question.qname == "ns.cdn.example":
                return make_response(
                    1.0, 1.0, qname=question.qname,
                    answers=[ResourceRecord(question.qname, 1, 600, "192.0.2.53")],
                )
            return make_response(
                1.0, 1.0, qname=question.qname,
                answers=[ResourceRecord(question.qname, 1, 77, "198.51.100.1")],
            )

        result = discover_authoritative_ttl(domain, "cdn", ask=asking(fake_resolve))
        assert result.ttl == 77
        assert result.source is TtlSource.DIRECT_QUERY
        assert ("deep.a.cdn.example", RecordType.NS) in calls
        assert ("a.cdn.example", RecordType.NS) in calls

    def test_positive_ttl_invariant(self):
        with pytest.raises(ValueError):
            AuthoritativeTtl("x.example", "cdn", 0, TtlSource.STATIC_DEFAULT, 0.0)

