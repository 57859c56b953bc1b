"""Acceptance gate: every core behavior at its stated scale and time budget.

Each test covers one headline guarantee end to end — oracle equivalence
at 10k-case scale, boundary-exact data rules on 500-vantage corpora, and
a full campaign against scripted mock services — and prints a single
PASS line with its runtime when it holds.  Run with -v (or -s) to see
one line per guarantee.
"""

import contextlib
import math
import random
import statistics
import string
import time

import mocknet
from factories import make_set
from test_storage import dns_entry, random_record, tls_entry, write_atlas
from dnscdn.analytics import (
    Metric,
    build_latency_points,
    classify_sets,
    ipv6_penalty,
    ks_two_sample,
    per_cdn_median,
    per_website_median,
)
from dnscdn.atlas import import_atlas
from dnscdn.cache import Convention, TtlQuirk, Verdict, classify, load_ttl_table
from dnscdn.campaign import (
    MeasurementSpec,
    ResolverEntry,
    completeness_filter,
    fill_in,
    is_usable,
    run_campaign,
)
from dnscdn.storage import read_records, write_records
from dnscdn.wire import (
    DnsQuestion,
    IpVersion,
    MalformedMessageError,
    RecordType,
    decode_response,
    encode_query,
)


@contextlib.contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label}: {elapsed:.2f}s exceeded the {seconds:.0f}s budget"
    print(f"{label}: PASS ({elapsed:.2f}s, budget {seconds:.0f}s)")


# --- 1. cache-verdict truth table + randomized rule sweep ------------------

def _verdict_rule(response_ttl, authoritative_ttl, quirk, convention):
    """The classification rule restated from scratch."""
    if response_ttl > authoritative_ttl:
        return Verdict.UNKNOWN
    if convention is Convention.EQUAL_IS_HIT:
        return Verdict.HIT if response_ttl == authoritative_ttl else Verdict.MISS
    fresh = authoritative_ttl - (1 if quirk is TtlQuirk.GOOGLE_DECREMENT else 0)
    return Verdict.MISS if response_ttl == fresh else Verdict.HIT


def test_cache_verdict_truth_table_and_sweep():
    with budget("cache verdicts", 1.0):
        anchored = [
            (20, 20, TtlQuirk.NONE, Verdict.HIT),
            (5, 20, TtlQuirk.NONE, Verdict.MISS),
            (25, 20, TtlQuirk.NONE, Verdict.UNKNOWN),
            (19, 20, TtlQuirk.GOOGLE_DECREMENT, Verdict.MISS),
        ]
        for response_ttl, auth_ttl, quirk, want in anchored:
            assert classify(response_ttl, auth_ttl, quirk).verdict is want, (
                f"({response_ttl}, {auth_ttl}, {quirk.value})"
            )
        rng = random.Random(0xACCE55)
        for _ in range(10_000):
            response_ttl = rng.randrange(0, 40)
            auth_ttl = rng.randrange(0, 35)
            quirk = rng.choice(list(TtlQuirk))
            convention = rng.choice(list(Convention))
            got = classify(response_ttl, auth_ttl, quirk, convention).verdict
            assert got is _verdict_rule(response_ttl, auth_ttl, quirk, convention)


# --- 2. data rules at 500-vantage scale ------------------------------------

UNUSABLE_DNS = ((30.0, 1.0, True), (10.0, 16.0, False))


def _corpus_set(vantage, website, resolver, version=IpVersion.V4, usable=True):
    return make_set(
        vantage_id=vantage,
        website=website,
        resolver_label=resolver,
        ip_version=version,
        **({} if usable else {"dns": UNUSABLE_DNS}),
    )


def test_data_rule_boundaries_at_scale():
    with budget("data rules", 10.0):
        # Usability boundary: three of four DNS results suffice, two do not,
        # and a missing handshake disqualifies outright.
        three = make_set(dns=((30.0, 1.0, True), (10.0, 16.0, False), (11.0, 16.1, False)))
        assert is_usable(three)
        assert not is_usable(make_set(dns=UNUSABLE_DNS))
        assert not is_usable(make_set(handshakes=(25.0, 25.5)))

        # 500 vantages, two websites, two resolvers, both families.  The
        # first fifty lose one combination and must drop entirely.
        websites = ("www.w1.example", "www.w2.example")
        resolvers = ("google", "quad9")
        sets = []
        for i in range(500):
            vantage = f"v{i:03d}"
            for website in websites:
                for resolver in resolvers:
                    for version in (IpVersion.V4, IpVersion.V6):
                        broken = (
                            i < 50
                            and website == websites[0]
                            and resolver == "google"
                            and version is IpVersion.V4
                        )
                        sets.append(
                            _corpus_set(vantage, website, resolver, version, usable=not broken)
                        )
        retained = completeness_filter(sets, {"akamai": 2})
        expected = {
            (f"v{i:03d}", website) for i in range(50, 500) for website in websites
        }
        assert retained == expected

        # After filtering, every (resolver, family) holds usable sets for
        # exactly the same (vantage, website) pairs.
        usable_pairs = {}
        for s in sets:
            if is_usable(s):
                usable_pairs.setdefault((s.resolver_label, s.ip_version), set()).add(
                    (s.vantage_id, s.website)
                )
        surviving = {combo: pairs & retained for combo, pairs in usable_pairs.items()}
        assert len(surviving) == 4
        assert all(pairs == retained for pairs in surviving.values())

        # Per-CDN threshold boundary: with 50 websites and a floor of 30,
        # a vantage completing 30 stays and one completing 29 drops.
        boundary_sets = []
        fifty = [f"www.b{i:02d}.example" for i in range(50)]
        for i in range(498):
            vantage = f"f{i:03d}"
            for website in websites:
                for resolver in resolvers:
                    boundary_sets.append(_corpus_set(vantage, website, resolver))
        for vantage, complete in (("big-x", 30), ("big-y", 29)):
            for rank, website in enumerate(fifty):
                for resolver in resolvers:
                    boundary_sets.append(
                        _corpus_set(
                            vantage,
                            website,
                            resolver,
                            usable=rank < complete or resolver != "quad9",
                        )
                    )
        kept = completeness_filter(boundary_sets, {"akamai": 30})
        assert {vantage for vantage, _ in kept} == {"big-x"}
        assert len(kept) == 30

        # Retry semantics: a usable retry replaces the set wholesale; a
        # second failure keeps the original, marked.
        spec = MeasurementSpec(
            websites=[("akamai", "www.w1.example")],
            resolvers=[ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888")],
        )
        healthy = _corpus_set("r1", "www.w1.example", "google")
        broken = _corpus_set("r1", "www.w1.example", "google", usable=False)
        replacement = _corpus_set("r1", "www.w1.example", "google")
        out = fill_in([healthy, broken], spec, run_fn=lambda *a, **kw: replacement)
        assert out[0] is healthy
        assert out[1] is replacement

        still_bad = _corpus_set("r1", "www.w1.example", "google", usable=False)
        out = fill_in([broken], spec, run_fn=lambda *a, **kw: still_bad)
        assert out[0] is broken
        assert broken.failed_twice


# --- 3. aggregation vs. an independent sort oracle --------------------------

def test_aggregation_matches_sort_oracle():
    with budget("aggregation oracle", 10.0):
        # The two worked examples: a prewarm that ran first stays out of
        # the window; one timestamped last lands inside it.
        in_order = make_set(
            dns=((50.0, 1.0, True), (10.0, 16.0, False), (12.0, 16.1, False), (30.0, 16.2, False))
        )
        assert per_website_median(in_order) == 12.0
        prewarm_last = make_set(
            dns=((10.0, 16.0, False), (12.0, 16.1, False), (30.0, 16.2, False), (50.0, 90.0, True))
        )
        assert per_website_median(prewarm_last) == 30.0

        rng = random.Random(0x0A11E)
        for _ in range(6_000):
            n = rng.randint(3, 8)
            stamps = sorted(rng.sample(range(1, 2_000_000), n))
            latencies = [round(rng.uniform(0.5, 400.0), 3) for _ in range(n)]
            prewarm_at = rng.randrange(n)  # sometimes the latest-stamped slot
            mset = make_set(
                dns=tuple(
                    (latencies[i], float(stamps[i]), i == prewarm_at) for i in range(n)
                )
            )
            by_time = sorted(zip(stamps, latencies))
            window = sorted(latency for _, latency in by_time[-3:])
            assert per_website_median(mset) == window[1]

        for _ in range(4_000):
            values = [round(rng.uniform(0.5, 300.0), 3) for _ in range(rng.randint(1, 9))]
            ordered = sorted(values)
            k = len(ordered)
            want = ordered[k // 2] if k % 2 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2
            assert per_cdn_median(values) == want


# --- 4. K-S kernel ----------------------------------------------------------

MONOTONE_TRANSFORMS = (
    lambda x: 3.0 * x + 2.0,
    lambda x: x**3,
    lambda x: math.atan(x),
    lambda x: math.exp(x / 25.0),
)


def test_ks_kernel_examples_and_invariance():
    with budget("K-S kernel", 5.0):
        assert ks_two_sample([1.0, 3.0], [2.0, 4.0]).d_statistic == 0.5
        same = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert same.d_statistic == 0.0
        assert same.p_value == 1.0
        assert ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0, 12.0]).d_statistic == 1.0

        separated = ks_two_sample([float(i) for i in range(20)], [float(i + 100) for i in range(20)])
        assert separated.d_statistic == 1.0
        assert separated.p_value < 1e-6

        grid = [k / 4.0 for k in range(-40, 41)]  # ties are likely on purpose
        rng = random.Random(0xD1AB10)
        for _ in range(1_000):
            a = [rng.choice(grid) for _ in range(rng.randint(2, 25))]
            b = [rng.choice(grid) for _ in range(rng.randint(2, 25))]
            transform = rng.choice(MONOTONE_TRANSFORMS)
            plain = ks_two_sample(a, b)
            mapped = ks_two_sample([transform(x) for x in a], [transform(x) for x in b])
            assert mapped.d_statistic == plain.d_statistic
            assert mapped.p_value == plain.p_value


# --- 5. full campaign against scripted mock services ------------------------

E2E_AUTH_TTLS = {
    "www.hit-a.test": 20,
    "www.hit-b.test": 20,
    "www.miss-a.test": 30,
    "www.miss-b.test": 30,
}


def _e2e_script(qname, qtype, count):
    """Prewarm sees the full TTL; on miss-pattern names every follow-up
    comes back decremented, as a fresh fetch would."""
    address = "::1" if qtype == mocknet.AAAA else "127.0.0.1"
    ttl = E2E_AUTH_TTLS[qname]
    if qname.startswith("www.miss"):
        ttl -= count
    return mocknet.MockReply(answers=[(qname, qtype, ttl, address)])


def test_mock_network_end_to_end():
    with budget("mock end-to-end", 120.0):
        with mocknet.MockDnsServer(_e2e_script, delay_ms=30.0) as dns4, \
                mocknet.MockDnsServer(_e2e_script, delay_ms=30.0, host="::1", port=dns4.port) as dns6, \
                mocknet.MockTcpListener() as tcp4, \
                mocknet.MockTcpListener(host="::1", port=tcp4.port) as tcp6:
            spec = MeasurementSpec(
                websites=[
                    ("akamai", "www.hit-a.test"),
                    ("akamai", "www.hit-b.test"),
                    ("fastly", "www.miss-a.test"),
                    ("fastly", "www.miss-b.test"),
                ],
                resolvers=[ResolverEntry("local", "127.0.0.1", "::1")],
                prewarm_gap_s=0.25,
                per_query_timeout_ms=2000.0,
                resolver_port=dns4.port,
                handshake_port=tcp4.port,
            )
            sets = run_campaign(
                spec,
                vantage_id="mock-e2e",
                rng=random.Random(5),
                socket_factory=mocknet.delayed_socket_factory(25.0),
            )

        assert len(sets) == 8  # 4 websites x 1 resolver x 2 families
        assert all(is_usable(s) for s in sets)
        for mset in sets:
            assert abs(per_website_median(mset) - 30.0) <= 5.0
            mapping = statistics.median(h.rtt_ms for h in mset.handshake_results)
            assert abs(mapping - 25.0) <= 5.0

        points = build_latency_points(sets)
        assert len(points) == 8  # 2 cdns x 2 families x 2 metrics
        for point in points:
            target = 30.0 if point.metric is Metric.DNS else 25.0
            assert abs(point.value - target) <= 5.0

        classified = classify_sets(sets, load_ttl_table())
        assert len(classified) == 8
        verdicts = {}
        for point in classified:
            verdicts.setdefault(point.cdn, []).append(point.verdict)
        assert verdicts["akamai"] == [Verdict.HIT] * 4
        assert verdicts["fastly"] == [Verdict.MISS] * 4


# --- 6. wire-format conformance ---------------------------------------------

def _random_qname(rng):
    labels = []
    for _ in range(rng.randint(1, 5)):
        n = rng.randint(1, 20)
        labels.append("".join(rng.choices(string.ascii_lowercase + string.digits, k=n)))
    return ".".join(labels)


def test_wire_roundtrip_and_pointer_fixtures():
    with budget("wire format", 5.0):
        rng = random.Random(0xF1DE5)
        qtypes = [RecordType.A, RecordType.AAAA, RecordType.CNAME, RecordType.NS, RecordType.TXT]
        for _ in range(10_000):
            qname = _random_qname(rng)
            qtype = rng.choice(qtypes)
            txid = rng.randrange(0, 0x10000)
            question = DnsQuestion(
                qname=qname,
                qtype=qtype,
                resolver_address="192.0.2.53",
                transport_version=IpVersion.V4,
            )
            wire = bytearray(encode_query(question, txid=txid, edns=rng.random() < 0.5))
            wire[2] |= 0x80  # flip QR so the decoder accepts it
            message = decode_response(bytes(wire))
            assert message.txid == txid
            assert message.questions[0].name == qname
            assert message.questions[0].qtype == int(qtype)

        compressed = mocknet.build_response(
            0x0101,
            "www.example.com",
            mocknet.A,
            [("www.example.com", mocknet.A, 60, "192.0.2.1")],
            compress_answer_names=True,
        )
        message = decode_response(compressed)
        assert message.answers[0].name == "www.example.com"
        assert message.answers[0].rdata == "192.0.2.1"

        looped = bytearray(compressed)
        where = looped.index(b"\xc0\x0c")
        looped[where] = 0xC0 | (where >> 8)
        looped[where + 1] = where & 0xFF
        try:
            decode_response(bytes(looped))
        except MalformedMessageError:
            pass
        else:
            raise AssertionError("pointer loop decoded instead of failing")


# --- 7. persistence round-trip + import fidelity -----------------------------

def test_persistence_roundtrip_and_atlas_count(tmp_path):
    with budget("persistence", 10.0):
        rng = random.Random(0x570BE)
        records = [random_record(rng, i) for i in range(10_000)]
        path = str(tmp_path / "bulk.jsonl")
        write_records(records, path)
        assert read_records(path) == records

        base = 1_650_000_000
        dns_entries, tls_entries = [], []
        for probe in range(4):
            for site in range(3):
                qname = f"www.s{site}.example"
                for k, offset in enumerate((0, 15, 16, 17)):
                    dns_entries.append(
                        dns_entry(probe, qname, base + probe * 3600 + offset, 20.0 + k)
                    )
                tls_entries.append(tls_entry(probe, qname, base + probe * 3600 + 20, rt=25.0))
        dns_path, tls_path = write_atlas(tmp_path, dns_entries, tls_entries)
        result = import_atlas(dns_path, tls_path)
        assert len(result.sets) == 12
        assert result.skipped == 0
        assert result.orphans == 0


# --- 8. regional penalty table with planted medians --------------------------

def _planted_set(vantage, version, latency):
    return make_set(
        vantage_id=vantage,
        ip_version=version,
        dns=((40.0, 1.0, True), (latency, 16.0, False), (latency, 16.1, False), (latency, 16.2, False)),
    )


def test_regional_penalty_report_shape():
    with budget("penalty report", 5.0):
        geo = {"a1": "asia", "a2": "asia", "a3": "asia", "e1": "europe", "e2": "europe"}
        sets = []
        for vantage in ("a1", "a2", "a3"):
            sets.append(_planted_set(vantage, IpVersion.V4, 12.80))
            sets.append(_planted_set(vantage, IpVersion.V6, 18.34))
        for vantage in ("e1", "e2"):
            sets.append(_planted_set(vantage, IpVersion.V4, 9.0))
            sets.append(_planted_set(vantage, IpVersion.V6, 11.5))

        points = build_latency_points(sets, geo=geo)
        rows = ipv6_penalty(points, 250.0, geo)
        assert {(r.metric, r.region) for r in rows} == {
            (metric, region)
            for metric in (Metric.DNS, Metric.MAPPING)
            for region in ("asia", "europe")
        }

        asia_dns = next(r for r in rows if r.metric is Metric.DNS and r.region == "asia")
        assert abs(asia_dns.v4_median - 12.80) <= 0.01
        assert abs(asia_dns.v6_median - 18.34) <= 0.01
        assert abs(asia_dns.delta - 5.54) <= 0.01
        assert not asia_dns.exceeds_threshold
        assert not any(r.exceeds_threshold for r in rows)
