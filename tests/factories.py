"""Builders for package objects used across test modules.

These construct inputs only; anything acting as an oracle lives in
mocknet.py or inline in the test that owns it.
"""

from dnscdn.campaign import MeasurementSet
from dnscdn.mapping import HandshakeSample
from dnscdn.resolve import TimedDnsResponse
from dnscdn.wire import DnsQuestion, IpVersion, RecordType, ResourceRecord


def make_question(
    qname="www.example.com",
    qtype=RecordType.A,
    resolver="127.0.0.1",
    timeout_ms=5000.0,
    port=53,
):
    return DnsQuestion(
        qname=qname,
        qtype=qtype,
        resolver_address=resolver,
        transport_version=IpVersion.of_address(resolver),
        timeout_ms=timeout_ms,
        resolver_port=port,
    )


def asking(resolve_fn):
    """An `ask` (as resolve.ask) that hands the question it builds to
    resolve_fn, a stand-in for resolve_once."""

    def ask(qname, qtype, resolver_address, *, timeout_ms=5000.0, port=53):
        return resolve_fn(make_question(qname, qtype, resolver_address, timeout_ms, port))

    return ask


def make_response(
    latency_ms,
    sent_at,
    *,
    qname="www.example.com",
    qtype=RecordType.A,
    address="192.0.2.1",
    ttl=60,
    prewarm=False,
    answers=None,
    resolver="127.0.0.1",
):
    if answers is None:
        answers = [ResourceRecord(name=qname, rtype=int(qtype), ttl=ttl, rdata=address)]
    return TimedDnsResponse(
        question=make_question(qname=qname, qtype=qtype, resolver=resolver),
        rcode=0,
        answers=answers,
        latency_ms=latency_ms,
        sent_at_monotonic=sent_at,
        sent_at_wall=1_650_000_000.0 + sent_at,
        is_prewarm=prewarm,
    )


def make_set(
    vantage_id="probe-1",
    website="www.example.com",
    cdn="akamai",
    resolver_label="google",
    ip_version=IpVersion.V4,
    dns=((30.0, 1.0, True), (10.0, 16.0, False), (11.0, 16.1, False), (12.0, 16.2, False)),
    handshakes=(25.0, 25.5, 24.5),
    ttl=60,
    address=None,
):
    """dns entries are (latency_ms, sent_at, is_prewarm) triples; every
    answer and handshake carries address, by default one per family."""
    qtype = RecordType.A if ip_version is IpVersion.V4 else RecordType.AAAA
    if address is None:
        address = "192.0.2.1" if ip_version is IpVersion.V4 else "2001:db8::1"
    results = [
        make_response(
            lat, at, qname=website, qtype=qtype, address=address, ttl=ttl, prewarm=pre
        )
        for lat, at, pre in dns
    ]
    samples = [
        HandshakeSample(address=address, port=443, rtt_ms=rtt, success=True) for rtt in handshakes
    ]
    return MeasurementSet(
        vantage_id=vantage_id,
        website=website,
        cdn=cdn,
        resolver_label=resolver_label,
        ip_version=ip_version,
        dns_results=results,
        handshake_results=samples,
        created_at=1_650_000_000.0,
    )
