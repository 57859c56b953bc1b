"""resolve_once against scripted loopback resolvers.

Loopback delivery adds some scheduling jitter; latency assertions allow
5 ms of slack, same bound as the end-to-end suite.
"""

import socket
import statistics
import time

import pytest

import mocknet
from dnscdn import resolve
from dnscdn.resolve import (
    NetworkUnreachableError,
    QueryTimeoutError,
    TimedDnsResponse,
    resolve_once,
    seed_txids,
)
from dnscdn.wire import DnsQuestion, IpVersion, MalformedMessageError, RecordType

JITTER_MS = 5.0


def loopback_question(server, qname="www.example.com", qtype=RecordType.A, timeout_ms=3000.0):
    return DnsQuestion(
        qname=qname,
        qtype=qtype,
        resolver_address=server.host,
        transport_version=IpVersion.of_address(server.host),
        timeout_ms=timeout_ms,
        resolver_port=server.port,
    )


def answer_script(ttl=60, address="192.0.2.10", **reply_kwargs):
    def script(qname, qtype, count):
        rtype = mocknet.AAAA if qtype == mocknet.AAAA else mocknet.A
        rdata = "2001:db8::10" if rtype == mocknet.AAAA else address
        return mocknet.MockReply(answers=[(qname, rtype, ttl, rdata)], **reply_kwargs)

    return script


def test_latency_tracks_injected_delay():
    with mocknet.MockDnsServer(answer_script(), delay_ms=30.0) as server:
        response = resolve_once(loopback_question(server))
    assert response.rcode == 0
    assert response.answers[0].rdata == "192.0.2.10"
    assert 30.0 <= response.latency_ms <= 30.0 + JITTER_MS
    assert response.sent_at_wall > 0
    assert not response.truncated_retried


def test_decode_cost_stays_out_of_the_reading(monkeypatch):
    decode = resolve.decode_response

    def slow_decode(data):
        time.sleep(0.02)
        return decode(data)

    monkeypatch.setattr(resolve, "decode_response", slow_decode)
    with mocknet.MockDnsServer(answer_script(), delay_ms=20.0) as server:
        readings = [resolve_once(loopback_question(server)).latency_ms for _ in range(3)]
    # A clock that ran through the decode would read at least 20 + 20 ms.
    assert all(20.0 <= ms < 20.0 + 20.0 for ms in readings)
    assert statistics.median(readings) <= 20.0 + JITTER_MS


def test_timeout_when_server_stays_silent():
    with mocknet.MockDnsServer(lambda *a: None) as server:
        question = loopback_question(server, timeout_ms=300.0)
        start = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            resolve_once(question)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert 290.0 <= elapsed_ms <= 1000.0


def test_truncated_reply_retries_over_tcp():
    with mocknet.MockDnsServer(answer_script(tc=True), tcp=True) as server:
        response = resolve_once(loopback_question(server))
    assert response.truncated_retried
    assert response.answers[0].rdata == "192.0.2.10"


def test_mismatched_txid_is_discarded():
    with mocknet.MockDnsServer(answer_script(wrong_txid_first=True)) as server:
        response = resolve_once(loopback_question(server))
    assert response.answers  # the bogus datagram did not short-circuit the wait


def test_family_mismatch_rejected_before_network():
    q = DnsQuestion(
        qname="a.example",
        qtype=RecordType.A,
        resolver_address="127.0.0.1",
        transport_version=IpVersion.V4,
        timeout_ms=100.0,
    )
    q.transport_version = IpVersion.V6  # dataclass is mutable; simulate corruption
    with pytest.raises(ValueError):
        resolve_once(q)


def test_construction_rejects_family_mismatch():
    with pytest.raises(ValueError):
        DnsQuestion(
            qname="a.example",
            qtype=RecordType.A,
            resolver_address="::1",
            transport_version=IpVersion.V4,
        )


def test_ipv6_loopback_transport():
    with mocknet.MockDnsServer(answer_script(), host="::1") as server:
        response = resolve_once(loopback_question(server, qtype=RecordType.AAAA))
    assert response.answers[0].rdata == "2001:db8::10"
    assert response.question.transport_version is IpVersion.V6


def test_closed_port_reports_unreachable():
    # grab a port that is definitely closed
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    question = DnsQuestion(
        qname="a.example",
        qtype=RecordType.A,
        resolver_address="127.0.0.1",
        transport_version=IpVersion.V4,
        timeout_ms=500.0,
        resolver_port=port,
    )
    with pytest.raises((NetworkUnreachableError, QueryTimeoutError)):
        resolve_once(question)


def test_undecodable_reply_is_malformed():
    script = lambda *a: mocknet.MockReply(raw_tail=b"\x81\x80\x00")  # noqa: E731
    with mocknet.MockDnsServer(script) as server:
        with pytest.raises(MalformedMessageError):
            resolve_once(loopback_question(server))


def test_seeded_txids_are_reproducible():
    with mocknet.MockDnsServer(answer_script()) as server:
        seed_txids(42)
        resolve_once(loopback_question(server))
        seed_txids(42)
        resolve_once(loopback_question(server))
        first, second = server.queries[0][2], server.queries[1][2]
    assert first == second


def test_latency_never_exceeds_timeout_by_much():
    with mocknet.MockDnsServer(answer_script(), delay_ms=10.0) as server:
        question = loopback_question(server, timeout_ms=2000.0)
        response = resolve_once(question)
    assert response.latency_ms < question.timeout_ms + JITTER_MS


def test_first_address_helper():
    with mocknet.MockDnsServer(answer_script()) as server:
        response = resolve_once(loopback_question(server))
    assert isinstance(response, TimedDnsResponse)
    assert response.first_address(IpVersion.V4) == "192.0.2.10"
    assert response.first_address(IpVersion.V6) is None
