"""resolve_once and DnsExchange against scripted loopback resolvers.

Each reading is compared with the hold the mock measured for its reply:
it may not be shorter, and may exceed it by at most 5 ms of loopback
delivery and scheduling, the same bound as the end-to-end suite.
"""

import socket
import time
import types

import pytest

import mocknet
from dnscdn import resolve
from dnscdn.resolve import (
    DnsExchange,
    NetworkUnreachableError,
    QueryTimeoutError,
    TimedDnsResponse,
    resolve_once,
    wait_ready,
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
    assert 30.0 <= response.latency_ms
    mocknet.assert_tracks_holds(mocknet.excess_ms(server.served, [response]), JITTER_MS)
    assert response.sent_at_wall > 0
    assert not response.truncated_retried


def late_reading(server, stall_s, stamp=None):
    """One exchange whose on_ready runs stall_s after select() reported the
    reply.  It is handed stamp(exchange), by default the moment the stall
    ends, as its select() stamp.  Returns that stamp, the exchange and the
    response."""
    exchange = DnsExchange(loopback_question(server))
    try:
        exchange.start()
        assert wait_ready(exchange.sock, exchange.events, exchange.deadline) is not None
        time.sleep(stall_s)
        handed = time.perf_counter() if stamp is None else stamp(exchange)
        return handed, exchange, exchange.on_ready(handed)
    finally:
        exchange.close()


def test_a_late_wake_up_stays_out_of_the_reading():
    # The reply is in 5 ms after the send; the loop learns of it 20 ms late.
    with mocknet.MockDnsServer(answer_script(), delay_ms=5.0) as server:
        stamp, exchange, response = late_reading(server, 0.02)
    assert 5.0 <= response.latency_ms
    mocknet.assert_tracks_holds(mocknet.excess_ms(server.served, [response]), JITTER_MS)
    assert (stamp - exchange.sent_at) * 1000.0 >= 5.0 + 20.0


def assert_select_reading(stamp, exchange, response):
    assert response is not None
    assert response.latency_ms == (stamp - exchange.sent_at) * 1000.0


def test_refused_stamp_option_falls_back_to_the_select_stamp(monkeypatch):
    monkeypatch.setattr(resolve, "_SO_TIMESTAMPNS", 0x7FFF)  # an option no kernel has
    with mocknet.MockDnsServer(answer_script(), delay_ms=5.0) as server:
        assert_select_reading(*late_reading(server, 0.02))


def test_datagram_without_a_stamp_falls_back_to_the_select_stamp(monkeypatch):
    start = DnsExchange.start

    def start_unstamped(self):
        start(self)
        self.sock.setsockopt(socket.SOL_SOCKET, mocknet.SO_TIMESTAMPNS, 0)

    monkeypatch.setattr(DnsExchange, "start", start_unstamped)
    with mocknet.MockDnsServer(answer_script(), delay_ms=5.0) as server:
        assert_select_reading(*late_reading(server, 0.02))


def test_stamp_after_the_select_stamp_is_not_used():
    # Handed a stamp from before the reply arrived, the kernel's is later.
    with mocknet.MockDnsServer(answer_script(), delay_ms=5.0) as server:
        reading = late_reading(server, 0.0, stamp=lambda exchange: exchange.sent_at + 1e-4)
    assert_select_reading(*reading)
    assert reading[2].latency_ms == pytest.approx(0.1)


def test_stamp_before_the_send_is_not_used(monkeypatch):
    # A wall clock stepped 10 s ahead between the kernel's stamp and the
    # reading puts the converted stamp before the send.
    shifted = types.SimpleNamespace(**vars(time))
    shifted.time_ns = lambda: time.time_ns() + 10_000_000_000
    monkeypatch.setattr(resolve, "time", shifted)
    with mocknet.MockDnsServer(answer_script(), delay_ms=5.0) as server:
        assert_select_reading(*late_reading(server, 0.02))


def test_decode_cost_stays_out_of_the_reading(monkeypatch):
    decode = resolve.decode_response

    def slow_decode(data):
        time.sleep(0.02)
        return decode(data)

    monkeypatch.setattr(resolve, "decode_response", slow_decode)
    with mocknet.MockDnsServer(answer_script(), delay_ms=20.0) as server:
        responses = [resolve_once(loopback_question(server)) for _ in range(3)]
    excess = mocknet.excess_ms(server.served, responses)
    # A clock that ran through the decode would read at least 20 ms over.
    assert all(20.0 <= r.latency_ms for r in responses)
    assert all(e < 20.0 for e in excess)
    mocknet.assert_tracks_holds(excess, JITTER_MS, median=True)


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
