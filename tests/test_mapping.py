"""Edge selection and handshake timing."""

import errno
import os
import random
import socket
import time

import pytest

import mocknet
from factories import make_response
from dnscdn.mapping import (
    EdgeAssignment,
    HandshakeFailure,
    HandshakeSample,
    NoAddressError,
    NoSuccessError,
    mapping_latency,
    measure_handshake,
    select_edge,
)
from dnscdn.wire import IpVersion, RecordType, ResourceRecord

JITTER_MS = 5.0


def cname_only(sent_at, qname="www.example.com"):
    return make_response(
        10.0,
        sent_at,
        qname=qname,
        answers=[ResourceRecord(name=qname, rtype=int(RecordType.CNAME), ttl=300, rdata="x.cdn.example")],
    )


class TestSelectEdge:
    def test_first_nonprewarm_first_address(self):
        results = [
            make_response(9.0, 1.0, address="192.0.2.1", prewarm=True),
            make_response(
                9.0,
                16.0,
                answers=[
                    ResourceRecord(name="www.example.com", rtype=1, ttl=20, rdata="192.0.2.2"),
                    ResourceRecord(name="www.example.com", rtype=1, ttl=20, rdata="192.0.2.3"),
                ],
            ),
        ]
        edge = select_edge(results, IpVersion.V4)
        assert edge.address == "192.0.2.2"
        assert edge.source_response == 1

    def test_cname_only_responses_mean_no_address(self):
        results = [cname_only(1.0), cname_only(16.0)]
        with pytest.raises(NoAddressError):
            select_edge(results, IpVersion.V4)

    def test_skips_empty_response_to_next(self):
        results = [
            make_response(9.0, 16.0, answers=[]),
            make_response(9.0, 16.5, address="192.0.2.9"),
        ]
        edge = select_edge(results, IpVersion.V4)
        assert edge.address == "192.0.2.9"
        assert edge.source_response == 1

    def test_storage_order_is_irrelevant(self):
        rng = random.Random(7)
        results = [
            make_response(9.0, 1.0, address="192.0.2.1", prewarm=True),
            make_response(9.0, 16.0, address="192.0.2.2"),
            make_response(9.0, 16.5, address="192.0.2.3"),
            make_response(9.0, 17.0, address="192.0.2.4"),
        ]
        for _ in range(10):
            shuffled = results[:]
            rng.shuffle(shuffled)
            assert select_edge(shuffled, IpVersion.V4).address == "192.0.2.2"

    def test_family_filter(self):
        results = [
            make_response(
                9.0,
                16.0,
                answers=[
                    ResourceRecord(name="www.example.com", rtype=1, ttl=20, rdata="192.0.2.2"),
                    ResourceRecord(name="www.example.com", rtype=28, ttl=20, rdata="2001:db8::7"),
                ],
            )
        ]
        assert select_edge(results, IpVersion.V6).address == "2001:db8::7"

    def test_assignment_validates_family(self):
        with pytest.raises(ValueError):
            EdgeAssignment(
                website="w", resolver_label="r", ip_version=IpVersion.V6,
                address="192.0.2.1", source_response=0,
            )


class TestMeasureHandshake:
    def test_injected_delay_shows_in_rtt(self):
        with mocknet.MockTcpListener() as listener:
            sample = measure_handshake(
                listener.host,
                listener.port,
                socket_factory=mocknet.delayed_socket_factory(25.0),
            )
        assert sample.success
        assert 25.0 <= sample.rtt_ms <= 25.0 + JITTER_MS

    def test_plain_loopback_connect_succeeds_fast(self):
        with mocknet.MockTcpListener() as listener:
            sample = measure_handshake(listener.host, listener.port)
        assert sample.success
        assert sample.rtt_ms < JITTER_MS

    def test_closed_port_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sample = measure_handshake("127.0.0.1", port, timeout_ms=1000.0)
        assert not sample.success
        assert sample.rtt_ms is None
        assert sample.error_kind is HandshakeFailure.REFUSED

    def test_blackholed_address_times_out(self):
        # A true blackhole (SYNs vanishing) cannot be arranged hermetically,
        # so a socket whose connect never completes stands in for one: its
        # descriptor is a pipe's read end, which never turns writable.
        class _BlackholeSocket:
            def __init__(self):
                self._read_fd, self._write_fd = os.pipe()

            def setblocking(self, flag):
                pass

            def connect_ex(self, address):
                return errno.EINPROGRESS

            def fileno(self):
                return self._read_fd

            def close(self):
                os.close(self._read_fd)
                os.close(self._write_fd)

        start = time.perf_counter()
        sample = measure_handshake(
            "192.0.2.1", 443, timeout_ms=1000.0, socket_factory=lambda *a: _BlackholeSocket()
        )
        elapsed = time.perf_counter() - start
        assert not sample.success
        assert sample.rtt_ms is None
        assert sample.error_kind is HandshakeFailure.TIMEOUT
        assert 0.99 <= elapsed <= 1.5

    def test_ipv6_connect(self):
        with mocknet.MockTcpListener(host="::1") as listener:
            sample = measure_handshake(listener.host, listener.port)
        assert sample.success


class TestMappingLatency:
    def test_median_of_three(self):
        samples = [HandshakeSample("192.0.2.1", 443, rtt, True) for rtt in (12.0, 11.5, 30.0)]
        assert mapping_latency(samples) == 12.0

    def test_single_sample(self):
        assert mapping_latency([HandshakeSample("192.0.2.1", 443, 7.0, True)]) == 7.0

    def test_even_length_mean_of_middles(self):
        samples = [HandshakeSample("192.0.2.1", 443, rtt, True) for rtt in (10.0, 20.0)]
        assert mapping_latency(samples) == 15.0

    def test_failures_do_not_count(self):
        samples = [
            HandshakeSample("192.0.2.1", 443, 9.0, True),
            HandshakeSample("192.0.2.1", 443, None, False, HandshakeFailure.TIMEOUT),
        ]
        assert mapping_latency(samples) == 9.0

    def test_all_failed_raises(self):
        samples = [HandshakeSample("192.0.2.1", 443, None, False, HandshakeFailure.TIMEOUT)]
        with pytest.raises(NoSuccessError):
            mapping_latency(samples)

    def test_bounded_by_min_max_and_permutation_invariant(self):
        rng = random.Random(123)
        for _ in range(100):
            rtts = [rng.uniform(1, 60) for _ in range(rng.randint(1, 7))]
            samples = [HandshakeSample("192.0.2.1", 443, r, True) for r in rtts]
            value = mapping_latency(samples)
            assert min(rtts) <= value <= max(rtts)
            rng.shuffle(samples)
            assert mapping_latency(samples) == value

    def test_sample_invariant_rtt_iff_success(self):
        with pytest.raises(ValueError):
            HandshakeSample("192.0.2.1", 443, None, True)
        with pytest.raises(ValueError):
            HandshakeSample("192.0.2.1", 443, 4.0, False)
