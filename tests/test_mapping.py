"""Edge selection and handshake timing."""

import errno
import os
import random
import socket
import time

import pytest

import mocknet
from factories import make_response
from dnscdn import campaign
from dnscdn.campaign import MeasurementSpec, ResolverEntry, is_usable, run_campaign
from dnscdn.mapping import (
    HandshakeFailure,
    HandshakeSample,
    NoSuccessError,
    mapping_latency,
    measure_handshake,
    select_edge,
)
from dnscdn.wire import IpVersion, RecordType, ResourceRecord

JITTER_MS = 5.0


class _BlackholeSocket:
    """A true blackhole (SYNs vanishing) cannot be arranged hermetically,
    so a socket whose connect never completes stands in for one: its
    descriptor is a pipe's read end, which never turns writable."""

    def __init__(self, *args):
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


class _SettledSocket:
    """A socket whose connect settles at once with err; SO_ERROR reads 0."""

    def __init__(self, err):
        self._err = err

    def setblocking(self, flag):
        pass

    def connect_ex(self, address):
        return self._err

    def getsockopt(self, level, option):
        return 0

    def close(self):
        pass


class _ClockedSocket:
    """Wraps a socket and notes when its connect began and when it was
    closed, on the perf_counter clock."""

    def __init__(self, sock):
        self._sock = sock
        self.connect_at = self.closed_at = None

    def connect_ex(self, address):
        self.connect_at = time.perf_counter()
        return self._sock.connect_ex(address)

    def close(self):
        self.closed_at = time.perf_counter()
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


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
        assert select_edge(results, IpVersion.V4) == "192.0.2.2"

    def test_cname_only_responses_mean_no_address(self):
        results = [cname_only(1.0), cname_only(16.0)]
        assert select_edge(results, IpVersion.V4) is None

    def test_skips_empty_response_to_next(self):
        results = [
            make_response(9.0, 16.0, answers=[]),
            make_response(9.0, 16.5, address="192.0.2.9"),
        ]
        assert select_edge(results, IpVersion.V4) == "192.0.2.9"

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
            assert select_edge(shuffled, IpVersion.V4) == "192.0.2.2"

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
        assert select_edge(results, IpVersion.V6) == "2001:db8::7"


class TestMeasureHandshake:
    def test_injected_delay_shows_in_rtt(self, monkeypatch):
        timed = mocknet.record_timed_sockets(monkeypatch)
        with mocknet.MockTcpListener() as listener:
            sample = measure_handshake(
                listener.host, listener.port, socket_factory=mocknet.delayed_socket_factory(25.0)
            )
        assert sample.success
        assert 25.0 <= sample.rtt_ms
        mocknet.assert_tracks_holds(mocknet.handshake_excess_ms([sample], timed), JITTER_MS)

    def test_plain_loopback_connect_succeeds_fast(self):
        with mocknet.MockTcpListener() as listener:
            sample = measure_handshake(listener.host, listener.port)
        assert sample.success
        assert sample.rtt_ms < JITTER_MS

    def test_ipv6_connect(self):
        with mocknet.MockTcpListener(host="::1") as listener:
            sample = measure_handshake(listener.host, listener.port)
        assert sample.success


def record_connects(monkeypatch) -> list:
    """Wrap campaign._set_steps, through monkeypatch, so that the list
    returned collects every connect outcome the campaign loop sends a set,
    failed samples included (the set itself keeps only successes)."""
    samples = []
    set_steps = campaign._set_steps

    def recording(*args):
        steps, outcome = set_steps(*args), None
        while True:
            try:
                kind, arg = steps.send(outcome)
            except StopIteration as done:
                return done.value
            outcome = yield kind, arg
            if kind == campaign._CONNECT:
                samples.append(outcome)

    monkeypatch.setattr(campaign, "_set_steps", recording)
    return samples


# Each case: the socket the factory makes (given family and type), whether
# the handshake port is a closed one, the failure expected (None for
# success), and the bounds in seconds from connect_ex() to close().
HANDSHAKE_CASES = {
    "settles-at-once": (lambda *a: _SettledSocket(0), False, None, (0.0, 0.5)),
    "fails-at-once": (
        lambda *a: _SettledSocket(errno.ENETUNREACH), False, HandshakeFailure.UNREACHABLE, (0.0, 0.5)
    ),
    "refused": (socket.socket, True, HandshakeFailure.REFUSED, (0.0, 0.5)),
    "times-out": (_BlackholeSocket, False, HandshakeFailure.TIMEOUT, (0.99, 1.5)),
}


@pytest.mark.parametrize("driver", ["measure_handshake", "campaign-loop"])
@pytest.mark.parametrize("case", list(HANDSHAKE_CASES))
def test_every_handshake_outcome_through_both_drivers(case, driver, monkeypatch):
    make, refused, failure, (least_s, most_s) = HANDSHAKE_CASES[case]
    port = closed_port() if refused else 443
    clocked = []

    def factory(*args):
        clocked.append(_ClockedSocket(make(*args)))
        return clocked[-1]

    if driver == "measure_handshake":
        samples = [measure_handshake("127.0.0.1", port, timeout_ms=1000.0, socket_factory=factory)]
    else:
        # The v6 address is unscoped link-local, so every query to it fails
        # at its start (EINVAL) and its set has nothing to connect to.
        samples = record_connects(monkeypatch)
        script = mocknet.constant_script([("www.example.com", mocknet.A, 20, "127.0.0.1")])
        with mocknet.MockDnsServer(script) as dns:
            spec = MeasurementSpec(
                websites=[("akamai", "www.example.com")],
                resolvers=[ResolverEntry("local", "127.0.0.1", "fe80::1")],
                prewarm_gap_s=0.0,
                per_query_timeout_ms=1000.0,
                resolver_port=dns.port,
                handshake_port=port,
            )
            sets = run_campaign(spec, socket_factory=factory)
        v4, v6 = sorted(sets, key=lambda s: s.ip_version is IpVersion.V6)
        assert v6.ip_version is IpVersion.V6
        assert v6.dns_results == [] and v6.handshake_results == []
        assert len(v4.dns_results) == 4
        assert is_usable(v4) == (failure is None)
        assert len(samples) == spec.handshake_repeats
    assert len(clocked) == len(samples)
    for sample, sock in zip(samples, clocked):
        assert (sample.address, sample.port) == ("127.0.0.1", port)
        assert sample.success == (failure is None)
        assert sample.error_kind is failure
        assert (sample.rtt_ms is not None) == sample.success
        assert least_s <= sock.closed_at - sock.connect_at <= most_s


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
