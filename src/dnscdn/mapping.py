"""CDN edge assignment and client-to-edge mapping latency.

The edge a client is mapped to is an address: the first address record
of the earliest non-prewarm DNS response that has one (select_edge).
The campaign connects to it, and the diversity report counts it per
website, resolver and family.  Mapping latency is the median of timed
TCP handshakes to it.  Kernel connect() completion is the portable
stand-in for the SYN to SYN/ACK round trip: a HandshakeAttempt starts a
non-blocking connect and stops its clock at the select() return that
reports the socket writable, reading the outcome from SO_ERROR.  The
campaign loop runs many attempts at once; measure_handshake drives one.
"""

from __future__ import annotations

import errno
import math
import selectors
import socket
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .resolve import IN_PROGRESS_ERRNOS, TimedDnsResponse, check_reading, wait_ready
from .wire import DEFAULT_TIMEOUT_MS, IpVersion


class NoSuccessError(Exception):
    """Every handshake sample in the set failed."""


class HandshakeFailure(Enum):
    TIMEOUT = "timeout"
    REFUSED = "refused"
    UNREACHABLE = "unreachable"


@dataclass(slots=True)
class HandshakeSample:
    """One timed TCP connect attempt; rtt_ms is present iff it succeeded."""

    address: str
    port: int
    rtt_ms: float | None
    success: bool
    error_kind: HandshakeFailure | None = None

    def __post_init__(self):
        if self.success != (self.rtt_ms is not None):
            raise ValueError("rtt_ms must be present exactly when success is set")
        rtt = self.rtt_ms
        if rtt is not None and (type(rtt) is not float or not 0.0 <= rtt < math.inf):
            check_reading("rtt_ms", rtt)  # the full rule, for what the fast test leaves


def select_edge(dns_results: list[TimedDnsResponse], ip_version: IpVersion) -> str | None:
    """The edge address: first address record (wire order) of the
    earliest-sent non-prewarm response that has one of this family.

    Depends only on send timestamps and answer order; the sort is stable,
    so list order decides only between equal stamps.  None when no such
    response carries an address record.  The address needs no family
    check here: ResourceRecord holds A rdata to IPv4 text and AAAA rdata
    to IPv6 text.
    """
    answered = sorted((r for r in dns_results if not r.is_prewarm), key=lambda r: r.sent_at_monotonic)
    for result in answered:
        address = result.first_address(ip_version)
        if address is not None:
            return address
    return None


class HandshakeAttempt:
    """One timed TCP connect, as a start step and an on-writable step.

    start() opens the socket through socket_factory, starts the clock and
    initiates a non-blocking connect.  If the connect settles at once,
    `sample` is set there; otherwise the driver watches `sock` for
    writability until `deadline` (a perf_counter reading) and calls
    finish(stamp) with the select() return time, or finish(None) when the
    deadline passed.  Failures are folded into success=False with an
    error kind, never raised.  close() releases the socket.
    """

    def __init__(
        self, address: str, port: int = 443, timeout_ms: float = DEFAULT_TIMEOUT_MS, *, socket_factory=socket.socket
    ):
        self.address = address
        self.port = port
        self._timeout_s = timeout_ms / 1000.0
        self._socket_factory = socket_factory
        self.sock = None
        self.sample: HandshakeSample | None = None
        self.started_at = self.deadline = 0.0

    def start(self) -> None:
        v4 = IpVersion.of_address(self.address) is IpVersion.V4
        try:
            self.sock = self._socket_factory(socket.AF_INET if v4 else socket.AF_INET6, socket.SOCK_STREAM)
            self.sock.setblocking(False)
            self.started_at = time.perf_counter()
            self.deadline = self.started_at + self._timeout_s
            err = self.sock.connect_ex((self.address, self.port))
        except OSError as exc:
            err = exc.errno
        if err == 0:
            self.finish(time.perf_counter())
        elif err not in IN_PROGRESS_ERRNOS:
            self.sample = self._failed(err)

    def finish(self, stamp: float | None) -> HandshakeSample:
        if stamp is None:
            self.sample = self._failed(errno.ETIMEDOUT)
        else:
            err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            self.sample = (
                self._failed(err)
                if err
                else HandshakeSample(self.address, self.port, (stamp - self.started_at) * 1000.0, True)
            )
        return self.sample

    def _failed(self, err: int | None) -> HandshakeSample:
        kind = {
            errno.ETIMEDOUT: HandshakeFailure.TIMEOUT,
            errno.ECONNREFUSED: HandshakeFailure.REFUSED,
        }.get(err, HandshakeFailure.UNREACHABLE)
        return HandshakeSample(self.address, self.port, None, False, kind)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()


def measure_handshake(
    address: str,
    port: int = 443,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    *,
    socket_factory=socket.socket,
) -> HandshakeSample:
    """Time TCP connection establishment to (address, port), blocking.

    The clock runs from connect initiation to connect completion on a
    monotonic source; the socket is closed immediately after.  Failures are
    folded into success=False with an error kind, never raised.

    socket_factory exists so tests can interpose delay or fault injection;
    production callers leave it alone.  What it returns must offer
    setblocking, connect_ex, fileno, getsockopt(SO_ERROR) and close.
    """
    attempt = HandshakeAttempt(address, port, timeout_ms, socket_factory=socket_factory)
    try:
        attempt.start()
        if attempt.sample is None:
            attempt.finish(wait_ready(attempt.sock, selectors.EVENT_WRITE, attempt.deadline))
        return attempt.sample
    finally:
        attempt.close()


def mapping_latency(samples: list[HandshakeSample]) -> float:
    """Median RTT over the successful samples.

    Even-length inputs take the mean of the two middle values (degraded
    sets only; the protocol normally supplies an odd count).
    """
    rtts = [s.rtt_ms for s in samples if s.success]
    if not rtts:
        raise NoSuccessError("no successful handshake samples")
    return statistics.median(rtts)
