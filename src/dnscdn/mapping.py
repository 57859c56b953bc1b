"""CDN edge assignment and client-to-edge mapping latency.

The edge server a client is mapped to is whatever address the first
non-prewarming DNS response handed back; mapping latency is the median of
timed TCP handshakes to that address.  Kernel connect() completion is the
portable stand-in for the SYN to SYN/ACK round trip: a HandshakeAttempt
starts a non-blocking connect and stops its clock at the select() return
that reports the socket writable, reading the outcome from SO_ERROR.  The
campaign loop runs many attempts at once; measure_handshake drives one.
"""

from __future__ import annotations

import errno
import selectors
import socket
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .resolve import IN_PROGRESS_ERRNOS, TimedDnsResponse, wait_ready
from .wire import DEFAULT_TIMEOUT_MS, IpVersion, RecordType


class NoAddressError(Exception):
    """No non-prewarm DNS response carried an address record."""


class NoSuccessError(Exception):
    """Every handshake sample in the set failed."""


class HandshakeFailure(Enum):
    TIMEOUT = "timeout"
    REFUSED = "refused"
    UNREACHABLE = "unreachable"


@dataclass
class EdgeAssignment:
    """The edge address derived from a measurement set's DNS responses."""

    website: str
    resolver_label: str
    ip_version: IpVersion
    address: str
    source_response: int  # index into the DNS results it was read from

    def __post_init__(self):
        if IpVersion.of_address(self.address) is not self.ip_version:
            raise ValueError("edge address family does not match ip_version")


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


def select_edge(
    dns_results: list[TimedDnsResponse],
    ip_version: IpVersion,
    *,
    website: str = "",
    resolver_label: str = "",
) -> EdgeAssignment:
    """Pick the edge address: first address record (wire order) of the
    earliest-timestamped non-prewarm response that has one.

    Depends only on send timestamps and answer order, so storage order of
    dns_results is irrelevant.  Raises NoAddressError if no response
    carries an address record of the right family.
    """
    candidates = [
        (result.sent_at_monotonic, index, result)
        for index, result in enumerate(dns_results)
        if not result.is_prewarm
    ]
    for _, index, result in sorted(candidates, key=lambda item: item[0]):
        address = result.first_address(ip_version)
        if address is not None:
            return EdgeAssignment(
                website=website or result.question.qname,
                resolver_label=resolver_label,
                ip_version=ip_version,
                address=address,
                source_response=index,
            )
    want = RecordType.A if ip_version is IpVersion.V4 else RecordType.AAAA
    raise NoAddressError(f"no {want.name} record in any non-prewarm response")


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
