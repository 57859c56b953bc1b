"""CDN edge assignment and client-to-edge mapping latency.

The edge server a client is mapped to is whatever address the first
non-prewarming DNS response handed back; mapping latency is the median of
timed TCP handshakes to that address.  Kernel connect() completion is the
portable stand-in for the SYN to SYN/ACK round trip.
"""

from __future__ import annotations

import errno
import socket
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .resolve import TimedDnsResponse
from .wire import IpVersion, RecordType


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


@dataclass
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


def measure_handshake(
    address: str,
    port: int = 443,
    timeout_ms: float = 5000.0,
    *,
    socket_factory=socket.socket,
) -> HandshakeSample:
    """Time TCP connection establishment to (address, port).

    The clock runs from connect initiation to connect completion on a
    monotonic source; the socket is closed immediately after.  Failures are
    folded into success=False with an error kind, never raised.

    socket_factory exists so tests can interpose delay or fault injection;
    production callers leave it alone.
    """
    family = socket.AF_INET if IpVersion.of_address(address) is IpVersion.V4 else socket.AF_INET6
    sock = socket_factory(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout_ms / 1000.0)
        start = time.perf_counter()
        try:
            sock.connect((address, port))
        except socket.timeout:
            return HandshakeSample(address, port, None, False, HandshakeFailure.TIMEOUT)
        except ConnectionRefusedError:
            return HandshakeSample(address, port, None, False, HandshakeFailure.REFUSED)
        except OSError as exc:
            if exc.errno in (errno.ETIMEDOUT,):
                return HandshakeSample(address, port, None, False, HandshakeFailure.TIMEOUT)
            if exc.errno == errno.ECONNREFUSED:
                return HandshakeSample(address, port, None, False, HandshakeFailure.REFUSED)
            return HandshakeSample(address, port, None, False, HandshakeFailure.UNREACHABLE)
        rtt_ms = (time.perf_counter() - start) * 1000.0
    finally:
        sock.close()
    return HandshakeSample(address, port, rtt_ms, True)


def mapping_latency(samples: list[HandshakeSample]) -> float:
    """Median RTT over the successful samples.

    Even-length inputs take the mean of the two middle values (degraded
    sets only; the protocol normally supplies an odd count).
    """
    rtts = [s.rtt_ms for s in samples if s.success]
    if not rtts:
        raise NoSuccessError("no successful handshake samples")
    return statistics.median(rtts)
