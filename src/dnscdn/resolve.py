"""Timed DNS queries over UDP with TCP fallback on truncation.

A DnsExchange is one query as two non-blocking steps: start() sends it,
and on_ready(stamp) consumes what its socket holds once a selector has
reported it ready.  The reading's clock starts right before the send,
after the socket is opened and connected.  On Linux a UDP reading stops
at the kernel's receive stamp of the reply (SO_TIMESTAMPNS), so neither
the tool's decoding nor a late wake-up of its loop shows up in a
latency.  Where there is no such stamp (another system, the option
refused, no ancillary data) or it falls outside (send, stamp], and for
the TCP retry, the clock stops at `stamp`, the moment select() returned,
before the reply is read or decoded.  The campaign loop runs many
exchanges at once; resolve_once drives a single one to completion.

The tool's own lookups (preflight, discovery, resolver identification,
authoritative TTLs) go through ask, which builds the question from its
parts, and treat QUERY_FAILURES, the campaign loop's failure rule, as
"no answer".

There are no retransmissions at this layer; retries are a campaign-level
concern so that each latency reading keeps clean semantics.
"""

from __future__ import annotations

import errno
import math
import os
import random
import selectors
import socket
import struct
import sys
import time
from dataclasses import dataclass

from .wire import (
    DEFAULT_TIMEOUT_MS,
    DnsQuestion,
    IpVersion,
    MalformedMessageError,
    RecordType,
    ResourceRecord,
    decode_response,
    encode_query,
)

_UDP_RECV_SIZE = 4096

# Linux's SO_TIMESTAMPNS: the kernel stamps each datagram with its
# CLOCK_REALTIME arrival, as a timespec.  Python has no constant for it,
# and 35 is another option elsewhere.
_SO_TIMESTAMPNS = 35 if sys.platform == "linux" else None
_TIMESPEC = struct.Struct("@ll")
_STAMP_SPACE = socket.CMSG_SPACE(_TIMESPEC.size) if _SO_TIMESTAMPNS else None

# Transaction ids have their own generator, so code that seeds the random
# module's shared one does not fix them.
_txid_rng = random.Random()


class ResolveError(Exception):
    """Base class for resolve_once failures."""


class QueryTimeoutError(ResolveError):
    """No (matching) response arrived within the configured timeout."""


class NetworkUnreachableError(ResolveError):
    """The resolver address could not be reached at all."""


_UNREACH_ERRNOS = {
    errno.ENETUNREACH,
    errno.EHOSTUNREACH,
    errno.ECONNREFUSED,
    errno.EADDRNOTAVAIL,
    errno.EAFNOSUPPORT,
    errno.EACCES,
    errno.EPERM,
}

IN_PROGRESS_ERRNOS = {0, errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}

# What a query that was sent, or tried to be, can fail with.  A socket
# error outside _UNREACH_ERRNOS stays an OSError: EINVAL, for one, from an
# unscoped link-local address such as fe80::1.
QUERY_FAILURES = (ResolveError, MalformedMessageError, OSError)


def check_reading(name: str, value) -> None:
    """TypeError unless value is an int or a float (a bool is not a
    number), ValueError unless it is finite and at least 0: the rule for
    every latency reading a record holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")


@dataclass(slots=True)
class TimedDnsResponse:
    """One decoded DNS answer with its latency reading.

    latency_ms spans send to receipt; when truncated_retried is set it
    covers the whole UDP attempt plus the TCP retry, since that is the
    resolution time a client actually experiences.
    """

    question: DnsQuestion
    rcode: int
    answers: list[ResourceRecord]
    latency_ms: float
    sent_at_monotonic: float
    sent_at_wall: float
    truncated_retried: bool = False
    is_prewarm: bool = False

    def __post_init__(self):
        if type(self.latency_ms) is not float or not 0.0 <= self.latency_ms < math.inf:
            check_reading("latency_ms", self.latency_ms)  # the full rule, for what the fast test leaves

    def first_address(self, version: IpVersion) -> str | None:
        want = RecordType.A if version is IpVersion.V4 else RecordType.AAAA
        for record in self.answers:
            if record.rtype == want:
                return record.rdata  # type: ignore[return-value]
        return None


def _family(version: IpVersion) -> int:
    return socket.AF_INET if version is IpVersion.V4 else socket.AF_INET6


def _resolve_error(exc: OSError) -> OSError | ResolveError:
    """The exception to raise for a socket error: unreachable errnos become
    NetworkUnreachableError, anything else stays as it is."""
    if isinstance(exc, ConnectionRefusedError) or exc.errno in _UNREACH_ERRNOS:
        return NetworkUnreachableError(str(exc))
    return exc


def wait_ready(fileobj, events: int, deadline: float) -> float | None:
    """Block until fileobj is ready for events or the perf_counter deadline
    passes.  Returns the perf_counter reading taken as select() returned,
    or None on timeout."""
    with selectors.DefaultSelector() as selector:
        selector.register(fileobj, events)
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                return None
            if selector.select(left):
                return time.perf_counter()


class DnsExchange:
    """One query in flight, as a send step and an on-ready step.

    After start(), the driver watches `sock` for `events` until `deadline`
    (a perf_counter reading) and calls on_ready(stamp) each time select()
    reports it ready.  on_ready returns the TimedDnsResponse once the
    answer is complete and None while the exchange waits on: a reply with
    a mismatched transaction id is dropped, and a truncated (TC=1) reply
    moves the exchange to TCP, which replaces `sock` and `events`.  Failures
    raise NetworkUnreachableError, MalformedMessageError or OSError; the
    driver raises QueryTimeoutError itself when the deadline passes.
    close() releases the socket.
    """

    def __init__(self, question: DnsQuestion):
        # A family mismatch must never generate traffic; revalidate even though
        # DnsQuestion checks at construction (the dataclass is mutable).
        if IpVersion.of_address(question.resolver_address) is not question.transport_version:
            raise ValueError("resolver address family does not match transport_version")
        self.question = question
        self.txid = _txid_rng.randrange(0, 0x10000)
        self._payload = encode_query(question, self.txid)
        self.sock = None
        self.events = selectors.EVENT_READ
        self.sent_at = self.sent_at_wall = self.deadline = 0.0
        self._step = self._read_udp
        self._tcp_out = self._tcp_in = b""

    def _peer(self) -> tuple[str, int]:
        return (self.question.resolver_address, self.question.resolver_port)

    def _open(self, kind: int):
        sock = socket.socket(_family(self.question.transport_version), kind)
        sock.setblocking(False)
        if kind == socket.SOCK_DGRAM and _SO_TIMESTAMPNS:
            try:
                sock.setsockopt(socket.SOL_SOCKET, _SO_TIMESTAMPNS, 1)
            except OSError:
                pass  # read on without kernel stamps
        return sock

    def start(self) -> None:
        """Send the query over UDP; the clock starts right before the send."""
        try:
            self.sock = self._open(socket.SOCK_DGRAM)
            self.sock.connect(self._peer())
            self.sent_at_wall = time.time()
            self.sent_at = time.perf_counter()
            self.deadline = self.sent_at + self.question.timeout_ms / 1000.0
            self.sock.send(self._payload)
        except OSError as exc:
            raise _resolve_error(exc) from exc

    def on_ready(self, stamp: float) -> TimedDnsResponse | None:
        return self._step(stamp)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()

    def _answer(self, message, stamp: float, truncated_retried: bool) -> TimedDnsResponse:
        return TimedDnsResponse(
            question=self.question,
            rcode=message.rcode,
            answers=message.answers,
            latency_ms=(stamp - self.sent_at) * 1000.0,
            sent_at_monotonic=self.sent_at,
            sent_at_wall=self.sent_at_wall,
            truncated_retried=truncated_retried,
        )

    def _read_udp(self, stamp: float) -> TimedDnsResponse | None:
        while True:
            try:
                if _SO_TIMESTAMPNS:
                    data, ancdata, flags, _ = self.sock.recvmsg(_UDP_RECV_SIZE, _STAMP_SPACE)
                else:  # recvmsg is not on every system
                    data, ancdata, flags = self.sock.recv(_UDP_RECV_SIZE), (), 0
            except BlockingIOError:
                return None  # only stray datagrams were waiting
            except OSError as exc:
                raise _resolve_error(exc) from exc
            wall_ns, now = time.time_ns(), time.perf_counter()
            if len(data) >= 2 and struct.unpack_from("!H", data)[0] != self.txid:
                continue  # stray or spoofed reply; keep waiting
            message = decode_response(data)
            if not message.truncated:
                received = self._received_at(ancdata, flags, wall_ns, now, stamp)
                return self._answer(message, received, truncated_retried=False)
            self._start_tcp()
            return None

    def _received_at(self, ancdata, flags: int, wall_ns: int, now: float, stamp: float) -> float:
        """The datagram's kernel receive stamp on the perf_counter clock,
        converted with the wall-clock and perf_counter pair (wall_ns, now)
        read right after recvmsg; `stamp` when there is none, or when it
        does not fall in (sent_at, stamp]."""
        if not ancdata or flags & socket.MSG_CTRUNC:
            return stamp
        for level, kind, data in ancdata:
            if (level, kind) == (socket.SOL_SOCKET, _SO_TIMESTAMPNS) and len(data) >= _TIMESPEC.size:
                sec, nsec = _TIMESPEC.unpack_from(data)
                received = now - (wall_ns - sec * 1_000_000_000 - nsec) / 1e9
                if self.sent_at < received <= stamp:
                    return received
        return stamp

    def _start_tcp(self) -> None:
        """Re-ask the same question over TCP (RFC 1035 2-byte length framing)."""
        self.txid = _txid_rng.randrange(0, 0x10000)
        payload = encode_query(self.question, self.txid)
        self._tcp_out = struct.pack("!H", len(payload)) + payload
        udp = self.sock
        try:
            self.sock = self._open(socket.SOCK_STREAM)
            err = self.sock.connect_ex(self._peer())
        except OSError as exc:
            raise _resolve_error(exc) from exc
        finally:
            udp.close()
        if err not in IN_PROGRESS_ERRNOS:
            raise _resolve_error(OSError(err, os.strerror(err)))
        self.events = selectors.EVENT_WRITE
        self._step = self._send_tcp

    def _send_tcp(self, stamp: float) -> None:
        err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            raise _resolve_error(OSError(err, os.strerror(err)))
        try:
            sent = self.sock.send(self._tcp_out)
        except BlockingIOError:
            return None
        except OSError as exc:
            raise _resolve_error(exc) from exc
        self._tcp_out = self._tcp_out[sent:]
        if not self._tcp_out:
            self.events = selectors.EVENT_READ
            self._step = self._read_tcp
        return None

    def _read_tcp(self, stamp: float) -> TimedDnsResponse | None:
        try:
            chunk = self.sock.recv(_UDP_RECV_SIZE)
        except BlockingIOError:
            return None
        except OSError as exc:
            raise _resolve_error(exc) from exc
        if not chunk:
            raise MalformedMessageError("TCP stream closed mid-message")
        self._tcp_in += chunk
        if len(self._tcp_in) < 2:
            return None
        (length,) = struct.unpack_from("!H", self._tcp_in)
        if len(self._tcp_in) < 2 + length:
            return None
        message = decode_response(self._tcp_in[2 : 2 + length])
        if message.txid != self.txid:
            raise MalformedMessageError("TCP reply has mismatched transaction id")
        return self._answer(message, stamp, truncated_retried=True)


def resolve_once(question: DnsQuestion) -> TimedDnsResponse:
    """Send one UDP query and time the answer, blocking.

    On a truncated (TC=1) reply the identical question is retried over TCP
    and the reported latency covers the combined span.  Replies whose
    transaction id does not match are discarded and the wait continues.

    Raises QueryTimeoutError, NetworkUnreachableError,
    MalformedMessageError, or another OSError (QUERY_FAILURES).
    """
    exchange = DnsExchange(question)
    try:
        exchange.start()
        while True:
            stamp = wait_ready(exchange.sock, exchange.events, exchange.deadline)
            if stamp is None:
                raise QueryTimeoutError("query timed out")
            response = exchange.on_ready(stamp)
            if response is not None:
                return response
    finally:
        exchange.close()


def ask(
    qname: str,
    qtype: RecordType,
    resolver_address: str,
    *,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    port: int = 53,
) -> TimedDnsResponse:
    """resolve_once for the question these parts make.  A name or address
    the question rejects raises InvalidNameError or ValueError before
    anything is sent."""
    return resolve_once(
        DnsQuestion(qname, qtype, resolver_address, timeout_ms=timeout_ms, resolver_port=port)
    )
