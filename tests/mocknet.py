"""Mock network pieces shared by the test suite.

The DNS byte builders here are written against RFC 1035 directly with
struct, on purpose: they must not reuse the package's own encoder, so a
round-trip through them is an independent check rather than a tautology.
"""

import errno
import heapq
import itertools
import os
import socket
import statistics
import struct
import sys
import threading
import time
from dataclasses import dataclass, field

from dnscdn.mapping import HandshakeAttempt

A, NS, CNAME, TXT, AAAA = 1, 2, 5, 16, 28

# Linux's SO_TIMESTAMPNS, for which Python has no constant: the kernel
# stamps each datagram with its CLOCK_REALTIME arrival, as a timespec.
# Option 35 means something else on other systems.
SO_TIMESTAMPNS = 35 if sys.platform == "linux" else None
_TIMESPEC = struct.Struct("@ll")


def name_bytes(name: str) -> bytes:
    if not name.rstrip("."):
        return b"\x00"  # the root
    out = b""
    for label in name.rstrip(".").split("."):
        out += struct.pack("!B", len(label)) + label.encode("ascii")
    return out + b"\x00"


def rdata_bytes(rtype: int, rdata) -> bytes:
    """Wire rdata from its text form; bytes are taken as they are."""
    if isinstance(rdata, bytes):
        return rdata
    if rtype == A:
        return socket.inet_aton(rdata)
    if rtype == AAAA:
        return socket.inet_pton(socket.AF_INET6, rdata)
    if rtype in (NS, CNAME):
        return name_bytes(rdata)
    if rtype == TXT:
        return b"".join(struct.pack("!B", len(s)) + s.encode("ascii") for s in rdata)
    return rdata


def build_response(
    txid: int,
    qname: str,
    qtype: int,
    answers,
    rcode: int = 0,
    tc: bool = False,
    compress_answer_names: bool = False,
) -> bytes:
    """Answers are (name, rtype, ttl, rdata) tuples.

    compress_answer_names replaces any answer name equal to qname with a
    pointer to the question name at offset 12.
    """
    flags = 0x8180 | (0x0200 if tc else 0) | (rcode & 0xF)
    out = struct.pack("!HHHHHH", txid, flags, 1, len(answers), 0, 0)
    out += name_bytes(qname) + struct.pack("!HH", qtype, 1)
    for name, rtype, ttl, rdata in answers:
        if compress_answer_names and name.rstrip(".").lower() == qname.rstrip(".").lower():
            out += struct.pack("!H", 0xC000 | 12)
        else:
            out += name_bytes(name)
        payload = rdata_bytes(rtype, rdata)
        out += struct.pack("!HHIH", rtype, 1, ttl, len(payload)) + payload
    return out


def parse_query(data: bytes):
    """(txid, qname, qtype) of a request; crude but independent."""
    txid = struct.unpack("!H", data[:2])[0]
    pos = 12
    labels = []
    while data[pos]:
        n = data[pos]
        labels.append(data[pos + 1 : pos + 1 + n].decode("ascii"))
        pos += 1 + n
    pos += 1
    qtype = struct.unpack("!H", data[pos : pos + 2])[0]
    return txid, ".".join(labels), qtype


@dataclass
class Served:
    """One query the mock took in, stamped on the perf_counter clock.

    A UDP query arrives at the kernel's receive stamp; a TCP query once it
    has been read whole.  replied_at is taken right before the reply's
    send, so the measured hold (replied_at - arrived_at) covers the
    scripted delay with however far the mock overshot it, and any wait for
    the mock's thread.  It stays None for a dropped query.
    """

    host: str
    qname: str
    qtype: int
    arrived_at: float
    replied_at: float | None = None

    @property
    def hold_ms(self) -> float:
        return (self.replied_at - self.arrived_at) * 1000.0


def served_for(served, response) -> Served:
    """The one query in served that a TimedDnsResponse timed: same resolver
    address, name and type, arrived between its send and its reading's end."""
    question = response.question
    end = response.sent_at_monotonic + response.latency_ms / 1000.0
    (match,) = [
        s
        for s in served
        if s.host == question.resolver_address
        and s.qname.lower() == question.qname.rstrip(".").lower()
        and s.qtype == int(question.qtype)
        and response.sent_at_monotonic < s.arrived_at < end
    ]
    return match


def excess_ms(served, responses) -> list[float]:
    """Each reading minus the hold the mock measured for it."""
    return [r.latency_ms - served_for(served, r).hold_ms for r in responses]


def assert_tracks_holds(excess, jitter_ms, *, median=False):
    """No reading is shorter than its measured hold, and each (or, with
    median, their median) exceeds it by at most jitter_ms."""
    assert min(excess) >= 0.0, excess
    assert (statistics.median(excess) if median else max(excess)) <= jitter_ms, excess


def _arrival(ancdata) -> float:
    """A datagram's kernel receive stamp on the perf_counter clock, or the
    present moment when the kernel gave none.  The wall clock is read first,
    so a pause between the two reads makes the stamp late, never early."""
    wall_ns, now = time.time_ns(), time.perf_counter()
    for level, kind, data in ancdata:
        if (level, kind) == (socket.SOL_SOCKET, SO_TIMESTAMPNS) and len(data) >= _TIMESPEC.size:
            sec, nsec = _TIMESPEC.unpack_from(data)
            return now - (wall_ns - sec * 1_000_000_000 - nsec) / 1e9
    return now


@dataclass
class MockReply:
    answers: list = field(default_factory=list)  # (name, rtype, ttl, rdata)
    rcode: int = 0
    tc: bool = False
    delay_ms: float = 0.0
    wrong_txid_first: bool = False  # sends a bogus datagram before the real one
    compress_answer_names: bool = False
    raw_tail: bytes | None = None  # txid + these bytes sent verbatim instead


def constant_script(answers, rcode=0):
    def script(qname, qtype, count):
        return MockReply(answers=answers, rcode=rcode)

    return script


class MockDnsServer:
    """Scriptable UDP (and optionally TCP) resolver on the loopback.

    script(qname, qtype, count) -> MockReply | None decides each reply;
    count is how many queries for that (qname, qtype) came before.  None
    drops the query.  The TCP side answers length-prefixed queries with
    the same script, tc stripped — pair it with a tc=True UDP reply to
    exercise truncation retry.

    Every query taken in is appended to `served` (a fresh list unless one
    is passed, so servers can share it) with its measured hold.
    """

    def __init__(
        self,
        script=None,
        delay_ms: float = 0.0,
        host: str = "127.0.0.1",
        tcp: bool = False,
        port: int = 0,
        served: list | None = None,
    ):
        self.script = script or constant_script([])
        self.delay_ms = delay_ms
        self.host = host
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._udp, self._tcp = self._bind(family, port, tcp)
        self._udp.settimeout(0.05)
        if SO_TIMESTAMPNS:
            self._udp.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
        self.port = self._udp.getsockname()[1]
        self.served: list[Served] = [] if served is None else served
        self._counts: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._udp_loop, daemon=True)]
        if tcp:
            self._tcp.listen(8)
            self._tcp.settimeout(0.05)
            self._threads.append(threading.Thread(target=self._tcp_loop, daemon=True))
        for t in self._threads:
            t.start()

    def _bind(self, family, port, tcp, attempts=5):
        """A UDP socket bound to port and, with tcp, a TCP one on the same
        port.  A drawn port (port 0) may be taken for TCP by some other
        socket; then both are closed and another port is drawn."""
        for attempt in range(attempts):
            udp = socket.socket(family, socket.SOCK_DGRAM)
            udp.bind((self.host, port))
            if not tcp:
                return udp, None
            stream = socket.socket(family, socket.SOCK_STREAM)
            stream.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                stream.bind((self.host, udp.getsockname()[1]))
                return udp, stream
            except OSError:
                udp.close()
                stream.close()
                if port or attempt == attempts - 1:
                    raise

    @property
    def address(self):
        return self.host

    def _next_count(self, qname, qtype):
        with self._lock:
            key = (qname.lower(), qtype)
            count = self._counts.get(key, 0)
            self._counts[key] = count + 1
            return count

    def _render(self, data, arrived_at, *, allow_tc):
        """The reply's bytes, its MockReply and its Served entry, after the
        hold; (None, None, None) when the script drops the query."""
        txid, qname, qtype = parse_query(data)
        served = Served(self.host, qname, qtype, arrived_at)
        with self._lock:
            self.served.append(served)
        reply = self.script(qname, qtype, self._next_count(qname, qtype))
        if reply is None:
            return None, None, None
        if reply.raw_tail is not None:
            wire = struct.pack("!H", txid) + reply.raw_tail
        else:
            wire = build_response(
                txid,
                qname,
                qtype,
                reply.answers if not (reply.tc and allow_tc) else [],
                rcode=reply.rcode,
                tc=reply.tc and allow_tc,
                compress_answer_names=reply.compress_answer_names,
            )
        # The reply is built before the hold, so the hold ends in a bare send.
        total_delay = (self.delay_ms + reply.delay_ms) / 1000.0
        if total_delay:
            time.sleep(total_delay)
        return wire, reply, served

    def _udp_loop(self):
        while not self._stop.is_set():
            try:
                data, ancdata, _, peer = self._udp.recvmsg(4096, socket.CMSG_SPACE(_TIMESPEC.size))
            except (socket.timeout, OSError):
                continue
            wire, reply, served = self._render(data, _arrival(ancdata), allow_tc=True)
            if wire is None:
                continue
            served.replied_at = time.perf_counter()
            if reply.wrong_txid_first:
                bogus = bytearray(wire)
                bogus[0] ^= 0xFF
                self._udp.sendto(bytes(bogus), peer)
            self._udp.sendto(wire, peer)

    def _tcp_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._tcp.accept()
            except (socket.timeout, OSError):
                continue
            try:
                conn.settimeout(1.0)
                raw_len = conn.recv(2)
                if len(raw_len) < 2:
                    continue
                need = struct.unpack("!H", raw_len)[0]
                data = b""
                while len(data) < need:
                    chunk = conn.recv(need - len(data))
                    if not chunk:
                        break
                    data += chunk
                wire, _, served = self._render(data, time.perf_counter(), allow_tc=False)
                if wire is not None:
                    served.replied_at = time.perf_counter()
                    conn.sendall(struct.pack("!H", len(wire)) + wire)
            finally:
                conn.close()

    def close(self):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=1.0)
        self._udp.close()
        if self._tcp is not None:
            self._tcp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class MockTcpListener:
    """A listening socket so connect() succeeds; connections are drained."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._sock.settimeout(0.05)
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
                conn.close()
            except (socket.timeout, OSError):
                continue

    def close(self):
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _Timers:
    """One daemon thread that runs callbacks at perf_counter deadlines."""

    def __init__(self):
        self._cond = threading.Condition()
        self._due = []  # heap of (when, seq, fn)
        self._seq = itertools.count()
        threading.Thread(target=self._run, daemon=True).start()

    def call_at(self, when, fn):
        with self._cond:
            heapq.heappush(self._due, (when, next(self._seq), fn))
            self._cond.notify()

    def _run(self):
        while True:
            with self._cond:
                while not self._due or self._due[0][0] > time.perf_counter():
                    self._cond.wait(self._due[0][0] - time.perf_counter() if self._due else None)
                _, _, fn = heapq.heappop(self._due)
            fn()


_timers = None


def _shared_timers() -> _Timers:
    global _timers
    if _timers is None:
        _timers = _Timers()
    return _timers


class _DelayedConnectSocket:
    """A TCP socket whose non-blocking connect completes delay_s late.

    The loopback kernel answers SYNs itself, so an accept-side delay never
    shows up in connect timing; the delay has to be injected on the client
    side, and without blocking the caller's event loop.  connect_ex()
    starts the real connect and reports it in progress.  fileno() is the
    write end of a pipe kept full until a timer drains it delay_s later,
    so a selector sees the socket writable only then; SO_ERROR is the real
    connect's outcome.  connect_at and fired_at (perf_counter) record when
    connect_ex() was called and when the timer actually began to drain the
    pipe.
    """

    def __init__(self, sock, delay_s: float):
        self._sock = sock
        self._delay_s = delay_s
        self.connect_at = self.fired_at = None
        self._error = 0
        self._lock = threading.Lock()
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)
        try:
            while True:
                os.write(self._write_fd, bytes(65536))
        except BlockingIOError:
            pass

    def setblocking(self, flag):
        self._sock.setblocking(flag)

    @property
    def hold_ms(self) -> float:
        return (self.fired_at - self.connect_at) * 1000.0

    def connect_ex(self, address):
        self.connect_at = time.perf_counter()
        err = self._sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS):
            self._error = err
        _shared_timers().call_at(time.perf_counter() + self._delay_s, self._fire)
        return errno.EINPROGRESS

    def _fire(self):
        with self._lock:
            if self._read_fd is None:
                return  # closed before its time
            # Stamped before the first read, which already makes the
            # socket writable.
            self.fired_at = time.perf_counter()
            try:
                while os.read(self._read_fd, 65536):
                    pass
            except BlockingIOError:
                pass

    def fileno(self):
        return self._write_fd

    def getsockopt(self, level, option, *args):
        if (level, option) == (socket.SOL_SOCKET, socket.SO_ERROR) and self._error:
            return self._error
        return self._sock.getsockopt(level, option, *args)

    def close(self):
        with self._lock:
            if self._read_fd is not None:
                os.close(self._read_fd)
                os.close(self._write_fd)
                self._read_fd = None
        self._sock.close()


def delayed_socket_factory(delay_ms: float):
    def factory(family, type_, *args, **kwargs):
        return _DelayedConnectSocket(socket.socket(family, type_, *args, **kwargs), delay_ms / 1000.0)

    return factory


def record_timed_sockets(monkeypatch) -> dict:
    """Wrap HandshakeAttempt.on_ready, through monkeypatch, so that the dict
    returned maps id(sample) of each sample it makes to the sample and the
    socket that sample timed.  The samples are kept, so no id is reused."""
    on_ready = HandshakeAttempt.on_ready
    timed = {}

    def recording_on_ready(self, stamp):
        sample = on_ready(self, stamp)
        timed[id(sample)] = (sample, self.sock)
        return sample

    monkeypatch.setattr(HandshakeAttempt, "on_ready", recording_on_ready)
    return timed


def handshake_excess_ms(samples, timed) -> list[float]:
    """Each handshake reading minus the hold its own socket measured; timed
    comes from record_timed_sockets."""
    return [s.rtt_ms - timed[id(s)][1].hold_ms for s in samples]
