"""Loopback DNS responder and handshake listener for the campaign workload.

Run as its own single-threaded process so its CPU never competes with
the measured program for the interpreter lock:

    python3 perfbench/responder.py SCRIPT.json

It answers DNS over UDP and TCP on 127.0.0.1 and ::1, all on one port,
and accepts TCP handshakes on a second port, then prints
{"dns_port": ..., "handshake_port": ...} on one line.  It exits when its
standard input closes.

SCRIPT.json maps each query name to a hold in ms and an optional
"tc" flag.  A held reply carries a CNAME, one address record (127.0.0.1
or ::1, so handshakes come back here) and a TXT record
"hold_us=<measured hold>", the time between reading the query and
sending the reply.  Reporting the measured hold rather than the scripted
one keeps the responder's timer slack out of the overhead figures.  A
"tc" site answers UDP at once with TC=1 and only the question, so the
client retries over TCP.  All traffic crosses the host's loopback
interface, never a real link.
"""

from __future__ import annotations

import heapq
import json
import os
import selectors
import socket
import struct
import sys
import time

import dnsbytes

EDGE_V4, EDGE_V6 = "127.0.0.1", "::1"
DEFAULT_HOLD_MS = 1.0


def _bind_pair(kind: int, port: int) -> list[socket.socket]:
    socks = []
    try:
        for family, host in ((socket.AF_INET, "127.0.0.1"), (socket.AF_INET6, "::1")):
            sock = socket.socket(family, kind)
            socks.append(sock)
            if family == socket.AF_INET6:
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            sock.bind((host, port))
            port = sock.getsockname()[1]
            if kind == socket.SOCK_STREAM:
                sock.listen(128)
            sock.setblocking(False)
    except OSError:
        for sock in socks:
            sock.close()
        raise
    return socks


def bind_all() -> tuple[list[socket.socket], list[socket.socket], list[socket.socket]]:
    """UDP and TCP DNS sockets sharing one port on both families, plus handshake listeners."""
    for _ in range(50):
        udp = _bind_pair(socket.SOCK_DGRAM, 0)
        try:
            tcp = _bind_pair(socket.SOCK_STREAM, udp[0].getsockname()[1])
        except OSError:
            for sock in udp:
                sock.close()
            continue
        return udp, tcp, _bind_pair(socket.SOCK_STREAM, 0)
    raise OSError("no port free on both families for UDP and TCP")


class Responder:
    def __init__(self, script: dict):
        self.sites = script["sites"]
        self.ttl = script.get("ttl", 20)
        self.pending: list = []  # (due, seq, send, txid, body, ancount, received_at)
        self.seq = 0
        self.buffers: dict[socket.socket, bytes] = {}

    def schedule(self, data: bytes, send, *, udp: bool):
        received_at = time.perf_counter()
        try:
            txid, question, qname, qtype = dnsbytes.parse_query(data)
        except (ValueError, IndexError, UnicodeDecodeError):
            return
        site = self.sites.get(qname.lower(), {})
        if udp and site.get("tc"):
            send(dnsbytes.reply(txid, question, 0, tc=True))
            return
        edge = EDGE_V6 if qtype == dnsbytes.AAAA else EDGE_V4
        rtype = dnsbytes.AAAA if qtype == dnsbytes.AAAA else dnsbytes.A
        body, ancount = dnsbytes.answer_body(question, rtype, "edge." + qname, [edge], self.ttl)
        due = received_at + site.get("hold_ms", DEFAULT_HOLD_MS) / 1000.0
        self.seq += 1
        heapq.heappush(self.pending, (due, self.seq, send, txid, body, ancount, received_at))

    def flush_due(self):
        now = time.perf_counter()
        while self.pending and self.pending[0][0] <= now:
            _, _, send, txid, body, ancount, received_at = heapq.heappop(self.pending)
            hold_us = (time.perf_counter() - received_at) * 1e6
            try:
                send(dnsbytes.reply(txid, body, ancount, txt=f"{dnsbytes.HOLD_PREFIX}{hold_us:.1f}"))
            except OSError:
                pass  # client gave up or closed its connection
            now = time.perf_counter()

    def timeout(self):
        if not self.pending:
            return None
        return max(0.0, self.pending[0][0] - time.perf_counter())

    def on_udp(self, sock: socket.socket):
        while True:
            try:
                data, addr = sock.recvfrom(4096)
            except BlockingIOError:
                return
            self.schedule(data, lambda payload, s=sock, a=addr: s.sendto(payload, a), udp=True)

    def on_tcp_data(self, sel, conn: socket.socket):
        try:
            chunk = conn.recv(4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            sel.unregister(conn)
            self.buffers.pop(conn, None)
            conn.close()
            return
        buf = self.buffers.get(conn, b"") + chunk
        while len(buf) >= 2:
            (length,) = struct.unpack_from("!H", buf)
            if len(buf) < 2 + length:
                break
            message, buf = buf[2 : 2 + length], buf[2 + length :]
            self.schedule(message, lambda payload, c=conn: c.sendall(struct.pack("!H", len(payload)) + payload), udp=False)
        self.buffers[conn] = buf


def serve(script: dict):
    udp, tcp, handshake = bind_all()
    responder = Responder(script)
    sel = selectors.DefaultSelector()
    for sock in udp:
        sel.register(sock, selectors.EVENT_READ, "udp")
    for sock in tcp:
        sel.register(sock, selectors.EVENT_READ, "dns-listen")
    for sock in handshake:
        sel.register(sock, selectors.EVENT_READ, "handshake")
    stdin_fd = sys.stdin.fileno()
    sel.register(stdin_fd, selectors.EVENT_READ, "stdin")
    print(json.dumps({"dns_port": udp[0].getsockname()[1], "handshake_port": handshake[0].getsockname()[1]}), flush=True)
    try:
        while True:
            for key, _ in sel.select(responder.timeout()):
                kind, sock = key.data, key.fileobj
                if kind == "udp":
                    responder.on_udp(sock)
                elif kind == "tcp":
                    responder.on_tcp_data(sel, sock)
                elif kind == "stdin":
                    if not os.read(stdin_fd, 4096):
                        return
                else:
                    while True:
                        try:
                            conn, _ = sock.accept()
                        except BlockingIOError:
                            break
                        if kind == "handshake":
                            conn.close()
                        else:
                            conn.setblocking(False)
                            sel.register(conn, selectors.EVENT_READ, "tcp")
            responder.flush_due()
    finally:
        for key in list(sel.get_map().values()):
            if key.data != "stdin":
                key.fileobj.close()
        sel.close()


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        serve(json.load(fh))
