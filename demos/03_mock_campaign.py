"""Run a complete measurement campaign against loopback mock services.

A scripted resolver on 127.0.0.1 (and ::1 when available) answers every
query after a fixed 25 ms hold, pointing all names at a loopback "edge"
that accepts TCP handshakes. One site always answers with the full
authoritative TTL (a permanent cache hit), the other counts the TTL down
on every repeat query (permanent miss), so the hit/miss table at the end
is known in advance.

No packets leave the machine.  Run:  python3 demos/03_mock_campaign.py
"""

import socket
import struct
import tempfile
import threading
import time

from dnscdn.analytics import hit_rate_table, per_website_median
from dnscdn.campaign import MeasurementSpec, ResolverEntry, is_usable, run_campaign
from dnscdn.storage import CampaignRecord, read_records, write_records

AUTH_TTL = 30
DNS_HOLD_MS = 25.0


def encode_answer(query: bytes, address: str, ttl: int) -> bytes:
    """Echo the question section and append one A/AAAA answer."""
    txid, _, qd = struct.unpack_from("!HHH", query, 0)
    end = 12
    while query[end]:
        end += 1 + query[end]
    end += 5  # root byte + qtype/qclass
    qtype = struct.unpack_from("!H", query, end - 4)[0]
    rdata = (
        socket.inet_pton(socket.AF_INET6, address)
        if qtype == 28
        else socket.inet_aton(address)
    )
    out = struct.pack("!HHHHHH", txid, 0x8180, qd, 1, 0, 0)
    out += query[12:end]
    out += struct.pack("!H", 0xC00C) + struct.pack("!HHIH", qtype, 1, ttl, len(rdata))
    return out + rdata


class ScriptedResolver(threading.Thread):
    """UDP responder: full TTL for hit names, decrementing for miss names."""

    def __init__(self, host: str, port: int = 0):
        super().__init__(daemon=True)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.sock = socket.socket(family, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.address = "::1" if family == socket.AF_INET6 else "127.0.0.1"
        self.counts: dict[bytes, int] = {}
        self.running = True
        self.start()

    def run(self):
        while self.running:
            try:
                query, peer = self.sock.recvfrom(512)
            except (TimeoutError, OSError):
                continue
            time.sleep(DNS_HOLD_MS / 1000.0)
            key = query[12:]
            seen = self.counts.get(key, 0)
            self.counts[key] = seen + 1
            ttl = AUTH_TTL if b"cached" in query else max(1, AUTH_TTL - seen)
            self.sock.sendto(encode_answer(query, self.address, ttl), peer)

    def close(self):
        self.running = False
        self.join(timeout=1.0)
        self.sock.close()


def tcp_edge(host: str, port: int = 0):
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.bind((host, port))
    sock.listen(16)
    sock.settimeout(0.1)

    def drain():
        while True:
            try:
                conn, _ = sock.accept()
                conn.close()
            except TimeoutError:
                continue
            except OSError:
                return

    threading.Thread(target=drain, daemon=True).start()
    return sock


def main():
    resolver4 = ScriptedResolver("127.0.0.1")
    edge4 = tcp_edge("127.0.0.1")
    tcp_port = edge4.getsockname()[1]
    try:
        resolver6 = ScriptedResolver("::1", resolver4.port)
        edge6 = tcp_edge("::1", tcp_port)
    except OSError:
        resolver6 = edge6 = None
        print("(no ::1 on this machine; the IPv6 half will come back unusable)\n")

    spec = MeasurementSpec(
        websites=[("demo-cdn", "www.cached.demo"), ("demo-cdn", "www.fresh.demo")],
        resolvers=[ResolverEntry("scripted", "127.0.0.1", "::1")],
        prewarm_gap_s=1.0,  # the real default is 15 s; shortened to keep the demo brisk
        per_query_timeout_ms=2000.0,
        resolver_port=resolver4.port,
        handshake_port=tcp_port,
    )
    print("Measuring 2 websites x 1 resolver x 2 address families...")
    started = time.perf_counter()
    sets = run_campaign(spec, vantage_id="demo-host")
    print(f"...done in {time.perf_counter() - started:.1f}s\n")

    for mset in sorted(sets, key=lambda s: (s.website, s.ip_version.value)):
        if not is_usable(mset):
            print(f"  {mset.website} over {mset.ip_version.value}: unusable (expected without ::1)")
            continue
        dns_ms = per_website_median(mset)
        ttls = [r.answers[0].ttl for r in mset.dns_results]
        print(
            f"  {mset.website} over {mset.ip_version.value}: "
            f"dns median {dns_ms:.1f} ms (scripted hold {DNS_HOLD_MS:.0f} ms), "
            f"ttls seen {ttls}"
        )

    print("\nHit rates per site (cached should be all hit, fresh all miss),")
    print("one row per resolver and family:")
    for site in ("www.cached.demo", "www.fresh.demo"):
        site_sets = [s for s in sets if s.website == site]
        for row in hit_rate_table(site_sets, {site: AUTH_TTL}):
            print(
                f"  {site} via {row.resolver_label}/{row.ip_version.value}: "
                f"{row.hit_rate:.0f}% hit, {row.miss_rate:.0f}% miss over {row.count} sets"
            )

    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        path = handle.name
    write_records([CampaignRecord(campaign_id="demo", mset=s) for s in sets], path)
    print(f"\nStored {len(read_records(path))} records at {path}")

    resolver4.close()
    edge4.close()
    if resolver6:
        resolver6.close()
        edge6.close()


if __name__ == "__main__":
    main()
