"""import-atlas, byte for byte, on one small fixed Atlas pair.

The pair is built here with mocknet.build_response.  It covers A and
AAAA answers, including the ::ffff:a.b.c.d and ::a.b.c.d forms; a nested
resultset; a CNAME before the address; a TTL with its high bit set; an
echoed question of a type the tool does not know; a question echo whose
case differs from the rest of its set; a TLS result timed by ttc alone;
an abuf cut short; and a TLS result that no DNS set claims.  The file
cli.main writes must match tests/golden/import-atlas.jsonl, which this
test only reads, and must survive read -> write byte for byte.

How ipaddress prints an IPv4-mapped address differs between Python
versions (::ffff:c000:207 on 3.11, ::ffff:192.0.2.7 on 3.13), and the
stored rdata is that text, so the golden holds the 3.11 text and the
comparison puts in whatever the running ipaddress prints.
"""

import base64
import ipaddress
import json
from pathlib import Path

from mocknet import AAAA, CNAME, A, build_response
from dnscdn import cli
from dnscdn.storage import read_records, write_records

GOLDEN = Path(__file__).parent / "golden" / "import-atlas.jsonl"
BASE = 1_650_000_000
MAPPED = "::ffff:192.0.2.7"
MAPPED_AS_STORED = "::ffff:c000:207"  # str(ipaddress.IPv6Address(MAPPED)) on 3.11
V4_SITE = "www.shop.example.edgekey.net"
V6_SITE = "img.news.example.fastly.net"
PLAIN_SITE = "www.plain.example"


def _abuf(txid, qname, qtype, answers, **kwargs):
    raw = build_response(txid, qname, qtype, answers, **kwargs)
    return base64.b64encode(raw).decode("ascii")


def _v4_abuf(txid, echo=V4_SITE, ttl=20):
    edge = "e1.a.akamaiedge.net"
    return _abuf(
        txid,
        echo,
        A,
        [(V4_SITE, CNAME, 300, edge), (edge, A, ttl, f"192.0.2.{txid % 250 + 1}")],
        compress_answer_names=True,
    )


def _v6_abuf(txid):
    return _abuf(
        txid,
        V6_SITE,
        AAAA,
        [
            (V6_SITE, AAAA, 30, "2001:db8::9"),
            (V6_SITE, AAAA, 30, MAPPED),
            (V6_SITE, AAAA, 30, "::192.0.2.8"),
            (V6_SITE, AAAA, 30, "2001:db8:1:2:3:4:5:6"),
        ],
    )


def _dns(prb, timestamp, rt, abuf, resolver="8.8.8.8"):
    return {
        "prb_id": prb,
        "timestamp": timestamp,
        "dst_addr": resolver,
        "result": {"rt": rt, "abuf": abuf},
    }


def _tls(prb, target, timestamp, address, **timing):
    return {
        "prb_id": prb,
        "dst_name": target,
        "dst_addr": address,
        "dst_port": 443,
        "timestamp": timestamp,
        **timing,
    }


def atlas_pair():
    """(dns entries, tls entries) of the fixed input."""
    dns = [
        # Probe 1, A over IPv4: a prewarm and three more; one echo in upper
        # case, one answer with a high-bit TTL (stored as 0).
        _dns(1, BASE, 55.5, _v4_abuf(11)),
        _dns(1, BASE + 15, 21.25, _v4_abuf(12, echo=V4_SITE.upper())),
        _dns(1, BASE + 16, 22.0, _v4_abuf(13, ttl=0x8000_0000)),
        _dns(1, BASE + 16, 23.0, _v4_abuf(14)),
        # Probe 1, AAAA over IPv6.
        _dns(1, BASE + 1, 31.0, _v6_abuf(21), resolver="2001:4860:4860::8888"),
        _dns(1, BASE + 16, 32.5, _v6_abuf(22), resolver="2001:4860:4860::8888"),
        # Probe 2 nests one result per resolver.
        {
            "prb_id": 2,
            "timestamp": BASE + 40,
            "resultset": [
                {
                    "dst_addr": "192.168.1.1",
                    "timestamp": BASE + 40,
                    "result": {"rt": 9.0, "abuf": _v4_abuf(31)},
                },
                {
                    "dst_addr": "9.9.9.9",
                    "timestamp": BASE + 41,
                    "result": {"rt": 12.0, "abuf": _v4_abuf(32)},
                },
            ],
        },
        # An echoed question of a type the tool does not know: stored as A.
        _dns(3, BASE + 60, 14.0, _abuf(41, PLAIN_SITE, 65, [])),
        # Cut short: skipped.
        _dns(3, BASE + 61, 15.0, base64.b64encode(base64.b64decode(_v4_abuf(42))[:-3]).decode("ascii")),
    ]
    tls = [
        _tls(1, V4_SITE, BASE + 20, "192.0.2.12", rt=25.5),
        _tls(1, V4_SITE, BASE + 21, "192.0.2.12", ttc=26.0),
        _tls(1, V4_SITE.upper() + ".", BASE + 22, "192.0.2.12", rt=27.0, ttc=99.0),
        _tls(1, V6_SITE, BASE + 20, "2001:db8::9", rt=41.0),
        _tls(2, V4_SITE, BASE + 45, "192.0.2.31", rt=19.0),
        # Far from every set: an orphan.
        _tls(3, PLAIN_SITE, BASE + 50_000, "198.51.100.4", rt=33.3),
    ]
    return dns, tls


def run_import(tmp_path, capsys):
    """(bytes written, stdout) of import-atlas on the fixed pair."""
    dns, tls = atlas_pair()
    dns_path, tls_path = tmp_path / "dns.json", tmp_path / "tls.json"
    dns_path.write_text(json.dumps(dns))
    tls_path.write_text(json.dumps(tls))
    out = tmp_path / "imported.jsonl"
    status = cli.main(
        ["import-atlas", "--dns", str(dns_path), "--tls", str(tls_path), "--output", str(out)]
    )
    assert status == 0
    return out.read_bytes(), capsys.readouterr().out.replace(str(out), "OUT")


def expected_bytes() -> bytes:
    text = GOLDEN.read_text(encoding="utf-8")
    assert text.count(MAPPED_AS_STORED) == 2  # the rdata of both AAAA responses
    return text.replace(MAPPED_AS_STORED, str(ipaddress.IPv6Address(MAPPED))).encode("utf-8")


def test_import_matches_golden(tmp_path, capsys):
    written, stdout = run_import(tmp_path, capsys)
    assert stdout == "imported 5 sets to OUT (skipped 1, orphans 1)\n"
    assert written == expected_bytes()


def test_imported_file_writes_back_unchanged(tmp_path, capsys):
    written, _ = run_import(tmp_path, capsys)
    again = tmp_path / "again.jsonl"
    write_records(read_records(str(tmp_path / "imported.jsonl")), str(again))
    assert again.read_bytes() == written
