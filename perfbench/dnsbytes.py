"""DNS bytes written against RFC 1035 with struct alone.

The benchmark's responder and its Atlas generator build packets here so
that nothing they emit passes through the codec under test.
"""

from __future__ import annotations

import socket
import struct

A, CNAME, TXT, AAAA = 1, 5, 16, 28
FLAGS_REPLY = 0x8180  # QR, RD, RA
FLAG_TC = 0x0200
HOLD_PREFIX = "hold_us="


def name_bytes(name: str) -> bytes:
    out = b""
    for label in name.rstrip(".").split("."):
        out += struct.pack("!B", len(label)) + label.encode("ascii")
    return out + b"\x00"


def address_bytes(rtype: int, address: str) -> bytes:
    family = socket.AF_INET if rtype == A else socket.AF_INET6
    return socket.inet_pton(family, address)


def question(qname: str, qtype: int) -> bytes:
    """A question section entry, class IN."""
    return name_bytes(qname) + struct.pack("!HH", qtype, 1)


def query(txid: int, qname: str, qtype: int) -> bytes:
    """A plain recursive query with no EDNS record."""
    return struct.pack("!HHHHHH", txid, 0x0100, 1, 0, 0, 0) + question(qname, qtype)


def parse_query(data: bytes) -> tuple[int, bytes, str, int]:
    """(txid, question section bytes, qname, qtype) of a query; ValueError if short."""
    if len(data) < 17:
        raise ValueError("short query")
    (txid,) = struct.unpack_from("!H", data)
    pos, labels = 12, []
    while True:
        length = data[pos]
        if length == 0:
            break
        if length & 0xC0 or pos + 1 + length >= len(data):
            raise ValueError("bad question name")
        labels.append(data[pos + 1 : pos + 1 + length].decode("ascii"))
        pos += 1 + length
    end = pos + 5
    if end > len(data):
        raise ValueError("short question")
    (qtype,) = struct.unpack_from("!H", data, pos + 1)
    return txid, data[12:end], ".".join(labels), qtype


def answer_body(question: bytes, qtype: int, cname: str, addresses: list[str], ttl: int) -> tuple[bytes, int]:
    """Question plus a CNAME and its address records, with compression.

    The CNAME owner points at the question name; each address owner
    points at the CNAME's target.  Returns (bytes after the header,
    answer count).
    """
    out = bytearray(question)
    target = name_bytes(cname)
    out += struct.pack("!HHHIH", 0xC00C, CNAME, 1, ttl, len(target))
    target_offset = 12 + len(out)
    out += target
    for address in addresses:
        rdata = address_bytes(qtype, address)
        out += struct.pack("!HHHIH", 0xC000 | target_offset, qtype, 1, ttl, len(rdata)) + rdata
    return bytes(out), 1 + len(addresses)


def txt_record(text: str) -> bytes:
    raw = text.encode("ascii")
    return struct.pack("!HHHIHB", 0xC00C, TXT, 1, 0, len(raw) + 1, len(raw)) + raw


def reply(txid: int, body: bytes, ancount: int, *, tc: bool = False, txt: str | None = None) -> bytes:
    """Header plus body; a TXT answer, when given, goes last."""
    flags = FLAGS_REPLY | (FLAG_TC if tc else 0)
    if txt is not None:
        ancount += 1
        body += txt_record(txt)
    return struct.pack("!HHHHHH", txid, flags, 1, ancount, 0, 0) + body


def hold_from_reply(data: bytes) -> float:
    """Hold in ms read back from the trailing TXT record of a reply."""
    text = data[data.rindex(HOLD_PREFIX.encode()) :].decode("ascii")
    return float(text[len(HOLD_PREFIX) :]) / 1000.0
