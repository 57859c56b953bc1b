"""The decoder dnscdn.wire had before it built records in one pass: three
functions, each walking a name or rdata on its own and building every
record through ResourceRecord's checking constructor.  Kept unchanged as
the reference that tests/test_wire_fuzz.py holds wire.decode_response to:
an equal DnsMessage, or MalformedMessageError with the same text."""

import struct

from dnscdn.wire import (
    _A,
    _AAAA,
    _MAX_LABELS,
    _MAX_POINTER_HOPS,
    _NAME_TYPES,
    _OPT,
    _RECORD_TYPES,
    _RR_HEADER,
    _TXT,
    MAX_TTL,
    DnsMessage,
    MalformedMessageError,
    QuestionEcho,
    ResourceRecord,
    _format_ipv6,
)


def _decode_name(data: bytes, offset: int, names: dict) -> tuple[str, int]:
    """Decode a possibly-compressed name starting at offset.

    Returns (name, offset just past the name in the original stream).
    names maps the start of each name already walked in this message to
    (name, pointer hops the walk took); this name is added to it.
    """
    size = len(data)
    if offset + 1 < size and data[offset] >= 0xC0:
        # A bare pointer to a walked name: walking it would take the same
        # path plus this one hop.
        known = names.get(((data[offset] & 0x3F) << 8) | data[offset + 1])
        if known is not None and known[1] < _MAX_POINTER_HOPS:
            return known[0], offset + 2
    labels: list[bytes] = []
    pos = offset
    end = -1  # position after the name in the uncompressed stream
    hops = 0
    while True:
        if pos >= size:
            raise MalformedMessageError("name runs past end of message")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= size:
                raise MalformedMessageError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if target >= size:
                raise MalformedMessageError("compression pointer beyond message")
            if end < 0:
                end = pos + 2
            hops += 1
            if hops > _MAX_POINTER_HOPS:
                raise MalformedMessageError("compression pointer loop")
            pos = target
            continue
        if length & 0xC0:
            raise MalformedMessageError(f"reserved label type 0x{length:02x}")
        if length == 0:
            if end < 0:
                end = pos + 1
            break
        if pos + 1 + length > size:
            raise MalformedMessageError("label runs past end of message")
        labels.append(data[pos + 1 : pos + 1 + length])
        if len(labels) > _MAX_LABELS:
            raise MalformedMessageError("too many labels")
        pos += 1 + length
    # The ASCII codec maps byte by byte, so one decode of the joined name
    # equals decoding each label alone.
    name = b".".join(labels).decode("ascii", errors="replace")
    names[offset] = (name, hops)
    return name, end


def _decode_rdata(data: bytes, offset: int, rdlength: int, rtype: int, names: dict):
    rdata_bytes = data[offset : offset + rdlength]
    if rtype == _A:
        if rdlength != 4:
            raise MalformedMessageError("A rdata must be 4 octets")
        return "%d.%d.%d.%d" % tuple(rdata_bytes)
    if rtype == _AAAA:
        if rdlength != 16:
            raise MalformedMessageError("AAAA rdata must be 16 octets")
        return _format_ipv6(rdata_bytes)
    if rtype in _NAME_TYPES:
        name, _ = _decode_name(data, offset, names)
        return name
    if rtype == _TXT:
        strings = []
        pos = offset
        while pos < offset + rdlength:
            n = data[pos]
            if pos + 1 + n > offset + rdlength:
                raise MalformedMessageError("TXT character-string overruns rdata")
            strings.append(data[pos + 1 : pos + 1 + n].decode("ascii", errors="replace"))
            pos += 1 + n
        return strings
    return rdata_bytes


def decode_response(data: bytes) -> DnsMessage:
    """Parse a DNS message, resolving compression pointers.

    Raises MalformedMessageError on any truncation, overrun, or pointer
    loop; never hangs (pointer follows are bounded).
    """
    if len(data) < 12:
        raise MalformedMessageError(f"message of {len(data)} bytes (header needs 12)")
    txid, flags, qdcount, ancount, nscount, arcount = struct.unpack_from("!HHHHHH", data, 0)
    msg = DnsMessage(txid=txid, flags=flags)
    names: dict[int, tuple[str, int]] = {}
    size = len(data)
    pos = 12
    for _ in range(qdcount):
        name, pos = _decode_name(data, pos, names)
        if pos + 4 > size:
            raise MalformedMessageError("truncated question")
        qtype, qclass = struct.unpack_from("!HH", data, pos)
        pos += 4
        msg.questions.append(QuestionEcho(name=name, qtype=qtype, qclass=qclass))
    for count, section in ((ancount, msg.answers), (nscount, msg.authority), (arcount, msg.additional)):
        for _ in range(count):
            name, pos = _decode_name(data, pos, names)
            if pos + 10 > size:
                raise MalformedMessageError("truncated record header")
            rtype, rclass, ttl, rdlength = _RR_HEADER.unpack_from(data, pos)
            pos += 10
            if pos + rdlength > size:
                raise MalformedMessageError("rdata runs past end of message")
            rtype = _RECORD_TYPES.get(rtype, rtype)
            rdata = _decode_rdata(data, pos, rdlength, rtype, names)
            # RFC 2181 section 8: treat high-bit TTLs as zero.  OPT smuggles
            # flags into class/ttl; keep it opaque rather than lying about a
            # ttl that is not a ttl.
            if ttl > MAX_TTL or rtype is _OPT:
                ttl = 0
            section.append(ResourceRecord(name, rtype, ttl, rdata))
            pos += rdlength
    return msg
