"""DNS message encoding and decoding (RFC 1035 wire format).

Builds standard recursive queries and parses responses, including
name-compression pointers.  Only the record types needed for latency and
CDN-mapping measurements get typed rdata; everything else is kept as
opaque bytes so responses survive a store/reload round trip.

A rdata is formatted straight from its octets, and AAAA rdata by
socket.inet_ntop, into the text ipaddress gives for them.  An AAAA
address whose first 10 octets are zero (the ::ffff:a.b.c.d and ::a.b.c.d
forms) goes through ipaddress itself, since inet_ntop prints those with
an IPv4 part and ipaddress prints them differently between Python
versions.  ResourceRecord still checks every address it is given.

decode_response keeps a table of the names it has decoded in one
message, by start offset, with the pointer hops each took.  A name that
is a bare compression pointer to one of them is read from the table when
one more hop stays within the limit; every other name is walked label by
label, so results and errors are those of the walk.

Address text that is not remembered is classified by exact patterns
first: ipaddress's dotted quads, and IPv6 text of plain hextets (eight,
or "::" with at most seven around it).  Anything else, an embedded IPv4
part or a scope included, goes to ipaddress, which raises its own errors.
"""

from __future__ import annotations

import functools
import ipaddress
import re
import socket
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum

# EDNS0 advertised UDP payload size; 1232 is the common fragmentation-safe
# choice for modern deployments.
EDNS_UDP_PAYLOAD = 1232

MAX_TTL = 2**31 - 1

# Per-query timeout wherever no configuration supplies one.  Any timeout
# must lie strictly between 0 and _INFINITY, which NaN does not.
DEFAULT_TIMEOUT_MS = 5000.0
_INFINITY = float("inf")

# The public recursive resolver asked for the tool's own lookups (whoami,
# Team Cymru, NS walks) when no configured resolver is given.
KNOWN_GOOD_RESOLVER = "8.8.8.8"

# Bound on compression-pointer hops while decoding one name.  Any legitimate
# message needs far fewer; exceeding it means a pointer loop.
_MAX_POINTER_HOPS = 64
_MAX_LABELS = 128

# Distinct names and addresses whose validation is remembered.  A stored
# corpus repeats a few hundred; a larger memo pins more memory than it saves.
_MEMO_SIZE = 256


class RecordType(IntEnum):
    A = 1
    NS = 2
    CNAME = 5
    TXT = 16
    AAAA = 28
    OPT = 41


_RECORD_TYPES = {member.value: member for member in RecordType}
# Module-level names for the members the codec tests on every record: a
# global read is cheaper than RecordType.X, an attribute of the enum class.
_A, _AAAA, _TXT, _OPT = RecordType.A, RecordType.AAAA, RecordType.TXT, RecordType.OPT
_ADDRESS_TYPES = (_A, _AAAA)
_NAME_TYPES = (RecordType.NS, RecordType.CNAME)
# type, class, ttl, rdlength
_RR_HEADER = struct.Struct("!HHIH")
_TEN_ZERO_OCTETS = bytes(10)


class IpVersion(Enum):
    V4 = "v4"
    V6 = "v6"

    @classmethod
    def of_address(cls, address: str) -> "IpVersion":
        if not isinstance(address, str):
            raise TypeError(f"address must be a string, not {type(address).__name__}")
        return cls.V4 if _ip_version(address.split("%")[0]) == 4 else cls.V6


# Exactly the dotted quads ipaddress accepts: ASCII digits, 0-255, no
# leading zeros.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


# IPv6 text that ipaddress accepts, less the forms with an IPv4 part or a
# scope: eight hextets of 1-4 ASCII hex digits, or one "::" with k of them
# before it and at most 7 - k after it.
_HEXTET_TEXT = "[0-9A-Fa-f]{1,4}"
_IPV6_TEXT = re.compile(
    "|".join(
        [rf"(?:{_HEXTET_TEXT}:){{7}}{_HEXTET_TEXT}"]
        + [
            (rf"{_HEXTET_TEXT}(?::{_HEXTET_TEXT}){{{k - 1}}}" if k else "")
            + "::"
            + (rf"(?:{_HEXTET_TEXT}(?::{_HEXTET_TEXT}){{0,{6 - k}}})?" if k < 7 else "")
            for k in range(8)
        ]
    )
)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _ip_version(address: str) -> int:
    """4 or 6 for an IP address string; ValueError for anything else.

    The common forms skip ipaddress's try-IPv4-then-IPv6 order; anything
    else goes to ipaddress.ip_address, so its errors are raised unchanged.
    """
    if _DOTTED_QUAD.fullmatch(address):
        return 4
    if _IPV6_TEXT.fullmatch(address):
        return 6
    if ":" in address:
        try:
            ipaddress.IPv6Address(address)
            return 6
        except ValueError:
            pass
    return ipaddress.ip_address(address).version


class WireError(Exception):
    """Base class for wire-format failures."""


class InvalidNameError(WireError):
    """Domain name violates RFC 1035 label/length limits."""


class MalformedMessageError(WireError):
    """Message bytes cannot be decoded (truncated field, bad pointer...)."""


def encode_name(name: str) -> bytes:
    """Encode a domain name as uncompressed length-prefixed labels.

    A single trailing dot is tolerated; empty labels and labels over 63
    octets raise InvalidNameError, as does a total encoding over 255 octets.
    """
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, not {type(name).__name__}")
    stripped = name[:-1] if name.endswith(".") else name
    if not stripped:
        raise InvalidNameError("empty name")
    out = bytearray()
    for label in stripped.split("."):
        raw = label.encode("ascii", errors="strict")
        if not raw:
            raise InvalidNameError(f"empty label in {name!r}")
        if len(raw) > 63:
            raise InvalidNameError(f"label too long ({len(raw)} octets) in {name!r}")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    if len(out) > 255:
        raise InvalidNameError(f"encoded name is {len(out)} octets (max 255)")
    return bytes(out)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def validate_name(name: str) -> str:
    """Return the name without its optional trailing dot, enforcing limits.

    Memoized: a name seen recently is not checked again.  A name that
    fails raises on every call, since exceptions are not remembered.
    """
    encode_name(name)
    return name[:-1] if name.endswith(".") else name


@dataclass(slots=True)
class DnsQuestion:
    """One question: what to ask, whom to ask, and over which IP version
    (by default the family of resolver_address; a mismatch raises)."""

    qname: str
    qtype: RecordType
    resolver_address: str
    transport_version: IpVersion | None = None
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    resolver_port: int = 53

    def __post_init__(self):
        self.qname = validate_name(self.qname)
        family = IpVersion.of_address(self.resolver_address)
        if self.transport_version is None:
            self.transport_version = family
        elif family is not self.transport_version:
            raise ValueError(
                f"resolver {self.resolver_address} is {family.value} but "
                f"transport is {self.transport_version.value}"
            )
        if not 0 < self.timeout_ms < _INFINITY:
            raise ValueError(f"timeout_ms must be a finite number above 0, not {self.timeout_ms!r}")


@dataclass(slots=True)
class ResourceRecord:
    """One parsed answer record.

    rdata is typed by rtype: dotted-quad string for A, compressed-form
    string for AAAA, domain name for NS/CNAME, list of character-strings
    for TXT, raw bytes for anything else.
    """

    name: str
    rtype: int
    ttl: int
    rdata: str | list[str] | bytes

    def __post_init__(self):
        if not 0 <= self.ttl <= MAX_TTL:
            raise ValueError(f"ttl {self.ttl} outside [0, 2^31-1]")
        if self.rtype == _A:
            if not isinstance(self.rdata, str) or _ip_version(self.rdata) != 4:
                raise ValueError("A record rdata must be an IPv4 address string")
        elif self.rtype == _AAAA:
            if not isinstance(self.rdata, str) or _ip_version(self.rdata) != 6:
                raise ValueError("AAAA record rdata must be an IPv6 address string")
        elif self.rtype in _NAME_TYPES:
            if not isinstance(self.rdata, str):
                raise ValueError("NS/CNAME rdata must be a domain name string")
        elif self.rtype == _TXT:
            if not isinstance(self.rdata, list):
                raise ValueError("TXT rdata must be a list of strings")

    @property
    def is_address(self) -> bool:
        return self.rtype in _ADDRESS_TYPES


@dataclass(slots=True)
class QuestionEcho:
    """Question section of a decoded message (type/class left as raw ints)."""

    name: str
    qtype: int
    qclass: int


@dataclass(slots=True)
class DnsMessage:
    """Decoded DNS message: header fields plus all three record sections."""

    txid: int
    flags: int
    questions: list[QuestionEcho] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)

    @property
    def rcode(self) -> int:
        return self.flags & 0x000F

    @property
    def truncated(self) -> bool:
        return bool(self.flags & 0x0200)


def encode_query(question: DnsQuestion, txid: int, edns: bool = True) -> bytes:
    """Build a standard recursive query (QR=0, RD=1, QDCOUNT=1, QCLASS=IN).

    With edns, an OPT pseudo-record advertising a 1232-byte UDP payload is
    appended to the additional section.
    """
    if not 0 <= txid <= 0xFFFF:
        raise ValueError("txid must fit in 16 bits")
    arcount = 1 if edns else 0
    header = struct.pack("!HHHHHH", txid, 0x0100, 1, 0, 0, arcount)
    body = encode_name(question.qname) + struct.pack("!HH", int(question.qtype), 1)
    if edns:
        # root name, type OPT, class = payload size, TTL = 0, empty rdata
        body += b"\x00" + struct.pack("!HHIH", int(RecordType.OPT), EDNS_UDP_PAYLOAD, 0, 0)
    return header + body


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


def _format_ipv6(raw: bytes) -> str:
    """The text str(ipaddress.IPv6Address(raw)) gives."""
    if raw[:10] == _TEN_ZERO_OCTETS:
        # ::ffff:a.b.c.d and ::a.b.c.d; how ipaddress prints these differs
        # between Python versions, and inet_ntop prints the IPv4 part.
        return str(ipaddress.IPv6Address(raw))
    return socket.inet_ntop(socket.AF_INET6, raw)


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
