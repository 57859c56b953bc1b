"""decode_response on arbitrary and damaged input: it decodes as the
reference decoder does (an equal message, or MalformedMessageError with
the same text), every record it builds passes ResourceRecord's checks,
and it never hangs.  Address rdata reads as ipaddress writes it, and
address text is classified as ipaddress classifies it."""

import ipaddress
import struct
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import mocknet  # noqa: E402
import reference_decoder  # noqa: E402
from dnscdn import wire  # noqa: E402
from dnscdn.wire import MalformedMessageError, ResourceRecord, decode_response  # noqa: E402
from test_wire import pointer_chain  # noqa: E402

# A decode slower than this counts as a hang; real messages take well
# under a millisecond.
HANG_S = 1.0

OPT = 41


def sectioned(answers, authority, additional) -> bytes:
    """A reply to www.example.com A with records, (name, rtype, class,
    ttl, rdata), in all three sections; names are written uncompressed."""
    sections = (answers, authority, additional)
    out = struct.pack("!HHHHHH", 0x5EC7, 0x8180, 1, *map(len, sections))
    out += mocknet.name_bytes("www.example.com") + struct.pack("!HH", mocknet.A, 1)
    for name, rtype, rclass, ttl, rdata in (record for section in sections for record in section):
        payload = mocknet.rdata_bytes(rtype, rdata)
        out += mocknet.name_bytes(name) + struct.pack("!HHIH", rtype, rclass, ttl, len(payload)) + payload
    return out


SEEDS = {
    "a": mocknet.build_response(
        0x1234, "www.example.com", mocknet.A, [("www.example.com", mocknet.A, 20, "192.0.2.7")]
    ),
    "cname-aaaa": mocknet.build_response(
        0x0001,
        "www.example.com",
        mocknet.AAAA,
        [
            ("www.example.com", mocknet.CNAME, 300, "edge.cdn.example"),
            ("edge.cdn.example", mocknet.AAAA, 20, "2001:db8::7"),
        ],
        compress_answer_names=True,
    ),
    "txt": mocknet.build_response(
        0xBEEF, "whoami.example", mocknet.TXT, [("whoami.example", mocknet.TXT, 60, ["ns", "198.51.100.7"])]
    ),
    "ns-nxdomain": mocknet.build_response(
        0x0BAD, "nx.example", mocknet.NS, [("nx.example", mocknet.NS, 5, "ns1.example")], rcode=3
    ),
    # An OPT record's class is the payload size and its ttl carries flags.
    "sections-opt-high-bit-ttl": sectioned(
        [("www.example.com", mocknet.A, 1, 60, "192.0.2.8")],
        [("example.com", mocknet.NS, 1, 0x80000000, "ns1.example.com")],
        [("ns1.example.com", mocknet.A, 1, 3600, "192.0.2.53"), ("", OPT, 1232, 0x00008000, b"")],
    ),
    "unknown-rtype": mocknet.build_response(0x0099, "x.example", 99, [("x.example", 99, 60, b"\x00opaque\xff")]),
    "mapped-aaaa": mocknet.build_response(
        0x6666, "mapped.example", mocknet.AAAA, [("mapped.example", mocknet.AAAA, 60, "::ffff:192.0.2.7")]
    ),
    # The second answer's owner reaches the question in exactly the hop limit.
    "pointer-chain-at-limit": pointer_chain(wire._MAX_POINTER_HOPS),
}
VALID = list(SEEDS.values())


def decodes_as_the_reference(data: bytes) -> None:
    """Each record decode_response builds equals the one ResourceRecord's
    checking constructor builds from its fields, and it gives the
    reference decoder's message, or its MalformedMessageError text."""
    start = time.perf_counter()
    try:
        message = decode_response(data)
    except MalformedMessageError as exc:
        assert time.perf_counter() - start < HANG_S
        with pytest.raises(MalformedMessageError) as expected:
            reference_decoder.decode_response(data)
        assert str(exc) == str(expected.value)
        return
    assert time.perf_counter() - start < HANG_S
    for record in message.answers + message.authority + message.additional:
        assert ResourceRecord(record.name, record.rtype, record.ttl, record.rdata) == record
    expected = reference_decoder.decode_response(data)
    assert message == expected and repr(message) == repr(expected)


@st.composite
def damaged(draw):
    """A valid message with one byte changed, or cut short."""
    message = bytearray(draw(st.sampled_from(VALID)))
    if draw(st.booleans()):
        message[draw(st.integers(0, len(message) - 1))] = draw(st.integers(0, 255))
        return bytes(message)
    return bytes(message[: draw(st.integers(0, len(message) - 1))])


def test_the_seeds_are_valid():
    assert all(decode_response(message).txid for message in VALID)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_seeds_decode_as_the_reference(seed):
    decodes_as_the_reference(SEEDS[seed])


@given(st.binary(max_size=600))
def test_arbitrary_bytes(data):
    decodes_as_the_reference(data)


@given(damaged())
def test_damaged_valid_messages(data):
    decodes_as_the_reference(data)


# Zero hextets are drawn often, so runs to compress (and the ::a.b.c.d
# forms) come up.
HEXTET = st.one_of(st.just(0), st.just(0), st.sampled_from([1, 0xFFFF]), st.integers(0, 0xFFFF))


@given(
    st.one_of(
        st.binary(min_size=4, max_size=4),
        st.binary(min_size=16, max_size=16),
        st.lists(HEXTET, min_size=8, max_size=8).map(lambda values: struct.pack("!8H", *values)),
    )
)
def test_address_rdata_is_the_ipaddress_text(raw):
    rtype = mocknet.A if len(raw) == 4 else mocknet.AAAA
    message = mocknet.build_response(7, "x.example", rtype, [("x.example", rtype, 60, raw)])
    assert decode_response(message).answers[0].rdata == str(ipaddress.ip_address(raw))


def ipaddress_accepts(text: str) -> bool:
    try:
        ipaddress.IPv6Address(text)
    except ValueError:
        return False
    return True


# Hextet-like pieces (and a few that are not) joined by one or two colons,
# so that near misses of the IPv6 text pattern come up often.
PIECE = st.one_of(
    st.text(alphabet="0123456789abcdefABCDEF", min_size=0, max_size=5),
    st.sampled_from(["g", "1.2.3.4", "\u0661", "%eth0", " ", "\n"]),
)
NEAR_IPV6 = st.lists(st.tuples(PIECE, st.sampled_from([":", "::"])), max_size=10).map(
    lambda parts: "".join(piece + sep for piece, sep in parts)[:-1]
)


@given(st.one_of(NEAR_IPV6, st.text(alphabet="0123456789abcdef:.%\u0661", max_size=45)))
def test_ipv6_text_the_pattern_accepts_ipaddress_accepts(text):
    if wire._IPV6_TEXT.fullmatch(text):
        assert ipaddress_accepts(text)


@given(st.integers(0, 2**128 - 1))
def test_printed_ipv6_addresses_are_version_6(value):
    address = ipaddress.IPv6Address(value)
    for text in (str(address), address.exploded, address.exploded.upper()):
        assert wire._ip_version(text) == 6
        # Only the ::a.b.c.d forms are left to ipaddress.
        assert bool(wire._IPV6_TEXT.fullmatch(text)) == ("." not in text)


@pytest.mark.parametrize(
    "text",
    [
        "::ffff:192.0.2.1",
        "64:ff9b::192.0.2.1",
        "fe80::1%eth0",
        "2001:db8::12345",
        "1::2::3",
        ":::",
        "1:2:3:4:5:6:7:8:9",
        "1:2:3:4:5:6:7",
        "1:2:3:4::5:6:7:8",
        "::1:2:3:4:5:6:7:8",
        ":1:2:3:4:5:6:7:8",
        "1:2:3:4:5:6:7:8:",
        "2001:db8::\u0661",
        "\u0661::",
        "2001:db8::g",
        "2001:db8::1\n",
        " ::1",
    ],
)
def test_other_ipv6_text_is_left_to_ipaddress(text):
    assert not wire._IPV6_TEXT.fullmatch(text)
    try:
        expected = ipaddress.ip_address(text).version
    except ValueError as exc:
        with pytest.raises(type(exc)) as caught:
            wire._ip_version(text)
        assert str(caught.value) == str(exc)
    else:
        assert wire._ip_version(text) == expected
