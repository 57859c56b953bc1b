"""decode_response on arbitrary and damaged input: it raises only
MalformedMessageError, and it never hangs.  Address rdata reads as
ipaddress writes it, and address text is classified as ipaddress
classifies it."""

import ipaddress
import struct
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import mocknet  # noqa: E402
from dnscdn import wire  # noqa: E402
from dnscdn.wire import MalformedMessageError, decode_response  # noqa: E402

# A decode slower than this counts as a hang; real messages take well
# under a millisecond.
HANG_S = 1.0

VALID = [
    mocknet.build_response(
        0x1234, "www.example.com", mocknet.A, [("www.example.com", mocknet.A, 20, "192.0.2.7")]
    ),
    mocknet.build_response(
        0x0001,
        "www.example.com",
        mocknet.AAAA,
        [
            ("www.example.com", mocknet.CNAME, 300, "edge.cdn.example"),
            ("edge.cdn.example", mocknet.AAAA, 20, "2001:db8::7"),
        ],
        compress_answer_names=True,
    ),
    mocknet.build_response(
        0xBEEF, "whoami.example", mocknet.TXT, [("whoami.example", mocknet.TXT, 60, ["ns", "198.51.100.7"])]
    ),
    mocknet.build_response(0x0BAD, "nx.example", mocknet.NS, [("nx.example", mocknet.NS, 5, "ns1.example")], rcode=3),
]


def decodes_or_is_malformed(data: bytes) -> None:
    start = time.perf_counter()
    try:
        decode_response(data)
    except MalformedMessageError:
        pass
    assert time.perf_counter() - start < HANG_S


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


@given(st.binary(max_size=600))
def test_arbitrary_bytes(data):
    decodes_or_is_malformed(data)


@given(damaged())
def test_damaged_valid_messages(data):
    decodes_or_is_malformed(data)


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
