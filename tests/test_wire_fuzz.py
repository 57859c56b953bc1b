"""decode_response on arbitrary and damaged input: it raises only
MalformedMessageError, and it never hangs."""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import mocknet  # noqa: E402
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
