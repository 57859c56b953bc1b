"""Wire-format encode/decode against hand-built RFC 1035 fixtures."""

import ipaddress
import random
import string
import struct

import pytest

import mocknet
from dnscdn import wire
from dnscdn.wire import (
    EDNS_UDP_PAYLOAD,
    DnsQuestion,
    InvalidNameError,
    IpVersion,
    MalformedMessageError,
    RecordType,
    ResourceRecord,
    decode_response,
    encode_name,
    encode_query,
    validate_name,
)


def q(name, qtype=RecordType.A):
    return DnsQuestion(
        qname=name,
        qtype=qtype,
        resolver_address="192.0.2.53",
        transport_version=IpVersion.V4,
    )


class TestEncodeQuery:
    def test_hand_encoded_example(self):
        # 12-byte header + 13-byte qname + 4 bytes type/class = 29
        wire = encode_query(q("example.com"), txid=0x1234, edns=False)
        assert len(wire) == 29
        assert wire[0:2] == b"\x12\x34"
        assert wire[2] == 0x01  # RD set, QR/opcode clear
        assert wire[3] == 0x00
        assert wire[4:6] == b"\x00\x01"  # QDCOUNT
        assert wire[6:12] == b"\x00" * 6
        assert wire[12:25] == b"\x07example\x03com\x00"
        assert wire[25:29] == struct.pack("!HH", 1, 1)

    def test_trailing_dot_is_tolerated(self):
        with_dot = encode_query(q("example.com."), txid=7, edns=False)
        without = encode_query(q("example.com"), txid=7, edns=False)
        assert with_dot == without

    def test_label_too_long(self):
        with pytest.raises(InvalidNameError):
            encode_name("a" * 64 + ".com")

    def test_empty_label(self):
        with pytest.raises(InvalidNameError):
            encode_name("bad..name")

    def test_total_name_too_long(self):
        name = ".".join(["a" * 60] * 5)
        with pytest.raises(InvalidNameError):
            encode_name(name)

    def test_edns_opt_record(self):
        wire = encode_query(q("example.com"), txid=1, edns=True)
        arcount = struct.unpack_from("!H", wire, 10)[0]
        assert arcount == 1
        # OPT: root name, type 41, class = advertised payload size
        opt = wire[29:]
        assert opt[0] == 0
        rtype, payload = struct.unpack_from("!HH", opt, 1)
        assert rtype == 41
        assert payload == EDNS_UDP_PAYLOAD

    def test_query_question_round_trip(self):
        wire = bytearray(encode_query(q("cdn.example.org", RecordType.AAAA), txid=0xBEEF, edns=False))
        wire[2] |= 0x80  # flip QR so it parses as a response
        message = decode_response(bytes(wire))
        assert message.txid == 0xBEEF
        assert len(message.questions) == 1
        echo = message.questions[0]
        assert echo.name == "cdn.example.org"
        assert echo.qtype == int(RecordType.AAAA)
        assert echo.qclass == 1


class TestDecodeResponse:
    def test_compression_pointer_resolves_to_question_name(self):
        raw = mocknet.build_response(
            0x0101,
            "www.example.com",
            mocknet.A,
            [("www.example.com", mocknet.A, 60, "192.0.2.1")],
            compress_answer_names=True,
        )
        # the answer name really is a bare pointer to offset 12
        assert raw[33:35] == b"\xc0\x0c"
        message = decode_response(raw)
        assert message.answers[0].name == "www.example.com"
        assert message.answers[0].rdata == "192.0.2.1"

    def test_short_message_is_malformed(self):
        with pytest.raises(MalformedMessageError):
            decode_response(b"\x12\x34\x81\x80\x00")

    def test_answers_keep_wire_order(self):
        raw = mocknet.build_response(
            7,
            "multi.example.com",
            mocknet.A,
            [
                ("multi.example.com", mocknet.A, 30, "198.51.100.2"),
                ("multi.example.com", mocknet.A, 30, "198.51.100.1"),
            ],
        )
        message = decode_response(raw)
        assert [r.rdata for r in message.answers] == ["198.51.100.2", "198.51.100.1"]

    def test_pointer_loop_is_malformed_not_hung(self):
        raw = bytearray(
            mocknet.build_response(
                9, "loop.example.com", mocknet.A, [("loop.example.com", mocknet.A, 5, "192.0.2.9")],
                compress_answer_names=True,
            )
        )
        # Redirect the answer-name pointer at itself.
        where = raw.index(b"\xc0\x0c")
        raw[where : where + 2] = struct.pack("!H", 0xC000 | where)
        with pytest.raises(MalformedMessageError):
            decode_response(bytes(raw))

    def test_pointer_beyond_message_is_malformed(self):
        raw = bytearray(
            mocknet.build_response(
                9, "far.example.com", mocknet.A, [("far.example.com", mocknet.A, 5, "192.0.2.9")],
                compress_answer_names=True,
            )
        )
        where = raw.index(b"\xc0\x0c")
        raw[where : where + 2] = struct.pack("!H", 0xC000 | 0x3FFF)
        with pytest.raises(MalformedMessageError):
            decode_response(bytes(raw))

    def test_truncated_rdata_is_malformed(self):
        raw = mocknet.build_response(
            3, "cut.example.com", mocknet.A, [("cut.example.com", mocknet.A, 5, "192.0.2.4")]
        )
        with pytest.raises(MalformedMessageError):
            decode_response(raw[:-2])

    def test_high_bit_ttl_reads_as_zero(self):
        raw = mocknet.build_response(
            4, "big.example.com", mocknet.A, [("big.example.com", mocknet.A, 2**31, "192.0.2.5")]
        )
        message = decode_response(raw)
        assert message.answers[0].ttl == 0

    def test_unknown_rtype_kept_opaque(self):
        raw = mocknet.build_response(
            5, "odd.example.com", 99, [("odd.example.com", 99, 11, b"\xde\xad\xbe\xef")]
        )
        message = decode_response(raw)
        assert message.answers[0].rtype == 99
        assert message.answers[0].rdata == b"\xde\xad\xbe\xef"

    def test_txt_strings_decode(self):
        raw = mocknet.build_response(
            6, "t.example.com", mocknet.TXT, [("t.example.com", mocknet.TXT, 0, ["ns", "198.51.100.7"])]
        )
        message = decode_response(raw)
        assert message.answers[0].rdata == ["ns", "198.51.100.7"]

    def test_cname_chain_sections_decode(self):
        raw = mocknet.build_response(
            8,
            "x.example.com",
            mocknet.A,
            [
                ("x.example.com", mocknet.CNAME, 300, "y.example.net"),
                ("y.example.net", mocknet.CNAME, 300, "z.cdn.example"),
                ("z.cdn.example", mocknet.A, 20, "203.0.113.7"),
            ],
        )
        message = decode_response(raw)
        kinds = [r.rtype for r in message.answers]
        assert kinds == [RecordType.CNAME, RecordType.CNAME, RecordType.A]
        assert message.answers[1].rdata == "z.cdn.example"


def pointer(offset: int) -> bytes:
    return struct.pack("!H", 0xC000 | offset)


def hand_built(question: bytes, *records: tuple[bytes, int, bytes]) -> bytes:
    """A response to one A question named by the given octets, with answer
    records given as (owner octets, type, rdata)."""
    out = struct.pack("!HHHHHH", 7, 0x8180, 1, len(records), 0, 0) + question + struct.pack("!HH", 1, 1)
    for owner, rtype, rdata in records:
        out += owner + struct.pack("!HHIH", rtype, 1, 60, len(rdata)) + rdata
    return out


QUESTION = encode_name("www.example.com")
# The first answer record (owner: a pointer to the question) starts here,
# and its rdata 12 octets further on.
FIRST_ANSWER = 12 + len(QUESTION) + 4
FIRST_RDATA = FIRST_ANSWER + 2 + 10


def pointer_chain(hops: int, reuses: int = 0) -> bytes:
    """A message whose second answer's owner name reaches the question name
    in exactly `hops` pointer hops.  The first answer's opaque rdata holds
    the chain; each of `reuses` further answers is a bare pointer to the
    owner before it, one hop more."""
    links = hops - 1  # the owner's own pointer is the first hop
    chain = pointer(12) + b"".join(pointer(FIRST_RDATA + 2 * i) for i in range(links - 1))
    records = [(pointer(12), 99, chain), (pointer(FIRST_RDATA + 2 * (links - 1)), 1, bytes(4))]
    owner = FIRST_RDATA + len(chain)
    for _ in range(reuses):
        records.append((pointer(owner), 1, bytes(4)))
        owner += 2 + 10 + 4
    return hand_built(QUESTION, *records)


class TestDecodeLimits:
    """Pointer-hop and label limits at their boundaries, whether a name is
    walked or is a bare pointer to a name decoded earlier in the message."""

    def test_exactly_the_hop_limit_decodes(self):
        message = decode_response(pointer_chain(wire._MAX_POINTER_HOPS))
        assert message.answers[1].name == "www.example.com"

    def test_one_hop_over_the_limit_is_a_loop(self):
        with pytest.raises(MalformedMessageError, match="^compression pointer loop$"):
            decode_response(pointer_chain(wire._MAX_POINTER_HOPS + 1))

    def test_a_pointer_to_a_decoded_name_that_reaches_the_limit_decodes(self):
        message = decode_response(pointer_chain(wire._MAX_POINTER_HOPS - 2, reuses=2))
        assert [r.name for r in message.answers[1:]] == ["www.example.com"] * 3

    def test_a_pointer_to_a_decoded_name_one_hop_over_the_limit_is_a_loop(self):
        raw = pointer_chain(wire._MAX_POINTER_HOPS, reuses=1)
        with pytest.raises(MalformedMessageError, match="^compression pointer loop$"):
            decode_response(raw)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "one-over"])
    def test_label_limit(self, extra):
        question = b"\x01a" * (wire._MAX_LABELS + extra) + b"\x00"
        raw = hand_built(question, (pointer(12), 1, bytes(4)))
        if extra:
            with pytest.raises(MalformedMessageError, match="^too many labels$"):
                decode_response(raw)
        else:
            message = decode_response(raw)
            assert message.answers[0].name == message.questions[0].name == ".".join("a" * wire._MAX_LABELS)

    def test_a_label_before_a_pointer_to_a_name_at_the_label_limit_is_one_too_many(self):
        question = b"\x01a" * wire._MAX_LABELS + b"\x00"
        raw = hand_built(question, (pointer(12), 1, bytes(4)), (b"\x01b" + pointer(12), 1, bytes(4)))
        with pytest.raises(MalformedMessageError, match="^too many labels$"):
            decode_response(raw)

    def test_a_pointer_into_the_middle_of_a_name_reads_its_suffix(self):
        # 12 + len("\x03www") is where "example.com" starts.
        raw = hand_built(QUESTION, (pointer(16), 1, bytes(4)), (pointer(FIRST_ANSWER), 1, bytes(4)))
        message = decode_response(raw)
        assert [r.name for r in message.answers] == ["example.com", "example.com"]


class TestDnsQuestionFamily:
    @pytest.mark.parametrize(
        "address, family",
        [("192.0.2.53", IpVersion.V4), ("2001:db8::53", IpVersion.V6)],
    )
    def test_defaults_to_the_address_family(self, address, family):
        assert DnsQuestion("x.example", RecordType.A, address).transport_version is family

    def test_explicit_disagreement_still_raises(self):
        with pytest.raises(ValueError):
            DnsQuestion("x.example", RecordType.A, "192.0.2.53", transport_version=IpVersion.V6)


class TestDnsQuestionTimeout:
    @pytest.mark.parametrize("timeout_ms", [0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_not_a_finite_number_above_zero_raises(self, timeout_ms):
        with pytest.raises(ValueError, match="finite number above 0"):
            DnsQuestion("x.example", RecordType.A, "192.0.2.53", timeout_ms=timeout_ms)

    @pytest.mark.parametrize("timeout_ms", [0.001, 1, 5000.0])
    def test_finite_number_above_zero_is_kept(self, timeout_ms):
        assert DnsQuestion("x.example", RecordType.A, "192.0.2.53", timeout_ms=timeout_ms).timeout_ms == timeout_ms


class TestRepeatedValues:
    """Names and addresses are validated once each; every object still checks them."""

    def test_an_invalid_name_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(InvalidNameError):
                DnsQuestion("a..b", RecordType.A, "192.0.2.53")

    def test_an_invalid_address_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                ResourceRecord(name="x.example", rtype=int(RecordType.A), ttl=60, rdata="10.0.0.256")

    def test_a_repeated_name_still_loses_its_trailing_dot(self):
        assert [validate_name("x.example.") for _ in range(3)] == ["x.example"] * 3

    def test_a_remembered_address_is_still_checked_against_the_type(self):
        ResourceRecord(name="x.example", rtype=int(RecordType.A), ttl=60, rdata="192.0.2.9")
        with pytest.raises(ValueError):
            ResourceRecord(name="x.example", rtype=int(RecordType.AAAA), ttl=60, rdata="192.0.2.9")

    @pytest.mark.parametrize("value", [7, None])
    def test_non_string_name_or_address_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            DnsQuestion(value, RecordType.A, "192.0.2.53")
        with pytest.raises(TypeError):
            DnsQuestion("x.example", RecordType.A, value)

    def test_the_memo_stays_bounded(self):
        for i in range(1000):
            validate_name(f"n{i}.example")
            IpVersion.of_address(f"10.0.{i // 256}.{i % 256}")
        assert validate_name.cache_info().currsize <= 256
        assert wire._ip_version.cache_info().currsize <= 256


def address_rdata(raw: bytes):
    """The decoded rdata of one A (4 octets) or AAAA (16 octets) record."""
    rtype = mocknet.A if len(raw) == 4 else mocknet.AAAA
    message = mocknet.build_response(7, "x.example", rtype, [("x.example", rtype, 60, raw)])
    return decode_response(message).answers[0].rdata


def hextets(*values):
    return struct.pack("!8H", *values)


class TestAddressText:
    """Addresses are written from their octets exactly as ipaddress writes them."""

    @pytest.mark.parametrize(
        "raw",
        [
            bytes(4),
            b"\xff" * 4,
            bytes(16),
            hextets(0, 0, 0, 0, 0, 0, 0, 1),
            hextets(1, 0, 0, 0, 0, 0, 0, 0),
            hextets(0x2001, 0xDB8, 0, 1, 2, 3, 4, 5),
            hextets(0x2001, 0, 0, 1, 0, 0, 2, 3),
            hextets(0x2001, 0, 0, 1, 0, 0, 0, 2),
            bytes(10) + b"\xff\xff" + bytes([1, 2, 3, 4]),
            bytes(12) + bytes([1, 2, 3, 4]),
            b"\xff" * 16,
        ],
        ids=[
            "v4-zeros",
            "v4-ones",
            "unspecified",
            "loopback",
            "trailing-run",
            "one-zero-hextet",
            "equal-runs-leftmost",
            "longer-second-run",
            "v4-mapped",
            "v4-compatible",
            "all-ffff",
        ],
    )
    def test_rdata_is_the_ipaddress_text(self, raw):
        assert address_rdata(raw) == str(ipaddress.ip_address(raw))

    @pytest.mark.parametrize(
        "text",
        [
            "0.0.0.0",
            "255.255.255.255",
            "2001:db8::1",
            "01.2.3.4",
            "1.2.3.04",
            "256.1.1.1",
            "1.2.3",
            "1.2.3.4.5",
            "\uff11.2.3.4",
            "1.2.3.4\n",
            "fe80::1%eth0",
            "::ffff:1.2.3.4",
            "1:2:3:4:5:6:7::",
            ":::",
            "",
        ],
    )
    def test_address_version_agrees_with_ipaddress(self, text):
        try:
            expected = ipaddress.ip_address(text).version
        except ValueError as exc:
            with pytest.raises(type(exc)) as caught:
                wire._ip_version(text)
            assert str(caught.value) == str(exc)
        else:
            assert wire._ip_version(text) == expected


def random_name(rng):
    labels = []
    for _ in range(rng.randint(1, 5)):
        n = rng.randint(1, 20)
        labels.append("".join(rng.choices(string.ascii_lowercase + string.digits, k=n)))
    return ".".join(labels)


def test_randomized_question_round_trip():
    rng = random.Random(0xD15EA5E)
    for _ in range(500):
        name = random_name(rng)
        qtype = rng.choice([RecordType.A, RecordType.AAAA, RecordType.TXT, RecordType.NS, RecordType.CNAME])
        txid = rng.randrange(0, 0x10000)
        wire = bytearray(encode_query(q(name, qtype), txid=txid, edns=rng.random() < 0.5))
        wire[2] |= 0x80
        message = decode_response(bytes(wire))
        assert message.txid == txid
        assert message.questions[0].name == name
        assert message.questions[0].qtype == int(qtype)
