"""ISP-resolver detection: whoami egress, Cymru ASN lookups, classification."""

import functools

import pytest

import mocknet
from factories import asking, make_response
from dnscdn.resolve import QueryTimeoutError, ask
from dnscdn.resolver_id import (
    Classification,
    LocalResolver,
    NoAnswerError,
    NoConfigError,
    NoMappingError,
    ParseFailureError,
    asn_lookup,
    classify_resolver,
    cymru_query_name,
    discover_vantage_address,
    enumerate_local_resolvers,
    is_isp_usable,
    parse_cymru_answer,
    whoami_egress,
)
from dnscdn.wire import IpVersion, MalformedMessageError, RecordType, ResourceRecord


def txt_response(qname, strings):
    return make_response(
        1.0, 1.0, qname=qname,
        answers=[ResourceRecord(name=qname, rtype=int(RecordType.TXT), ttl=60, rdata=strings)],
    )


class TestEnumerateLocalResolvers:
    def test_order_and_privacy_flags(self, tmp_path):
        conf = tmp_path / "resolv.conf"
        conf.write_text("search lan\nnameserver 192.168.1.1\nnameserver 8.8.8.8\n")
        resolvers = enumerate_local_resolvers(str(conf))
        assert [r.address for r in resolvers] == ["192.168.1.1", "8.8.8.8"]
        assert resolvers[0].is_private and not resolvers[1].is_private
        assert resolvers[0].family is IpVersion.V4

    def test_duplicates_collapse(self, tmp_path):
        conf = tmp_path / "resolv.conf"
        conf.write_text("nameserver 9.9.9.9\nnameserver 9.9.9.9\n")
        assert len(enumerate_local_resolvers(str(conf))) == 1

    def test_empty_config_raises(self, tmp_path):
        conf = tmp_path / "resolv.conf"
        conf.write_text("# nothing here\noptions ndots:1\n")
        with pytest.raises(NoConfigError):
            enumerate_local_resolvers(str(conf))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(NoConfigError):
            enumerate_local_resolvers(str(tmp_path / "absent"))

    def test_v6_and_scoped_addresses(self, tmp_path):
        conf = tmp_path / "resolv.conf"
        conf.write_text("nameserver 2001:4860:4860::8888\nnameserver fe80::1%eth0\n")
        resolvers = enumerate_local_resolvers(str(conf))
        assert [r.family for r in resolvers] == [IpVersion.V6, IpVersion.V6]
        assert resolvers[1].is_private  # link-local

    @pytest.mark.parametrize("address, error", [("resolver.lan", ValueError), (53, TypeError)])
    def test_local_resolver_needs_an_address(self, address, error):
        with pytest.raises(error):
            LocalResolver(address)


class TestWhoamiEgress:
    def test_parses_ns_key(self):
        def fake(question):
            assert question.qname == "whoami.ipv4.akahelp.net"
            return txt_response(question.qname, ["ns", "198.51.100.7"])

        assert whoami_egress("192.168.1.1", IpVersion.V4, ask=asking(fake)) == "198.51.100.7"

    def test_v6_service_name(self):
        def fake(question):
            assert question.qname == "whoami.ipv6.akahelp.net"
            return txt_response(question.qname, ["ns", "2001:db8::55"])

        assert whoami_egress("192.168.1.1", IpVersion.V6, ask=asking(fake)) == "2001:db8::55"

    def test_missing_ns_key_is_parse_failure(self):
        def fake(question):
            return txt_response(question.qname, ["ecs", "192.0.2.0/24"])

        with pytest.raises(ParseFailureError):
            whoami_egress("192.168.1.1", IpVersion.V4, ask=asking(fake))

    def test_timeout_is_no_answer(self):
        def fake(question):
            raise QueryTimeoutError("scripted")

        with pytest.raises(NoAnswerError):
            whoami_egress("192.168.1.1", IpVersion.V4, ask=asking(fake))

    @pytest.mark.parametrize(
        "strings, error", [([], NoAnswerError), (["ns", "not-an-address"], ParseFailureError)]
    )
    def test_unusable_answer(self, strings, error):
        def fake(question):
            return txt_response(question.qname, strings)

        with pytest.raises(error):
            whoami_egress("192.168.1.1", IpVersion.V4, ask=asking(fake))

    def test_against_live_mock(self):
        def script(qname, qtype, count):
            return mocknet.MockReply(answers=[(qname, mocknet.TXT, 60, ["ns", "198.51.100.7"])])

        with mocknet.MockDnsServer(script) as server:
            to_server = functools.partial(ask, port=server.port)
            assert whoami_egress(server.host, IpVersion.V4, ask=to_server) == "198.51.100.7"


class TestCymru:
    def test_v4_query_name(self):
        assert cymru_query_name("208.67.222.222") == "222.222.67.208.origin.asn.cymru.com"

    def test_v6_query_name(self):
        name = cymru_query_name("2620:fe::fe")
        assert name.endswith(".origin6.asn.cymru.com")
        # 2620:00fe:0000:...:00fe reversed nibble-by-nibble
        assert name.startswith("e.f.0.0.")
        assert name.count(".") == 32 + 3  # 32 nibbles + zone labels

    def test_parse_answer(self):
        asn, prefix = parse_cymru_answer(["36692 | 208.67.222.0/24 | US | arin | 2008-04-01"])
        assert asn == 36692
        assert prefix == "208.67.222.0/24"

    def test_multi_origin_takes_first(self):
        asn, _ = parse_cymru_answer(["12345 67890 | 198.51.100.0/24 | EU | ripencc | 2010-01-01"])
        assert asn == 12345

    def test_garbage_is_parse_failure(self):
        with pytest.raises(ParseFailureError):
            parse_cymru_answer(["not-a-number | x"])
        with pytest.raises(ParseFailureError):
            parse_cymru_answer(["plain text with no pipes"])

    def test_asn_lookup_via_fake_resolver(self):
        def fake(question):
            assert question.qname == "222.222.67.208.origin.asn.cymru.com"
            return txt_response(question.qname, ["36692 | 208.67.222.0/24 | US | arin | 2008-04-01"])

        assert asn_lookup("208.67.222.222", ask=asking(fake)) == 36692

    def test_nxdomain_is_no_mapping(self):
        def fake(question):
            response = make_response(1.0, 1.0, qname=question.qname, answers=[])
            response.rcode = 3
            return response

        with pytest.raises(NoMappingError):
            asn_lookup("203.0.113.77", ask=asking(fake))


VANTAGE_IP = "203.0.113.50"


def routing_fake(vantage_asn=64500, resolver_asns=None, egress=None, egress_asn=None):
    """A fake resolve_once that answers Cymru and whoami queries from a routing table."""
    resolver_asns = resolver_asns or {}
    table = {cymru_query_name(VANTAGE_IP): vantage_asn}
    for ip, asn in resolver_asns.items():
        table[cymru_query_name(ip)] = asn
    if egress is not None:
        table[cymru_query_name(egress)] = egress_asn

    def fake(question):
        if question.qname.startswith("whoami."):
            if egress is None:
                raise QueryTimeoutError("no whoami service")
            return txt_response(question.qname, ["ns", egress])
        asn = table.get(question.qname)
        if asn is None:
            raise QueryTimeoutError(f"unscripted {question.qname}")
        return txt_response(question.qname, [f"{asn} | 0.0.0.0/0 | ZZ | test | 2020-01-01"])

    return fake


class TestClassifyResolver:
    def test_public_same_asn_is_isp(self):
        # 9.9.9.9 stands in for any globally routable resolver address; the
        # documentation ranges won't do because ipaddress calls them private.
        fake = routing_fake(resolver_asns={"9.9.9.9": 64500})
        decision = classify_resolver(LocalResolver("9.9.9.9"), VANTAGE_IP, ask=asking(fake))
        assert decision.verdict is Classification.ISP_PROVIDED
        assert decision.resolver_asn == decision.vantage_asn == 64500

    def test_public_different_asn_is_external(self):
        fake = routing_fake(resolver_asns={"8.8.8.8": 15169})
        decision = classify_resolver(LocalResolver("8.8.8.8"), VANTAGE_IP, ask=asking(fake))
        assert decision.verdict is Classification.EXTERNAL

    def test_private_with_matching_egress_is_isp(self):
        fake = routing_fake(egress="203.0.113.66", egress_asn=64500)
        decision = classify_resolver(LocalResolver("192.168.1.1"), VANTAGE_IP, ask=asking(fake))
        assert decision.verdict is Classification.ISP_PROVIDED
        assert decision.egress_address == "203.0.113.66"
        assert decision.resolver_asn is None  # private path never consults it

    def test_private_with_public_egress_is_external(self):
        # deliberate conservatism: a forwarding box egressing via a
        # public service counts as external
        fake = routing_fake(egress="8.8.4.4", egress_asn=15169)
        decision = classify_resolver(LocalResolver("192.168.1.1"), VANTAGE_IP, ask=asking(fake))
        assert decision.verdict is Classification.EXTERNAL

    def test_lookup_failure_is_indeterminate(self):
        fake = routing_fake()  # no resolver ASN scripted, no whoami
        public = classify_resolver(LocalResolver("4.2.2.1"), VANTAGE_IP, ask=asking(fake))
        private = classify_resolver(LocalResolver("10.0.0.1"), VANTAGE_IP, ask=asking(fake))
        assert public.verdict is Classification.INDETERMINATE
        assert private.verdict is Classification.INDETERMINATE

    def test_vantage_lookup_failure_is_indeterminate(self):
        def fake(question):
            raise QueryTimeoutError("all dark")

        decision = classify_resolver(LocalResolver("8.8.8.8"), VANTAGE_IP, ask=asking(fake))
        assert decision.verdict is Classification.INDETERMINATE

    def test_malformed_reply_is_indeterminate(self):
        def fake(question):
            raise MalformedMessageError("message of 3 bytes (header needs 12)")

        public = classify_resolver(LocalResolver("8.8.8.8"), VANTAGE_IP, ask=asking(fake))
        private = classify_resolver(LocalResolver("192.168.1.1"), VANTAGE_IP, ask=asking(fake))
        assert public.verdict is Classification.INDETERMINATE
        assert private.verdict is Classification.INDETERMINATE

    def test_malformed_whoami_reply_is_no_answer(self):
        def fake(question):
            raise MalformedMessageError("name runs past end of message")

        with pytest.raises(NoAnswerError):
            whoami_egress("192.168.1.1", IpVersion.V4, ask=asking(fake))
        with pytest.raises(NoAnswerError):
            asn_lookup("203.0.113.1", ask=asking(fake))

    def test_unscoped_link_local_resolver_is_indeterminate(self):
        # The whoami question is sent for real: fe80::1 without a scope
        # fails with EINVAL before a datagram leaves the host.
        cymru = asking(routing_fake())

        def whoami_for_real(qname, qtype, resolver_address, **kwargs):
            via = ask if qname.startswith("whoami.") else cymru
            return via(qname, qtype, resolver_address, **kwargs)

        decision = classify_resolver(LocalResolver("fe80::1"), VANTAGE_IP, ask=whoami_for_real)
        assert decision.verdict is Classification.INDETERMINATE
        assert decision.vantage_asn == 64500
        with pytest.raises(NoAnswerError):
            whoami_egress("fe80::1", IpVersion.V6, ask=ask)

    def test_unrelated_resolvers_do_not_interact(self):
        fake = routing_fake(resolver_asns={"9.9.9.9": 64500, "8.8.8.8": 15169})
        alone = classify_resolver(LocalResolver("9.9.9.9"), VANTAGE_IP, ask=asking(fake))
        together_first = classify_resolver(
            LocalResolver("9.9.9.9"), VANTAGE_IP, ask=asking(fake)
        )
        classify_resolver(LocalResolver("8.8.8.8"), VANTAGE_IP, ask=asking(fake))
        assert alone.verdict == together_first.verdict


class TestIspUsable:
    def _decision(self, address, verdict):
        from dnscdn.resolver_id import ResolverClassification

        return ResolverClassification(resolver=LocalResolver(address), verdict=verdict)

    def test_needs_both_families(self):
        v4 = self._decision("203.0.113.5", Classification.ISP_PROVIDED)
        v6 = self._decision("2001:db8::5", Classification.ISP_PROVIDED)
        assert is_isp_usable([v4, v6])
        assert not is_isp_usable([v4])
        assert not is_isp_usable([v6])

    def test_external_resolvers_do_not_count(self):
        v4 = self._decision("203.0.113.5", Classification.ISP_PROVIDED)
        v6 = self._decision("2001:db8::5", Classification.EXTERNAL)
        assert not is_isp_usable([v4, v6])


def test_discover_vantage_address_override_wins():
    def fake(question):
        raise AssertionError("must not touch the network with an override")

    assert discover_vantage_address(IpVersion.V4, ask=asking(fake), override="198.51.100.3") == "198.51.100.3"


def test_discover_vantage_address_uses_whoami():
    def fake(question):
        return txt_response(question.qname, ["ns", "198.51.100.4"])

    assert discover_vantage_address(IpVersion.V4, ask=asking(fake)) == "198.51.100.4"
