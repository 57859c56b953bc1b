"""CDN site discovery: catalogs, CNAME chains, page scraping, list scans."""

import errno
import functools
import logging
import subprocess
import sys
from pathlib import Path

import pytest

import mocknet
from factories import asking, make_response
from dnscdn import discovery
from dnscdn.campaign import ResolverEntry
from dnscdn.discovery import (
    DEFAULT_CHAIN_CAP,
    CatalogError,
    CdnCatalog,
    ChainLoopError,
    extract_embedded_domains,
    follow_cname_chain,
    load_domain_list,
    scan_domain_list,
    _has_address,
)
from dnscdn.resolve import ask
from dnscdn.wire import MalformedMessageError, RecordType, ResourceRecord


def chain_answers(qname, links, terminal_address="192.0.2.1"):
    """links: list of (alias, target); terminal gets an A record."""
    records = [
        ResourceRecord(name=alias, rtype=int(RecordType.CNAME), ttl=300, rdata=target)
        for alias, target in links
    ]
    if terminal_address:
        terminal = links[-1][1] if links else qname
        records.append(ResourceRecord(name=terminal, rtype=1, ttl=20, rdata=terminal_address))
    return records


class TestFollowCnameChain:
    def test_three_link_chain(self):
        def fake(question):
            return make_response(
                1.0, 1.0, qname=question.qname,
                answers=chain_answers(
                    "x.example", [("x.example", "y.example"), ("y.example", "z.cdn.example")]
                ),
            )

        chain = follow_cname_chain("x.example", "192.0.2.53", ask=asking(fake))
        assert chain == ["x.example", "y.example", "z.cdn.example"]

    def test_direct_a_record_single_element(self):
        def fake(question):
            return make_response(1.0, 1.0, qname=question.qname)

        assert follow_cname_chain("plain.example", "192.0.2.53", ask=asking(fake)) == ["plain.example"]

    def test_cycle_raises_chain_loop(self):
        def fake(question):
            return make_response(
                1.0, 1.0, qname=question.qname,
                answers=chain_answers(
                    "x.example", [("x.example", "y.example"), ("y.example", "x.example")],
                    terminal_address=None,
                ),
            )

        with pytest.raises(ChainLoopError):
            follow_cname_chain("x.example", "192.0.2.53", ask=asking(fake))

    def test_length_cap_raises_chain_loop(self):
        def fake_with(count):
            links = [(f"n{i}.example", f"n{i+1}.example") for i in range(count)]

            def fake(question):
                return make_response(
                    1.0, 1.0, qname=question.qname, answers=chain_answers("n0.example", links)
                )

            return fake

        # DEFAULT_CHAIN_CAP names is the longest chain that terminates.
        chain = follow_cname_chain("n0.example", "192.0.2.53", ask=asking(fake_with(DEFAULT_CHAIN_CAP - 1)))
        assert len(chain) == DEFAULT_CHAIN_CAP
        with pytest.raises(ChainLoopError):
            follow_cname_chain("n0.example", "192.0.2.53", ask=asking(fake_with(DEFAULT_CHAIN_CAP)))

    def test_against_live_mock_server(self):
        def script(qname, qtype, count):
            return mocknet.MockReply(
                answers=[
                    ("www.shop.example", mocknet.CNAME, 300, "shop.edgekey.net"),
                    ("shop.edgekey.net", mocknet.CNAME, 300, "e1234.a.akamaiedge.net"),
                    ("e1234.a.akamaiedge.net", mocknet.A, 20, "203.0.113.5"),
                ]
            )

        with mocknet.MockDnsServer(script) as server:
            to_server = functools.partial(ask, port=server.port)
            chain = follow_cname_chain("www.shop.example", server.host, ask=to_server)
        assert chain == ["www.shop.example", "shop.edgekey.net", "e1234.a.akamaiedge.net"]


class TestExtractEmbeddedDomains:
    def test_src_attribute(self):
        body = '<html><img src="https://img.example-cdn.net/a.png"></html>'
        assert extract_embedded_domains(body) == ["img.example-cdn.net"]

    def test_no_external_references(self):
        assert extract_embedded_domains("<html><p>hello</p><a href='/local'>x</a></html>") == []

    def test_duplicates_listed_once(self):
        body = (
            '<img src="https://static.example.net/a.png">'
            '<script src="https://static.example.net/b.js"></script>'
        )
        assert extract_embedded_domains(body) == ["static.example.net"]

    def test_document_order_preserved(self):
        body = (
            '<link href="https://a.example/x.css">'
            '<img src="https://b.example/y.png">'
            '<a href="https://a.example/z">text</a>'
        )
        assert extract_embedded_domains(body) == ["a.example", "b.example"]

    def test_srcset_urls(self):
        body = '<img srcset="https://c1.example/a.png 1x, https://c2.example/a.png 2x">'
        assert extract_embedded_domains(body) == ["c1.example", "c2.example"]

    def test_garbage_input_gives_empty_list(self):
        assert extract_embedded_domains("\x00<<<>>>") == []


class TestCdnCatalog:
    def test_parse_and_match(self):
        catalog = CdnCatalog.parse("akamai edgekey.net\nfastly fastly.net\n")
        assert catalog.match("e1.edgekey.net") == "akamai"
        assert catalog.match("x.global.fastly.net.") == "fastly"
        assert catalog.match("unrelated.example") is None

    def test_suffix_anchored_on_label_boundary(self):
        catalog = CdnCatalog.parse("fastly fastly.net\n")
        assert catalog.match("notfastly.net") is None
        assert catalog.match("fastly.net") == "fastly"

    def test_duplicate_suffix_rejected(self):
        with pytest.raises(CatalogError):
            CdnCatalog.parse("a cdn.example\nb cdn.example\n")

    def test_longest_suffix_wins(self):
        catalog = CdnCatalog({"special": ["a.cdn.example"], "generic": ["cdn.example"]})
        assert catalog.match("x.a.cdn.example") == "special"
        assert catalog.match("x.b.cdn.example") == "generic"

    def test_packaged_catalog_loads(self):
        catalog = CdnCatalog.load()
        assert catalog.match("e1234.b.akamaiedge.net") == "akamai"
        assert catalog.match("x.systemcdn.net") == "edgecast"


def test_load_domain_list(tmp_path):
    csv_path = tmp_path / "ranked.csv"
    csv_path.write_text(
        "GlobalRank,TldRank,Domain,TLD\n"
        "1,1,top.example,example\n"
        "2,2,second.example,example\n"
        "3,3,third.example,example\n"
    )
    assert load_domain_list(str(csv_path)) == ["top.example", "second.example", "third.example"]


RESOLVERS = [
    ResolverEntry("google", "8.8.8.8", "2001:4860:4860::8888"),
    ResolverEntry("quad9", "9.9.9.9", "2620:fe::fe"),
]


def make_scan_fixture(chains, dual_stack_failures=()):
    """A fake resolve_once.  chains: domain -> terminal name; a question
    about a domain is answered with the CNAME to its terminal name, if
    that differs, and an address record of the asked type, unless
    (domain, resolver_address, rtype) is in dual_stack_failures."""

    def resolve_fn(question):
        rtype = int(question.qtype)
        terminal = chains.get(question.qname, question.qname)
        answers = []
        if terminal != question.qname:
            answers.append(ResourceRecord(question.qname, int(RecordType.CNAME), 300, terminal))
        if (question.qname, question.resolver_address, rtype) not in dual_stack_failures:
            address = "192.0.2.1" if rtype == 1 else "2001:db8::1"
            answers.append(ResourceRecord(terminal, rtype, 60, address))
        return make_response(1.0, 1.0, qname=question.qname, answers=answers)

    return resolve_fn


class TestScanDomainList:
    def test_selects_matching_domains_in_rank_order(self):
        domains = [f"d{i}.example" for i in range(1, 11)]
        chains = {d: d for d in domains}
        chains["d3.example"] = "d3.edgekey.net"
        chains["d7.example"] = "d7.edgekey.net"
        resolve_fn = make_scan_fixture(chains)
        catalog = CdnCatalog.parse("akamai edgekey.net\n")
        result = scan_domain_list(
            domains, catalog, {"akamai": 2}, RESOLVERS,
            ask=asking(resolve_fn), scan_embedded=False,
        )
        sites = result["akamai"]
        assert [(s.rank, s.site_domain) for s in sites] == [(3, "d3.example"), (7, "d7.example")]
        assert sites[0].terminal_cname == "d3.edgekey.net"
        assert all(all(ok.values()) for ok in sites[0].dual_stack_ok.values())

    def test_zero_quota_cdn_absent(self):
        domains = ["d1.example"]
        chains = {"d1.example": "d1.edgekey.net"}
        resolve_fn = make_scan_fixture(chains)
        catalog = CdnCatalog.parse("akamai edgekey.net\nfastly fastly.net\n")
        result = scan_domain_list(
            domains, catalog, {"akamai": 1, "fastly": 0}, RESOLVERS,
            ask=asking(resolve_fn), scan_embedded=False,
        )
        assert "fastly" not in result

    def test_single_family_failure_rejects_candidate(self):
        domains = ["d1.example", "d2.example"]
        chains = {"d1.example": "d1.edgekey.net", "d2.example": "d2.edgekey.net"}
        failures = {("d1.example", "2620:fe::fe", int(RecordType.AAAA))}
        resolve_fn = make_scan_fixture(chains, failures)
        catalog = CdnCatalog.parse("akamai edgekey.net\n")
        result = scan_domain_list(
            domains, catalog, {"akamai": 1}, RESOLVERS,
            ask=asking(resolve_fn), scan_embedded=False,
        )
        assert [s.site_domain for s in result["akamai"]] == ["d2.example"]

    def test_quota_unmet_warns_and_returns_partial(self, caplog):
        domains = ["d1.example", "d2.example"]
        chains = {"d1.example": "d1.edgekey.net", "d2.example": "d2.example"}
        resolve_fn = make_scan_fixture(chains)
        catalog = CdnCatalog.parse("akamai edgekey.net\n")
        with caplog.at_level(logging.WARNING, logger="dnscdn.discovery"):
            result = scan_domain_list(
                domains, catalog, {"akamai": 5}, RESOLVERS,
                ask=asking(resolve_fn), scan_embedded=False,
            )
        assert len(result["akamai"]) == 1
        assert any("quotas unmet" in r.message for r in caplog.records)

    def test_embedded_domain_chain_counts(self):
        domains = ["shop.example"]
        chains = {"shop.example": "shop.example", "img.shop.example": "img.fastly.net"}
        resolve_fn = make_scan_fixture(chains)
        catalog = CdnCatalog.parse("fastly fastly.net\n")

        def page_fn(domain):
            return '<img src="https://img.shop.example/logo.png">'

        result = scan_domain_list(
            domains, catalog, {"fastly": 1}, RESOLVERS,
            ask=asking(resolve_fn), page_fn=page_fn,
        )
        (site,) = result["fastly"]
        assert site.site_domain == "shop.example"
        assert site.terminal_cname == "img.fastly.net"

    def test_rerun_is_deterministic(self):
        domains = [f"d{i}.example" for i in range(1, 30)]
        chains = {d: (d.replace(".example", ".edgekey.net") if i % 3 == 0 else d)
                  for i, d in enumerate(domains, start=1)}
        resolve_fn = make_scan_fixture(chains)
        catalog = CdnCatalog.parse("akamai edgekey.net\n")
        runs = [
            scan_domain_list(
                domains, catalog, {"akamai": 4}, RESOLVERS,
                ask=asking(resolve_fn), scan_embedded=False, fanout=4,
            )
            for _ in range(2)
        ]
        first = [(s.rank, s.terminal_cname) for s in runs[0]["akamai"]]
        second = [(s.rank, s.terminal_cname) for s in runs[1]["akamai"]]
        assert first == second
        assert first == sorted(first)
        assert len(first) == 4


# A reply that cannot be decoded, and the OSError an unscoped link-local
# address such as fe80::1 gets (EINVAL).
QUERY_ERRORS = {
    "malformed": MalformedMessageError("message of 6 bytes (header needs 12)"),
    "os-error": OSError(errno.EINVAL, "Invalid argument"),
}


def failing_for(bad_name, error):
    """A fake resolve_once whose every query about bad_name raises error."""
    resolve_fn = make_scan_fixture({})

    def fake(question):
        if question.qname == bad_name:
            raise error
        return resolve_fn(question)

    return fake


@pytest.mark.parametrize("error", QUERY_ERRORS.values(), ids=QUERY_ERRORS)
def test_failed_query_means_no_address(error):
    fake = failing_for("d1.example", error)
    assert not _has_address("d1.example", "8.8.8.8", RecordType.A, asking(fake))
    assert _has_address("d2.example", "8.8.8.8", RecordType.A, asking(fake))


@pytest.mark.parametrize("error", QUERY_ERRORS.values(), ids=QUERY_ERRORS)
def test_failed_chain_query_skips_the_domain(error):
    catalog = CdnCatalog.parse("akamai example\n")
    result = scan_domain_list(
        ["d1.example", "d2.example"], catalog, {"akamai": 2}, RESOLVERS,
        ask=asking(failing_for("d1.example", error)), scan_embedded=False,
    )
    assert [s.site_domain for s in result["akamai"]] == ["d2.example"]


NOT_DNS_NAMES = ["a..example", "x" * 64 + ".example"]


def test_embedded_hostname_that_is_not_a_dns_name_is_skipped():
    resolve_fn = make_scan_fixture({"img.shop.example": "img.fastly.net"})
    links = "".join(f'<img src="https://{host}/a.png">' for host in [*NOT_DNS_NAMES, "img.shop.example"])
    result = scan_domain_list(
        ["shop.example"], CdnCatalog.parse("fastly fastly.net\n"), {"fastly": 1}, RESOLVERS,
        ask=asking(resolve_fn), page_fn=lambda domain: links,
    )
    assert [(s.site_domain, s.terminal_cname) for s in result["fastly"]] == [("shop.example", "img.fastly.net")]


def test_listed_domain_that_is_not_a_dns_name_is_skipped():
    fetched = []

    def page_fn(domain):
        fetched.append(domain)
        return '<img src="https://img.shop.example/a.png">'

    resolve_fn = make_scan_fixture({"img.shop.example": "img.fastly.net"})
    result = scan_domain_list(
        [*NOT_DNS_NAMES, "shop.example"], CdnCatalog.parse("fastly fastly.net\n"), {"fastly": 1},
        RESOLVERS, ask=asking(resolve_fn), page_fn=page_fn,
    )
    assert [(s.rank, s.site_domain) for s in result["fastly"]] == [(3, "shop.example")]
    assert fetched == ["shop.example"]


def test_importing_the_cli_leaves_urllib_request_unimported():
    # Only `discover` fetches pages, so the other commands should not pay
    # for urllib.request (and http.client) at start-up.
    src = str(Path(discovery.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import dnscdn.cli; print(sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60, check=True
    )
    assert "'dnscdn.discovery'" in result.stdout
    assert "'urllib.request'" not in result.stdout
