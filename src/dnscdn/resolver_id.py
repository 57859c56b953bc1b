"""Decide whether locally configured resolvers are ISP-provided.

A resolver with a public address is ISP-provided when its ASN equals the
vantage host's ASN.  A resolver behind a private address (RFC 1918, ULA,
link-local) is judged instead by the egress address it presents to
authoritative servers, learned through Akamai's whoami service.  Either
way, a resolver whose upstream leaves the host's AS is conservatively
treated as external.

Each kind of lookup has one service: egress addresses come from Akamai's
whoami, and ASNs from Team Cymru's origin zones, asked through the
known-good public resolver (wire.KNOWN_GOOD_RESOLVER).  Every query goes
through one `ask` (resolve.ask unless a caller binds its own), and one
that fails with resolve.QUERY_FAILURES is NoAnswerError, so a resolver
that cannot be asked at all (an unscoped link-local fe80::1 fails with
EINVAL) is classified Indeterminate.  Nothing is cached; detect-isp
classifies a handful of resolvers once.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum

from .resolve import QUERY_FAILURES, ask
from .wire import KNOWN_GOOD_RESOLVER, IpVersion, RecordType

WHOAMI_V4 = "whoami.ipv4.akahelp.net"
WHOAMI_V6 = "whoami.ipv6.akahelp.net"
CYMRU_V4_ZONE = "origin.asn.cymru.com"
CYMRU_V6_ZONE = "origin6.asn.cymru.com"


class NoConfigError(Exception):
    """Resolver configuration missing or empty."""


class NoAnswerError(Exception):
    """Query produced no usable answer (timeout or empty response)."""


class ParseFailureError(Exception):
    """Answer arrived but its payload was not in the expected shape."""


class NoMappingError(Exception):
    """Cymru has no origin data for the address (NXDOMAIN)."""


class Classification(Enum):
    ISP_PROVIDED = "isp-provided"
    EXTERNAL = "external"
    INDETERMINATE = "indeterminate"


@dataclass
class LocalResolver:
    """A configured resolver; its privacy and family follow from its address."""

    address: str

    def __post_init__(self):
        IpVersion.of_address(self.address)  # TypeError or ValueError if not an address

    @property
    def is_private(self) -> bool:
        ip = ipaddress.ip_address(self.address)
        return ip.is_private or ip.is_link_local

    @property
    def family(self) -> IpVersion:
        return IpVersion.of_address(self.address)


@dataclass
class ResolverClassification:
    resolver: LocalResolver
    verdict: Classification
    vantage_asn: int | None = None
    resolver_asn: int | None = None
    egress_address: str | None = None
    egress_asn: int | None = None


def enumerate_local_resolvers(config_path: str = "/etc/resolv.conf") -> list[LocalResolver]:
    """Nameserver addresses from the system configuration, in file order,
    deduplicated across both families."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise NoConfigError(f"cannot read {config_path}: {exc}") from exc
    out: list[LocalResolver] = []
    seen: set[str] = set()
    for line in lines:
        line = line.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or not line.startswith("nameserver"):
            continue
        parts = line.split()
        if len(parts) < 2:
            continue
        # glibc accepts zone-scoped v6 nameservers (fe80::1%eth0)
        addr = parts[1].split("%", 1)[0]
        try:
            ipaddress.ip_address(addr)
        except ValueError:
            continue
        if addr in seen:
            continue
        seen.add(addr)
        out.append(LocalResolver(addr))
    if not out:
        raise NoConfigError(f"no nameserver entries in {config_path}")
    return out


def _txt_strings(reply) -> list[str]:
    """Every string of every TXT answer in the reply, in order."""
    strings: list[str] = []
    for record in reply.answers:
        if record.rtype == RecordType.TXT and isinstance(record.rdata, list):
            strings.extend(record.rdata)
    return strings


def whoami_egress(resolver_address: str, family: IpVersion, *, ask=ask) -> str:
    """Ask the whoami service which address the resolver egresses from.

    The akahelp answer is a TXT record of key/value string pairs; the "ns"
    key carries the egress address.  No reply, or one without TXT strings,
    raises NoAnswerError; strings without an "ns" address raise
    ParseFailureError.
    """
    service = WHOAMI_V4 if family is IpVersion.V4 else WHOAMI_V6
    try:
        reply = ask(service, RecordType.TXT, resolver_address)
    except QUERY_FAILURES as exc:
        raise NoAnswerError(f"no whoami answer through {resolver_address}: {exc}") from exc
    strings = _txt_strings(reply)
    if not strings:
        raise NoAnswerError(f"no whoami answer through {resolver_address}")
    for key, value in zip(strings, strings[1:]):
        if key.lower() == "ns":
            try:
                ipaddress.ip_address(value)
            except ValueError:
                break
            return value
    raise ParseFailureError(f"{service} answer {strings!r} lacks an 'ns' address pair")


def cymru_query_name(ip: str) -> str:
    """Build the Team Cymru origin query name for an address."""
    addr = ipaddress.ip_address(ip)
    if addr.version == 4:
        octets = str(addr).split(".")
        return ".".join(reversed(octets)) + "." + CYMRU_V4_ZONE
    nibbles = addr.exploded.replace(":", "")
    return ".".join(reversed(nibbles)) + "." + CYMRU_V6_ZONE


def parse_cymru_answer(strings: list[str]) -> tuple[int, str]:
    """Parse `ASN | prefix | country | registry | date` into (asn, prefix).

    Multi-origin prefixes list several ASNs in the first field; the first
    one is taken.
    """
    text = " ".join(strings)
    fields = [f.strip() for f in text.split("|")]
    if len(fields) < 2 or not fields[0]:
        raise ParseFailureError(f"unparseable Cymru answer {text!r}")
    first_asn = fields[0].split()[0]
    if not first_asn.isdigit():
        raise ParseFailureError(f"non-numeric ASN in Cymru answer {text!r}")
    return int(first_asn), fields[1]


def asn_lookup(ip: str, *, ask=ask) -> int:
    """Map an IP address to its origin ASN via Team Cymru's DNS interface,
    asked through the known-good resolver."""
    try:
        reply = ask(cymru_query_name(ip), RecordType.TXT, KNOWN_GOOD_RESOLVER)
    except QUERY_FAILURES as exc:
        raise NoAnswerError(f"Cymru lookup for {ip} failed: {exc}") from exc
    if reply.rcode == 3:  # NXDOMAIN
        raise NoMappingError(f"no origin mapping for {ip}")
    strings = _txt_strings(reply)
    if not strings:
        raise NoAnswerError(f"empty Cymru answer for {ip}")
    asn, _ = parse_cymru_answer(strings)
    return asn


def discover_vantage_address(family: IpVersion, *, ask=ask, override: str | None = None) -> str:
    """The host's public address for a family: operator override, else the
    egress the known-good public resolver reports via whoami.

    (A NATed host's local address has no ASN, so the whoami view is what
    counts for AS matching.)
    """
    if override is not None:
        return override
    return whoami_egress(KNOWN_GOOD_RESOLVER, family, ask=ask)


def classify_resolver(resolver: LocalResolver, vantage_ip: str, *, ask=ask) -> ResolverClassification:
    """Classify one resolver against the vantage host's AS.

    Public resolver address: compare the resolver's ASN to the vantage
    ASN.  Private address: compare the whoami egress ASN instead.  Any
    lookup failure folds into Indeterminate rather than raising.
    """
    result = ResolverClassification(resolver=resolver, verdict=Classification.INDETERMINATE)
    try:
        result.vantage_asn = asn_lookup(vantage_ip, ask=ask)
        if resolver.is_private:
            result.egress_address = whoami_egress(resolver.address, resolver.family, ask=ask)
            result.egress_asn = asn = asn_lookup(result.egress_address, ask=ask)
        else:
            result.resolver_asn = asn = asn_lookup(resolver.address, ask=ask)
    except (NoAnswerError, NoMappingError, ParseFailureError, ValueError):
        return result
    result.verdict = Classification.ISP_PROVIDED if asn == result.vantage_asn else Classification.EXTERNAL
    return result


def is_isp_usable(classifications: list[ResolverClassification]) -> bool:
    """A vantage point counts for ISP-resolver comparisons only when it has
    at least one IPv4 and one IPv6 ISP-provided resolver."""
    families = {
        c.resolver.family
        for c in classifications
        if c.verdict is Classification.ISP_PROVIDED
    }
    return IpVersion.V4 in families and IpVersion.V6 in families
