"""Decide whether locally configured resolvers are ISP-provided.

A resolver with a public address is ISP-provided when its ASN equals the
vantage host's ASN.  A resolver behind a private address (RFC 1918, ULA,
link-local) is judged instead by the egress address it presents to
authoritative servers, learned through Akamai's whoami service.  Either
way, a resolver whose upstream leaves the host's AS is conservatively
treated as external.
"""

from __future__ import annotations

import ipaddress
import threading
import time
from dataclasses import dataclass
from enum import Enum

from .resolve import ResolveError, resolve_once
from .wire import DnsQuestion, IpVersion, MalformedMessageError, RecordType

WHOAMI_V4 = "whoami.ipv4.akahelp.net"
WHOAMI_V6 = "whoami.ipv6.akahelp.net"
CYMRU_V4_ZONE = "origin.asn.cymru.com"
CYMRU_V6_ZONE = "origin6.asn.cymru.com"
ASN_CACHE_TTL_S = 24 * 3600.0


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


def _is_private(address: str) -> bool:
    ip = ipaddress.ip_address(address)
    return ip.is_private or ip.is_link_local


@dataclass
class LocalResolver:
    address: str
    is_private: bool
    family: IpVersion

    @classmethod
    def of(cls, address: str) -> "LocalResolver":
        return cls(
            address=address,
            is_private=_is_private(address),
            family=IpVersion.of_address(address),
        )

    def __post_init__(self):
        if self.is_private != _is_private(self.address):
            raise ValueError(f"is_private flag disagrees with address {self.address}")
        if self.family is not IpVersion.of_address(self.address):
            raise ValueError(f"family flag disagrees with address {self.address}")


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
        out.append(LocalResolver.of(addr))
    if not out:
        raise NoConfigError(f"no nameserver entries in {config_path}")
    return out


def whoami_egress(
    resolver_address: str,
    family: IpVersion,
    *,
    resolve_fn=resolve_once,
    alternate_service: str | None = None,
    timeout_ms: float = 5000.0,
) -> str:
    """Ask the whoami service which address the resolver egresses from.

    The akahelp answer is a TXT record of key/value string pairs; the "ns"
    key carries the egress address.  An operator-supplied alternate service
    name is tried when the primary yields nothing.
    """
    primary = WHOAMI_V4 if family is IpVersion.V4 else WHOAMI_V6
    services = [primary] + ([alternate_service] if alternate_service else [])
    last_parse_error = None
    for service in services:
        question = DnsQuestion(
            qname=service,
            qtype=RecordType.TXT,
            resolver_address=resolver_address,
            timeout_ms=timeout_ms,
        )
        try:
            reply = resolve_fn(question)
        except (ResolveError, MalformedMessageError):
            continue
        strings: list[str] = []
        for record in reply.answers:
            if record.rtype == RecordType.TXT and isinstance(record.rdata, list):
                strings.extend(record.rdata)
        if not strings:
            continue
        for key, value in zip(strings, strings[1:]):
            if key.lower() == "ns":
                try:
                    ipaddress.ip_address(value)
                except ValueError:
                    break
                return value
        last_parse_error = ParseFailureError(
            f"{service} answer {strings!r} lacks an 'ns' address pair"
        )
    if last_parse_error is not None:
        raise last_parse_error
    raise NoAnswerError(f"no whoami answer through {resolver_address}")


class AsnCache:
    """Prefix-keyed cache of Cymru answers, safe for concurrent use."""

    def __init__(self, ttl_s: float = ASN_CACHE_TTL_S, clock=time.monotonic):
        self._ttl = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[float, int]] = {}

    def get(self, ip: str) -> int | None:
        addr = ipaddress.ip_address(ip)
        now = self._clock()
        with self._lock:
            for prefix, (stored_at, asn) in list(self._entries.items()):
                if now - stored_at > self._ttl:
                    del self._entries[prefix]
                    continue
                if addr in ipaddress.ip_network(prefix):
                    return asn
        return None

    def put(self, prefix: str, asn: int):
        ipaddress.ip_network(prefix)  # validates
        with self._lock:
            self._entries[prefix] = (self._clock(), asn)


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


def asn_lookup(
    ip: str,
    *,
    resolver_address: str = "8.8.8.8",
    resolve_fn=resolve_once,
    cache: AsnCache | None = None,
    timeout_ms: float = 5000.0,
) -> int:
    """Map an IP address to its origin ASN via Team Cymru's DNS interface."""
    if cache is not None:
        hit = cache.get(ip)
        if hit is not None:
            return hit
    question = DnsQuestion(
        qname=cymru_query_name(ip),
        qtype=RecordType.TXT,
        resolver_address=resolver_address,
        timeout_ms=timeout_ms,
    )
    try:
        reply = resolve_fn(question)
    except (ResolveError, MalformedMessageError) as exc:
        raise NoAnswerError(f"Cymru lookup for {ip} failed: {exc}") from exc
    if reply.rcode == 3:  # NXDOMAIN
        raise NoMappingError(f"no origin mapping for {ip}")
    strings: list[str] = []
    for record in reply.answers:
        if record.rtype == RecordType.TXT and isinstance(record.rdata, list):
            strings.extend(record.rdata)
    if not strings:
        raise NoAnswerError(f"empty Cymru answer for {ip}")
    asn, prefix = parse_cymru_answer(strings)
    if cache is not None:
        try:
            cache.put(prefix, asn)
        except ValueError:
            pass  # malformed prefix in the answer; skip caching only
    return asn


def discover_vantage_address(
    family: IpVersion,
    *,
    known_good_resolver: str = "8.8.8.8",
    resolve_fn=resolve_once,
    override: str | None = None,
) -> str:
    """The host's public address for a family: operator override, else the
    egress a known-good public resolver reports via whoami.

    (A NATed host's local address has no ASN, so the whoami view is what
    counts for AS matching.)
    """
    if override is not None:
        return override
    return whoami_egress(known_good_resolver, family, resolve_fn=resolve_fn)


def classify_resolver(
    resolver: LocalResolver,
    vantage_ip: str,
    *,
    resolve_fn=resolve_once,
    asn_resolver: str = "8.8.8.8",
    cache: AsnCache | None = None,
    alternate_whoami: str | None = None,
    timeout_ms: float = 5000.0,
) -> ResolverClassification:
    """Classify one resolver against the vantage host's AS.

    Public resolver address: compare the resolver's ASN to the vantage
    ASN.  Private address: compare the whoami egress ASN instead.  Any
    lookup failure folds into Indeterminate rather than raising.
    """
    result = ResolverClassification(resolver=resolver, verdict=Classification.INDETERMINATE)

    def lookup(ip):
        return asn_lookup(
            ip,
            resolver_address=asn_resolver,
            resolve_fn=resolve_fn,
            cache=cache,
            timeout_ms=timeout_ms,
        )

    try:
        result.vantage_asn = lookup(vantage_ip)
    except (NoAnswerError, NoMappingError, ParseFailureError, ValueError):
        return result

    if not resolver.is_private:
        try:
            result.resolver_asn = lookup(resolver.address)
        except (NoAnswerError, NoMappingError, ParseFailureError, ValueError):
            return result
        result.verdict = (
            Classification.ISP_PROVIDED
            if result.resolver_asn == result.vantage_asn
            else Classification.EXTERNAL
        )
        return result

    try:
        result.egress_address = whoami_egress(
            resolver.address,
            resolver.family,
            resolve_fn=resolve_fn,
            alternate_service=alternate_whoami,
            timeout_ms=timeout_ms,
        )
        result.egress_asn = lookup(result.egress_address)
    except (NoAnswerError, NoMappingError, ParseFailureError, ValueError):
        return result
    result.verdict = (
        Classification.ISP_PROVIDED
        if result.egress_asn == result.vantage_asn
        else Classification.EXTERNAL
    )
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
