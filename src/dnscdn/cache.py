"""Authoritative-TTL discovery and cache hit/miss classification.

A response is judged against the TTL the CDN's authoritative servers
publish: equal means the resolver served it from cache, lower means a
fresh fetch, higher is unexplainable and reported as Unknown.  (That
reading is kept verbatim from the measurement methodology this tool
implements; the conventional interpretation, where an untouched TTL marks
the fresh fetch, is available as Convention.EQUAL_IS_MISS.  Neither is
asserted as ground truth.)
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .resolve import QUERY_FAILURES, ask
from .wire import KNOWN_GOOD_RESOLVER, InvalidNameError, IpVersion, RecordType

log = logging.getLogger(__name__)


class Verdict(Enum):
    HIT = "hit"
    MISS = "miss"
    UNKNOWN = "unknown"


class TtlQuirk(Enum):
    NONE = "none"
    # Google decrements the authoritative TTL by one second before serving
    # a freshly fetched response, so auth-1 is its miss signature.
    GOOGLE_DECREMENT = "google-decrement"


class Convention(Enum):
    EQUAL_IS_HIT = "equal-is-hit"  # an untouched TTL was served from cache
    EQUAL_IS_MISS = "equal-is-miss"  # an untouched TTL marks the fresh fetch


class TtlSource(Enum):
    DIRECT_QUERY = "direct-query"
    STATIC_DEFAULT = "static-default"


class NoAuthorityError(Exception):
    """NS set unresolvable and no static default configured for the CDN."""


@dataclass
class AuthoritativeTtl:
    domain: str
    cdn: str
    ttl: int
    source: TtlSource
    discovered_at: float

    def __post_init__(self):
        if self.ttl <= 0:
            raise ValueError("authoritative ttl must be positive")


def classify(
    response_ttl: int,
    authoritative_ttl: int,
    quirk: TtlQuirk = TtlQuirk.NONE,
    convention: Convention = Convention.EQUAL_IS_HIT,
) -> Verdict:
    """Classify one response TTL against the authoritative TTL.

    Total and deterministic.  Unknown always and only means the response
    TTL exceeds the authoritative one, under either convention.
    """
    if response_ttl < 0 or authoritative_ttl < 0:
        raise ValueError("TTLs must be non-negative")
    if response_ttl > authoritative_ttl:
        return Verdict.UNKNOWN
    if convention is Convention.EQUAL_IS_HIT:
        return Verdict.HIT if response_ttl == authoritative_ttl else Verdict.MISS
    # Fresh-fetch signature: the unmodified authoritative TTL, or one less
    # under the Google decrement quirk.
    fresh = authoritative_ttl - (1 if quirk is TtlQuirk.GOOGLE_DECREMENT else 0)
    return Verdict.MISS if response_ttl == fresh else Verdict.HIT


def parse_ttl_table(text: str) -> dict[str, int]:
    """Parse a defaults table: one `cdn_name <whitespace> ttl_seconds` per line.

    Blank lines and #-comments are skipped.
    """
    table: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'cdn ttl', got {line!r}")
        name, raw_ttl = parts
        ttl = int(raw_ttl)
        if ttl <= 0:
            raise ValueError(f"line {lineno}: ttl must be positive")
        table[name.lower()] = ttl
    return table


def load_ttl_table() -> dict[str, int]:
    """The packaged static default TTLs."""
    return parse_ttl_table(resources.files("dnscdn.data").joinpath("default_ttls.txt").read_text())


def discover_authoritative_ttl(
    domain: str,
    cdn: str,
    *,
    recursive_resolver: str = KNOWN_GOOD_RESOLVER,
    ask=ask,
    static_defaults: dict[str, int] | None = None,
) -> AuthoritativeTtl:
    """Learn the authoritative TTL of domain's A record.

    Finds the NS set through a recursive resolver (walking up parent zones
    when the exact name has none), queries one authoritative server
    directly, and reads the TTL off its answer.  When a query fails
    (QUERY_FAILURES), no authority or answer turns up, or a name or the TTL
    read is unusable, the static defaults table supplies the value; with
    no default either, raises NoAuthorityError.
    """
    if static_defaults is None:
        static_defaults = load_ttl_table()
    try:
        ttl = _direct_query_ttl(domain, recursive_resolver, ask)
        return AuthoritativeTtl(domain, cdn, ttl, TtlSource.DIRECT_QUERY, time.time())
    except (*QUERY_FAILURES, NoAuthorityError, InvalidNameError, ValueError) as exc:
        log.debug("direct TTL discovery for %s failed: %s", domain, exc)
    default = static_defaults.get(cdn.lower())
    if default is None:
        raise NoAuthorityError(f"no NS answer for {domain} and no static default for {cdn}")
    return AuthoritativeTtl(domain, cdn, default, TtlSource.STATIC_DEFAULT, time.time())


def _direct_query_ttl(domain, recursive_resolver, ask) -> int:
    # Walk up from the exact name until some zone yields NS records.
    labels = domain.rstrip(".").split(".")
    ns_name = None
    for start in range(len(labels) - 1):
        zone = ".".join(labels[start:])
        reply = ask(zone, RecordType.NS, recursive_resolver)
        names = [r.rdata for r in reply.answers if r.rtype == RecordType.NS]
        if names:
            ns_name = names[0]
            break
    if ns_name is None:
        raise NoAuthorityError(f"no NS records found above {domain}")
    ns_reply = ask(ns_name, RecordType.A, recursive_resolver)
    ns_addr = ns_reply.first_address(IpVersion.V4)
    if ns_addr is None:
        raise NoAuthorityError(f"authoritative server {ns_name} has no A record")
    direct = ask(domain, RecordType.A, ns_addr)
    for record in direct.answers:
        if record.rtype == RecordType.A:
            return record.ttl
    if direct.answers:
        return direct.answers[0].ttl
    raise NoAuthorityError(f"authoritative server returned no answers for {domain}")

