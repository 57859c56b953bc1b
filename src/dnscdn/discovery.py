"""Find CDN-accelerated, dual-stack websites by walking a ranked domain list.

The scan follows each domain's CNAME chain (and the chains of domains
embedded in its front page), matches the terminal name against a catalog
of per-CDN suffixes, and keeps the first hit per site — provided A and
AAAA lookups succeed through every configured resolver.

Chains are followed through the first configured resolver (the known-good
public resolver when none is configured), capped at DEFAULT_CHAIN_CAP
names; front pages are fetched once each, within PAGE_TIMEOUT_S and
PAGE_BYTE_CAP.  Every lookup goes through one `ask` (resolve.ask unless a
caller binds its own); a query that fails with resolve.QUERY_FAILURES
means no chain or no address, and a hostname that is not a DNS name is
skipped.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from html.parser import HTMLParser
from importlib import resources
from urllib.parse import urlsplit

from .campaign import ResolverEntry
from .resolve import QUERY_FAILURES, ask
from .wire import KNOWN_GOOD_RESOLVER, InvalidNameError, RecordType, validate_name

log = logging.getLogger(__name__)

DEFAULT_CHAIN_CAP = 16
PAGE_BYTE_CAP = 1 << 20  # one fetch per site, body truncated at 1 MiB
PAGE_TIMEOUT_S = 10.0


class ChainLoopError(Exception):
    """CNAME chain revisited a name or exceeded the length cap."""


class CatalogError(Exception):
    pass


class CdnCatalog:
    """Mapping of CDN identifier to the DNS suffixes it serves under.

    Suffixes are lowercase and matched on label boundaries; the same
    suffix may not belong to two CDNs.
    """

    def __init__(self, entries: dict[str, list[str]]):
        seen: dict[str, str] = {}
        cleaned: dict[str, list[str]] = {}
        for cdn, suffixes in entries.items():
            bucket = []
            for suffix in suffixes:
                norm = suffix.lower().strip(".")
                if not norm:
                    raise CatalogError(f"empty suffix under {cdn}")
                if norm in seen and seen[norm] != cdn:
                    raise CatalogError(f"suffix {norm} listed under both {seen[norm]} and {cdn}")
                seen[norm] = cdn
                bucket.append(norm)
            cleaned[cdn] = bucket
        self.entries = cleaned

    @classmethod
    def parse(cls, text: str) -> "CdnCatalog":
        entries: dict[str, list[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CatalogError(f"line {lineno}: expected 'cdn suffix', got {line!r}")
            entries.setdefault(parts[0].lower(), []).append(parts[1])
        return cls(entries)

    @classmethod
    def load(cls, path: str | None = None) -> "CdnCatalog":
        if path is None:
            text = resources.files("dnscdn.data").joinpath("cdn_suffixes.txt").read_text()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return cls.parse(text)

    def match(self, name: str) -> str | None:
        """Return the CDN whose suffix anchors name, longest suffix first."""
        name = name.lower().rstrip(".")
        best_cdn, best_len = None, -1
        for cdn, suffixes in self.entries.items():
            for suffix in suffixes:
                if (name == suffix or name.endswith("." + suffix)) and len(suffix) > best_len:
                    best_cdn, best_len = cdn, len(suffix)
        return best_cdn


@dataclass
class CandidateSite:
    rank: int
    site_domain: str
    terminal_cname: str
    cdn: str
    # per resolver label: {"v4": bool, "v6": bool}
    dual_stack_ok: dict[str, dict[str, bool]] = field(default_factory=dict)

    def __post_init__(self):
        if self.rank <= 0:
            raise ValueError("rank must be positive")


def follow_cname_chain(name: str, resolver_address: str, *, ask=ask) -> list[str]:
    """Issue one A query and read the CNAME chain out of the answer section.

    Returns [queried name, alias, ..., terminal name]; a name with a direct
    address record yields the single-element chain.  Raises ChainLoopError
    when the answer's CNAMEs cycle or run past DEFAULT_CHAIN_CAP names,
    InvalidNameError for a name that is not a DNS name, and what ask
    raises (QUERY_FAILURES) for a failed query.
    """
    validate_name(name)
    reply = ask(name, RecordType.A, resolver_address)
    aliases = {}
    for record in reply.answers:
        if record.rtype == RecordType.CNAME:
            aliases.setdefault(record.name.lower().rstrip("."), str(record.rdata))
    chain = [name.rstrip(".")]
    seen = {chain[0].lower()}
    current = chain[0].lower()
    while current in aliases:
        nxt = aliases[current].rstrip(".")
        if nxt.lower() in seen or len(chain) >= DEFAULT_CHAIN_CAP:
            raise ChainLoopError(f"CNAME chain from {name} did not terminate")
        chain.append(nxt)
        seen.add(nxt.lower())
        current = nxt.lower()
    return chain


class _RefExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hosts: list[str] = []
        self._seen: set[str] = set()

    def handle_starttag(self, tag, attrs):
        for key, value in attrs:
            if value is None:
                continue
            if key in ("href", "src"):
                self._take(value)
            elif key == "srcset":
                for part in value.split(","):
                    url = part.strip().split()[0] if part.strip() else ""
                    self._take(url)

    def _take(self, url: str):
        try:
            host = urlsplit(url.strip()).hostname
        except ValueError:
            return
        if host and host not in self._seen:
            self._seen.add(host)
            self.hosts.append(host)


def extract_embedded_domains(page_body: str) -> list[str]:
    """Hostnames referenced by href/src/srcset attributes, document order,
    deduplicated.  Unparseable input yields an empty list."""
    parser = _RefExtractor()
    try:
        parser.feed(page_body)
        parser.close()
    except Exception:  # noqa: BLE001 - garbage markup is expected in the wild
        pass
    return parser.hosts


def fetch_page(domain: str) -> str | None:
    """Fetch the site root document once, truncated to PAGE_BYTE_CAP."""
    import urllib.request  # only `discover` fetches pages; the other commands skip its import

    for scheme in ("https", "http"):
        try:
            with urllib.request.urlopen(f"{scheme}://{domain}/", timeout=PAGE_TIMEOUT_S) as resp:
                raw = resp.read(PAGE_BYTE_CAP)
            return raw.decode("utf-8", errors="replace")
        except Exception as exc:  # noqa: BLE001
            log.debug("page fetch %s://%s failed: %s", scheme, domain, exc)
    return None


def load_domain_list(path: str) -> list[str]:
    """Read a ranked domain CSV (rank in column 1, domain in column 3).

    Rows arrive already sorted by rank; a non-numeric first column is
    treated as the header and skipped.
    """
    domains = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) < 3:
                continue
            if not row[0].strip().isdigit():
                continue
            domains.append(row[2].strip())
    return domains


def _has_address(name, resolver_address, qtype, ask) -> bool:
    try:
        reply = ask(name, qtype, resolver_address)
    except QUERY_FAILURES:
        return False
    return any(r.rtype == qtype for r in reply.answers)


def scan_domain_list(
    domains: list[str],
    catalog: CdnCatalog,
    quotas: dict[str, int],
    resolvers: list[ResolverEntry],
    *,
    ask=ask,
    page_fn=fetch_page,
    scan_embedded: bool = True,
    fanout: int = 1,
) -> dict[str, list[CandidateSite]]:
    """Walk domains in rank order until each CDN's quota is filled.

    A domain is accepted for the first catalog match found along its own
    CNAME chain or an embedded domain's chain, and only if both A and AAAA
    resolve through every resolver's address of that family.  A domain
    that is not a DNS name is skipped, and so is an embedded hostname that
    is not one.  Exhausting the list with quotas unmet logs a warning and
    returns the partial result.
    """
    if any(q < 0 for q in quotas.values()):
        raise ValueError("quotas must be non-negative")
    chain_resolver = resolvers[0].v4_address if resolvers else KNOWN_GOOD_RESOLVER
    selected: dict[str, list[CandidateSite]] = {cdn: [] for cdn, q in quotas.items() if q > 0}

    def quotas_open():
        return [cdn for cdn in selected if len(selected[cdn]) < quotas[cdn]]

    def scan_one(item):
        rank, domain = item
        try:
            validate_name(domain)
        except (InvalidNameError, ValueError):
            return None  # not a DNS name: it has no address to check
        # Probe the domain itself first, then anything its page references.
        names = [domain]
        if scan_embedded:
            body = page_fn(domain)
            if body:
                names.extend(h for h in extract_embedded_domains(body) if h != domain)
        for probe in names:
            try:
                chain = follow_cname_chain(probe, chain_resolver, ask=ask)
            except (*QUERY_FAILURES, ChainLoopError, InvalidNameError, ValueError):
                continue
            cdn = catalog.match(chain[-1])
            if cdn is not None:
                return rank, domain, chain[-1], cdn
        return None

    ranked = list(enumerate(domains, start=1))
    workers = max(1, fanout)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Scan in rank-ordered batches: within a batch domains run
        # concurrently, but acceptance consumes results in rank order and
        # the walk stops at the first batch that fills every quota.
        for start in range(0, len(ranked), workers):
            if not quotas_open():
                break
            batch = ranked[start : start + workers]
            for hit in pool.map(scan_one, batch):
                if hit is None or not quotas_open():
                    continue
                rank, domain, terminal, cdn = hit
                if cdn not in selected or len(selected[cdn]) >= quotas[cdn]:
                    continue
                checks = _dual_stack_checks(domain, resolvers, ask)
                if all(ok for per in checks.values() for ok in per.values()):
                    selected[cdn].append(
                        CandidateSite(
                            rank=rank,
                            site_domain=domain,
                            terminal_cname=terminal,
                            cdn=cdn,
                            dual_stack_ok=checks,
                        )
                    )

    unmet = {cdn: quotas[cdn] - len(sites) for cdn, sites in selected.items() if len(sites) < quotas[cdn]}
    if unmet:
        log.warning("domain list exhausted with quotas unmet: %s", unmet)
    return selected


def _dual_stack_checks(domain, resolvers, ask):
    checks: dict[str, dict[str, bool]] = {}
    for r in resolvers:
        checks[r.label] = {
            "v4": _has_address(domain, r.v4_address, RecordType.A, ask),
            "v6": _has_address(domain, r.v6_address, RecordType.AAAA, ask),
        }
    return checks
