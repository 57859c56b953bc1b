"""Measure DNS resolution latency and CDN client-mapping latency across
public and ISP resolvers, with TTL-based cache hit/miss inference."""

from .analytics import (
    KsResult,
    LatencyPoint,
    Metric,
    address_diversity,
    build_latency_points,
    distribution,
    hit_rate_table,
    ipv6_penalty,
    ks_two_sample,
    per_cdn_median,
    per_website_median,
    regional_breakdown,
)
from .cache import (
    AuthoritativeTtl,
    Convention,
    TtlQuirk,
    Verdict,
    classify,
    discover_authoritative_ttl,
)
from .campaign import (
    MeasurementSet,
    MeasurementSpec,
    ResolverEntry,
    completeness_filter,
    fill_in,
    is_usable,
    run_campaign,
    run_measurement_set,
)
from .config import ToolConfig, load_config
from .discovery import CdnCatalog, CandidateSite, follow_cname_chain, scan_domain_list
from .mapping import HandshakeSample, mapping_latency, measure_handshake, select_edge
from .resolve import TimedDnsResponse, resolve_once
from .resolver_id import (
    Classification,
    LocalResolver,
    ResolverClassification,
    asn_lookup,
    classify_resolver,
    enumerate_local_resolvers,
    is_isp_usable,
    whoami_egress,
)
from .storage import CampaignRecord, Provenance, iter_records, read_records, write_records
from .wire import (
    DnsMessage,
    DnsQuestion,
    IpVersion,
    RecordType,
    ResourceRecord,
    decode_response,
    encode_query,
)

__version__ = "0.1.0"
