"""Command-line interface.

Subcommands cover the full workflow: discover measurement websites,
check which local resolvers are ISP-provided, run or schedule campaigns,
fill in failed sets, and analyze or export stored results.  Exit status
is 0 on success, 1 on partial failure, 2 on usage errors.

analyze, report and import-atlas run with the cyclic garbage collector
paused.  Their records form no reference cycles, so reference counting
frees them as before, and each run is bounded by its input, so nothing
piles up; the collector would only walk the loaded records over and over.
The other commands keep it running; schedule, for one, has no end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import logging
import os
import sys
import time
from dataclasses import asdict

from . import analytics, atlas, storage
from .cache import hit_rate_table, load_ttl_table
from .campaign import MeasurementSpec, ResolverEntry, fill_in, is_usable, run_campaign
from .config import ToolConfig, load_config
from .discovery import CdnCatalog, load_domain_list, scan_domain_list
from .mapping import NoAddressError, select_edge
from .resolve import ResolveError, resolve_once
from .resolver_id import (
    Classification,
    NoConfigError,
    classify_resolver,
    discover_vantage_address,
    enumerate_local_resolvers,
    is_isp_usable,
)
from .wire import DnsQuestion, IpVersion, MalformedMessageError, RecordType

log = logging.getLogger(__name__)

PREFLIGHT_PROBE_NAME = "example.com"
GC_PAUSED_COMMANDS = frozenset({"analyze", "report", "import-atlas"})
TABLE_COLUMNS = (
    "metric", "region", "cdn", "resolver", "ip_version", "median_ms", "mean_ms", "region_vantages"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnscdn",
        description="Compare DNS and CDN-mapping latency across public and ISP resolvers",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="find CDN-accelerated dual-stack websites")
    p.add_argument("--domains", required=True, help="ranked domain CSV (rank, _, domain)")
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--catalog", help="CDN suffix catalog file")
    p.add_argument("--output", required=True, help="write the site list JSON here")
    p.add_argument("--no-embedded", action="store_true", help="skip embedded-domain pages")

    p = sub.add_parser("detect-isp", help="classify locally configured resolvers")
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--resolv-conf", default="/etc/resolv.conf")
    p.add_argument("--vantage-v4", help="override the host's public IPv4 address")
    p.add_argument("--vantage-v6", help="override the host's public IPv6 address")

    p = sub.add_parser("measure", help="run one measurement campaign")
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--sites", help="site list JSON from `discover`")
    p.add_argument("--output", help="campaign record file (default: under output_dir)")
    p.add_argument("--skip-preflight", action="store_true", help="measure all resolvers blindly")

    p = sub.add_parser("schedule", help="run campaigns on a recurring interval")
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--sites", help="site list JSON from `discover`")
    p.add_argument("--interval-s", type=float, help="override the configured interval")
    p.add_argument("--count", type=int, default=0, help="stop after N campaigns (0 = forever)")

    p = sub.add_parser("fill-in", help="retry unusable sets in a stored campaign")
    p.add_argument("--input", required=True, help="campaign record file")
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--output", help="write updated records here (default: in place)")

    p = sub.add_parser("analyze", help="aggregate stored campaigns into latency tables")
    p.add_argument("--input", action="append", default=[], help="campaign record file (repeatable)")
    p.add_argument("--data-dir", help="directory of campaign files")
    p.add_argument("--month", help="YYYY-MM; keep only campaign files from that month")
    p.add_argument("--cdn")
    p.add_argument("--resolver")
    p.add_argument("--ip-version", choices=["v4", "v6"])
    p.add_argument("--region")
    p.add_argument("--geo", help="JSON mapping vantage id to region")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    p = sub.add_parser("report", help="emit plot-ready data from stored campaigns")
    p.add_argument("--input", action="append", default=[], required=True)
    p.add_argument(
        "--kind",
        choices=["cdf", "table", "penalty", "diversity", "hit-rate"],
        default="table",
    )
    p.add_argument("--config", help="tool config JSON")
    p.add_argument("--geo", help="JSON mapping vantage id to region")
    p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("import-atlas", help="convert RIPE Atlas result files")
    p.add_argument("--dns", required=True, help="Atlas DNS result JSON")
    p.add_argument("--tls", required=True, help="Atlas TLS result JSON")
    p.add_argument("--output", required=True, help="campaign record file to write")
    p.add_argument("--campaign-id", default="atlas-import")

    return parser


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    Reference counting still frees every object as before.  A caller that
    had already disabled the collector finds it disabled afterwards.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    handler = {
        "discover": _cmd_discover,
        "detect-isp": _cmd_detect_isp,
        "measure": _cmd_measure,
        "schedule": _cmd_schedule,
        "fill-in": _cmd_fill_in,
        "analyze": _cmd_analyze,
        "report": _cmd_report,
        "import-atlas": _cmd_import_atlas,
    }[args.command]
    if args.command not in GC_PAUSED_COMMANDS:
        return handler(args)
    # Stored records form no cycles and each run is bounded by its input, so
    # the collector would only walk the loaded corpus (about 3 times a run).
    with _gc_paused():
        return handler(args)


def _load_tool_config(path) -> ToolConfig:
    return load_config(path) if path else ToolConfig()


def _load_sites(path) -> list[tuple[str, str]]:
    """Site list JSON (keyed by CDN) to (cdn, hostname) tuples."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    websites = []
    for cdn, sites in doc.items():
        for site in sites:
            websites.append((cdn, site["terminal_cname"]))
    return websites


def _cmd_discover(args) -> int:
    config = _load_tool_config(args.config)
    catalog = CdnCatalog.load(args.catalog or config.catalog_path)
    domains = load_domain_list(args.domains)
    result = scan_domain_list(
        domains,
        catalog,
        config.quotas,
        config.resolvers,
        scan_embedded=not args.no_embedded,
        fanout=config.fanout,
        timeout_ms=config.per_query_timeout_ms,
    )
    doc = {
        cdn: [
            {
                "rank": s.rank,
                "site_domain": s.site_domain,
                "terminal_cname": s.terminal_cname,
                "dual_stack_ok": s.dual_stack_ok,
            }
            for s in sites
        ]
        for cdn, sites in result.items()
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    shortfall = {cdn: config.quotas[cdn] - len(sites) for cdn, sites in result.items()}
    unmet = {cdn: n for cdn, n in shortfall.items() if n > 0}
    if unmet:
        print(f"quota unmet for: {unmet}", file=sys.stderr)
        return 1
    print(f"wrote {sum(len(s) for s in result.values())} sites to {args.output}")
    return 0


def _cmd_detect_isp(args) -> int:
    try:
        resolvers = enumerate_local_resolvers(args.resolv_conf)
    except NoConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timeout_ms = _load_tool_config(args.config).per_query_timeout_ms
    vantage = {}
    for version, override in ((IpVersion.V4, args.vantage_v4), (IpVersion.V6, args.vantage_v6)):
        try:
            vantage[version] = discover_vantage_address(version, override=override, timeout_ms=timeout_ms)
        except Exception as exc:  # noqa: BLE001 - absence handled per resolver
            log.debug("vantage discovery for %s failed: %s", version.value, exc)
    results = []
    for resolver in resolvers:
        vantage_ip = vantage.get(resolver.family)
        if vantage_ip is None:
            print(f"{resolver.address}\t{resolver.family.value}\tindeterminate\t(no vantage address)")
            continue
        decision = classify_resolver(resolver, vantage_ip, timeout_ms=timeout_ms)
        results.append(decision)
        detail = (
            f"egress={decision.egress_address} asn={decision.egress_asn}"
            if resolver.is_private
            else f"asn={decision.resolver_asn}"
        )
        print(
            f"{resolver.address}\t{resolver.family.value}\t{decision.verdict.value}"
            f"\t{detail}\tvantage_asn={decision.vantage_asn}"
        )
    print(f"isp-usable: {'yes' if is_isp_usable(results) else 'no'}")
    if len(results) < len(resolvers) or any(
        r.verdict is Classification.INDETERMINATE for r in results
    ):
        return 1
    return 0


def _preflight(resolvers, *, timeout_ms, resolver_port) -> tuple[list, list]:
    """Drop resolvers that fail on either family; they cannot be compared."""
    kept, dropped = [], []
    for resolver in resolvers:
        try:
            for address in (resolver.v4_address, resolver.v6_address):
                resolve_once(
                    DnsQuestion(
                        qname=PREFLIGHT_PROBE_NAME,
                        qtype=RecordType.A,
                        resolver_address=address,
                        timeout_ms=timeout_ms,
                        resolver_port=resolver_port,
                    )
                )
        except (ResolveError, MalformedMessageError):
            dropped.append(resolver)
        else:
            kept.append(resolver)
    return kept, dropped


def _spec_snapshot(spec: MeasurementSpec) -> dict:
    """The spec as stored with each record: resolvers as [label, v4, v6]."""
    doc = asdict(spec)
    doc["websites"] = [list(w) for w in spec.websites]
    doc["resolvers"] = [[r.label, r.v4_address, r.v6_address] for r in spec.resolvers]
    return doc


def spec_from_snapshot(doc: dict) -> MeasurementSpec:
    return MeasurementSpec(**{**doc, "resolvers": [ResolverEntry(*r) for r in doc["resolvers"]]})


def _run_one_campaign(config: ToolConfig, websites, output_path, *, preflight=True) -> tuple[int, str]:
    if preflight:
        kept, dropped = _preflight(
            config.resolvers, timeout_ms=config.per_query_timeout_ms, resolver_port=config.resolver_port
        )
    else:
        kept, dropped = config.resolvers, []
    for r in dropped:
        print(f"notice: resolver {r.label} ({r.v4_address}) unreachable, dropped", file=sys.stderr)
    if not kept:
        print("error: no reachable resolvers", file=sys.stderr)
        return 1, ""
    spec = config.to_measurement_spec(websites)
    spec.resolvers = kept
    campaign_id = time.strftime("%Y%m%d-%H%M%S")
    sets = run_campaign(spec, vantage_id=config.vantage_id)
    if output_path is None:
        os.makedirs(config.output_dir, exist_ok=True)
        output_path = os.path.join(config.output_dir, f"campaign-{campaign_id}.jsonl")
    snapshot = _spec_snapshot(spec)
    records = [
        storage.CampaignRecord(campaign_id=campaign_id, mset=s, spec_snapshot=snapshot)
        for s in sets
    ]
    storage.write_records(records, output_path)
    usable = sum(1 for s in sets if is_usable(s))
    print(f"wrote {len(sets)} sets ({usable} usable) to {output_path}")
    return (1 if dropped else 0), output_path


def _cmd_measure(args) -> int:
    config = _load_tool_config(args.config)
    websites = _load_sites(args.sites) if args.sites else config.websites
    if not websites:
        print("error: no websites; run `discover` or list them in the config", file=sys.stderr)
        return 2
    status, _ = _run_one_campaign(config, websites, args.output, preflight=not args.skip_preflight)
    return status


def _cmd_schedule(args) -> int:
    config = _load_tool_config(args.config)
    websites = _load_sites(args.sites) if args.sites else config.websites
    if not websites:
        print("error: no websites; run `discover` or list them in the config", file=sys.stderr)
        return 2
    interval = args.interval_s if args.interval_s is not None else config.recurrence_interval_s
    ran = 0
    worst = 0
    while True:
        status, _ = _run_one_campaign(config, websites, None)
        worst = max(worst, status)
        ran += 1
        if args.count and ran >= args.count:
            return worst
        time.sleep(interval)


def _cmd_fill_in(args) -> int:
    # fill-in rewrites whole files, so it must not drop a damaged line
    gathered = _read_inputs([args.input], salvage=False)
    if gathered is None:
        return 2
    records, _ = gathered
    if not records:
        print("error: no records in input", file=sys.stderr)
        return 1
    config = _load_tool_config(args.config)
    snapshot = records[0].spec_snapshot
    spec = spec_from_snapshot(snapshot) if snapshot else config.to_measurement_spec()
    sets = [r.mset for r in records]
    before = sum(1 for s in sets if not is_usable(s))
    updated = fill_in(sets, spec)
    out_records = [
        storage.CampaignRecord(
            campaign_id=records[i].campaign_id,
            mset=updated[i],
            spec_snapshot=records[i].spec_snapshot,
            provenance=records[i].provenance,
        )
        for i in range(len(updated))
    ]
    storage.write_records(out_records, args.output or args.input)
    after = sum(1 for s in updated if not is_usable(s))
    print(f"unusable sets: {before} before, {after} after fill-in")
    return 0 if after == 0 else 1


def _campaign_files(data_dir: str, month: str | None) -> list[str]:
    names = sorted(os.listdir(data_dir))
    if month:
        stamp = month.replace("-", "")
        names = [n for n in names if "".join(c for c in n if c.isdigit()).startswith(stamp)]
    return [os.path.join(data_dir, n) for n in names if n.endswith(".jsonl")]


def _read_inputs(paths, *, salvage: bool) -> tuple[list[storage.CampaignRecord], bool] | None:
    """Every file's records, and whether any file was cut short.

    With salvage, a truncated file contributes the records before its
    damaged line, and one damage line goes to stderr.  A file that cannot
    be used gets an error line on stderr, and the result is None.
    """
    records = []
    damaged = False
    for path in paths:
        try:
            records.extend(storage.read_records(path))
        except storage.TruncatedFileError as exc:
            if not salvage:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return None
            print(
                f"damaged input: {path}: truncated at line {exc.line_number}; "
                f"salvaged {len(exc.records)} record(s)",
                file=sys.stderr,
            )
            records.extend(exc.records)
            damaged = True
        except (storage.SchemaMismatchError, storage.IoFailureError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return None
    return records, damaged


def _gather_records(args) -> tuple[list[storage.CampaignRecord], bool] | None:
    paths = list(args.input)
    if getattr(args, "data_dir", None):
        paths.extend(_campaign_files(args.data_dir, getattr(args, "month", None)))
    return _read_inputs(paths, salvage=True)


def _load_geo(path) -> dict[str, str]:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _filtered_points(records, args, geo):
    points = analytics.build_latency_points([r.mset for r in records], geo=geo)
    if args.cdn:
        points = [p for p in points if p.cdn == args.cdn]
    if args.resolver:
        points = [p for p in points if p.resolver_label == args.resolver]
    if args.ip_version:
        points = [p for p in points if p.ip_version.value == args.ip_version]
    if args.region:
        points = [p for p in points if p.region == args.region]
    return points


def _table_rows(points) -> list[list]:
    """The regional median table, one row per key, in TABLE_COLUMNS order."""
    table = analytics.regional_breakdown(points)
    rows = []
    for key in sorted(table.medians, key=lambda k: (k[0].value, k[1], k[2], k[3], k[4].value)):
        metric, region, cdn, resolver_label, ip_version = key
        rows.append(
            [
                metric.value,
                region,
                cdn,
                resolver_label,
                ip_version.value,
                round(table.medians[key], 3),
                round(table.means[key], 3),
                table.region_vantage_counts[region],
            ]
        )
    return rows


def _cmd_analyze(args) -> int:
    if not args.input and not args.data_dir:
        print("error: provide --input or --data-dir", file=sys.stderr)
        return 2
    gathered = _gather_records(args)
    if gathered is None:
        return 2
    records, damaged = gathered
    geo = _load_geo(args.geo)
    rows = _table_rows(_filtered_points(records, args, geo))
    if args.json:
        print(json.dumps([dict(zip(TABLE_COLUMNS, row)) for row in rows], indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rows)
    return 1 if damaged else 0


def _cmd_report(args) -> int:
    gathered = _gather_records(args)
    if gathered is None:
        return 2
    records, damaged = gathered
    config = _load_tool_config(args.config)
    geo = _load_geo(args.geo)
    sets = [r.mset for r in records]
    out = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
    try:
        if args.kind == "cdf":
            points = analytics.build_latency_points(sets, geo=geo)
            series = analytics.distribution(points)
            writer = csv.writer(out)
            writer.writerow(["metric", "cdn", "resolver", "ip_version", "value_ms", "fraction"])
            for key in sorted(series):
                for value, fraction in series[key]:
                    writer.writerow([*key, round(value, 3), round(fraction, 6)])
        elif args.kind == "table":
            rows = _table_rows(analytics.build_latency_points(sets, geo=geo))
            writer = csv.writer(out)
            writer.writerow(TABLE_COLUMNS[:6])  # through median_ms
            writer.writerows(row[:6] for row in rows)
        elif args.kind == "penalty":
            points = analytics.build_latency_points(sets, geo=geo)
            rows = analytics.ipv6_penalty(points, config.happy_eyeballs_threshold_ms)
            writer = csv.writer(out)
            writer.writerow(
                ["metric", "region", "cdn", "resolver", "v4_median", "v6_median", "delta", "flagged"]
            )
            for row in rows:
                writer.writerow(
                    [
                        row.metric.value,
                        row.region,
                        row.cdn,
                        row.resolver_label,
                        round(row.v4_median, 3),
                        round(row.v6_median, 3),
                        round(row.delta, 3),
                        row.exceeds_threshold,
                    ]
                )
        elif args.kind == "diversity":
            observations = []
            for mset in sets:
                try:
                    edge = select_edge(mset.dns_results, mset.ip_version)
                except NoAddressError:
                    continue
                observations.append(
                    analytics.EdgeObservation(
                        vantage_id=mset.vantage_id,
                        website=mset.website,
                        resolver_label=mset.resolver_label,
                        ip_version=mset.ip_version,
                        address=edge.address,
                        region=analytics.region_of(geo, mset.vantage_id),
                    )
                )
            reports = analytics.address_diversity(observations)
            doc = [
                {
                    "website": r.website,
                    "resolver": r.resolver_label,
                    "ip_version": r.ip_version.value,
                    "unique_addresses": r.unique_addresses,
                    "address_frequency": r.address_frequency,
                    "regional_purity": r.regional_purity,
                    "anycast_like": r.anycast_like,
                }
                for r in reports
            ]
            json.dump(doc, out, indent=2)
            out.write("\n")
        elif args.kind == "hit-rate":
            ttls = load_ttl_table()
            points = analytics.classify_sets(sets, ttls, quirks=config.quirk_map())
            rows = hit_rate_table(points) if points else []
            writer = csv.writer(out)
            writer.writerow(
                [
                    "cdn", "resolver", "ip_version", "count",
                    "hit_rate", "miss_rate", "unknown_rate",
                    "median_hit_ms", "median_miss_ms", "median_unknown_ms",
                ]
            )
            for row in rows:
                writer.writerow(
                    [
                        row.cdn,
                        row.resolver_label,
                        row.ip_version.value,
                        row.count,
                        round(row.hit_rate, 2),
                        round(row.miss_rate, 2),
                        round(row.unknown_rate, 2),
                        "N/A" if row.median_hit_ms is None else round(row.median_hit_ms, 3),
                        "N/A" if row.median_miss_ms is None else round(row.median_miss_ms, 3),
                        "N/A" if row.median_unknown_ms is None else round(row.median_unknown_ms, 3),
                    ]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if damaged else 0


def _cmd_import_atlas(args) -> int:
    try:
        result = atlas.import_atlas(args.dns, args.tls)
    except atlas.AtlasFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snapshot = {}
    records = [
        storage.CampaignRecord(
            campaign_id=args.campaign_id,
            mset=mset,
            spec_snapshot=snapshot,
            provenance=storage.Provenance.ATLAS_IMPORT,
        )
        for mset in result.sets
    ]
    storage.write_records(records, args.output)
    print(
        f"imported {len(result.sets)} sets to {args.output} "
        f"(skipped {result.skipped}, orphans {result.orphans})"
    )
    return 0 if result.sets else 1


if __name__ == "__main__":
    sys.exit(main())
