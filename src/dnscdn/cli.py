"""Command-line interface.

Subcommands cover the full workflow: discover measurement websites,
check which local resolvers are ISP-provided, run or schedule campaigns,
fill in failed sets, and analyze or export stored results.  Exit status
is 0 on success, 1 on partial failure, 2 on usage errors.

analyze and report stream their inputs: each stored set is decoded, folded
into the per-key summaries of the table or report, and dropped, so memory
follows the number of keys, not of records.  The input files are cut into
contiguous runs of about equal bytes, one per CPU the process may use; the
first run is folded in this process and each other one in a forked child,
and the runs are merged in input order, so the output is the same, byte
for byte, as on one CPU.  --geo and --config are checked before the first
set is read, and nothing is printed until the last one is folded in.  An
input that cannot be used (a missing --geo or --config file, a damaged
line before the end of a record file) is one error line on stderr, exit
status 2 and no output; an --output file is then neither created nor
truncated.  A record file cut short in its final line gives up
the records before that line, one damage line on stderr and exit status 1.
Every command checks its other input paths (--config, --data-dir,
--sites, --domains, --catalog) the same way: one that is missing or
cannot be parsed is an error line and exit status 2, before any query is
sent or any file is written.

analyze, report and import-atlas run with the cyclic garbage collector
paused.  Their records form no reference cycles, so reference counting
frees them as before, and each run is bounded by its input, so nothing
piles up; the collector would only be set off every few records by their
many small allocations, and find nothing to free.  The other commands keep
it running; schedule, for one, has no end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import json
import logging
import math
import os
import sys
import threading
import time
from dataclasses import replace

from . import analytics, atlas, storage
from .cache import load_ttl_table
from .campaign import MeasurementSpec, fill_in, is_usable, run_campaign
from .config import ToolConfig, load_config
from .discovery import CatalogError, CdnCatalog, load_domain_list, scan_domain_list
from .resolve import QUERY_FAILURES, ask
from .resolver_id import (
    Classification,
    NoAnswerError,
    NoConfigError,
    ParseFailureError,
    classify_resolver,
    discover_vantage_address,
    enumerate_local_resolvers,
    is_isp_usable,
)
from .wire import IpVersion, RecordType

log = logging.getLogger(__name__)

PREFLIGHT_PROBE_NAME = "example.com"
GC_PAUSED_COMMANDS = frozenset({"analyze", "report", "import-atlas"})
TABLE_COLUMNS = (
    "metric", "region", "cdn", "resolver", "ip_version", "median_ms", "mean_ms", "region_vantages"
)


class UnusableInputError(Exception):
    """An input file the command cannot use; main reports it as one error
    line and exit status 2."""


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
    p.add_argument("--interval-s", type=_seconds, help="override the configured interval")
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


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative number of seconds")
    return value


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
    try:
        if args.command not in GC_PAUSED_COMMANDS:
            return handler(args)
        # Stored records form no cycles and each run is bounded by its input,
        # so the collector would only chase the records' own allocations.
        with _gc_paused():
            return handler(args)
    except UnusableInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_input(path: str, load):
    """load(path), with a file it cannot read or parse (ValueError covers
    JSON, UTF-8 and shape errors) as an UnusableInputError."""
    try:
        return load(path)
    except (OSError, ValueError, csv.Error, CatalogError) as exc:
        raise UnusableInputError(f"{path}: {exc}") from exc


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_tool_config(path) -> ToolConfig:
    return _read_input(path, load_config) if path else ToolConfig()


def _load_sites(path: str) -> list[tuple[str, str]]:
    """Site list JSON from `discover` (keyed by CDN) to (cdn, hostname) tuples."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not all(isinstance(sites, list) for sites in doc.values()):
        raise ValueError("not a JSON object mapping CDN to a list of sites")
    websites = []
    for cdn, sites in doc.items():
        for site in sites:
            hostname = site.get("terminal_cname") if isinstance(site, dict) else None
            if not isinstance(hostname, str):
                raise ValueError(f"a {cdn} site has no terminal_cname string")
            websites.append((cdn, hostname))
    return websites


def _campaign_inputs(args) -> tuple[ToolConfig, MeasurementSpec]:
    """The config, and the spec that measure and schedule run, checked
    before any query is sent: a website the spec rejects is an error in
    the file it came from."""
    config = _load_tool_config(args.config)
    spec = config.spec
    if args.sites:
        spec = _read_input(args.sites, lambda path: replace(config.spec, websites=_load_sites(path)))
    if not spec.websites:
        raise UnusableInputError("no websites; run `discover` or list them in the config")
    return config, spec


def _cmd_discover(args) -> int:
    config = _load_tool_config(args.config)
    catalog_path = args.catalog or config.catalog_path
    catalog = _read_input(catalog_path, CdnCatalog.load) if catalog_path else CdnCatalog.load()
    domains = _read_input(args.domains, load_domain_list)
    result = scan_domain_list(
        domains,
        catalog,
        config.quotas,
        config.spec.resolvers,
        ask=functools.partial(ask, timeout_ms=config.spec.per_query_timeout_ms),
        scan_embedded=not args.no_embedded,
        fanout=config.fanout,
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
    timed_ask = functools.partial(ask, timeout_ms=_load_tool_config(args.config).spec.per_query_timeout_ms)
    vantage = {}
    for version, override in ((IpVersion.V4, args.vantage_v4), (IpVersion.V6, args.vantage_v6)):
        try:
            vantage[version] = discover_vantage_address(version, ask=timed_ask, override=override)
        except (NoAnswerError, ParseFailureError) as exc:  # absence is handled per resolver
            log.debug("vantage discovery for %s failed: %s", version.value, exc)
    results = []
    for resolver in resolvers:
        vantage_ip = vantage.get(resolver.family)
        if vantage_ip is None:
            print(f"{resolver.address}\t{resolver.family.value}\tindeterminate\t(no vantage address)")
            continue
        decision = classify_resolver(resolver, vantage_ip, ask=timed_ask)
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


def _preflight(spec: MeasurementSpec) -> list:
    """The resolvers that answer on both families; each one that fails on
    either cannot be compared, and is dropped with a notice naming the
    address and the failure."""
    probe = functools.partial(
        ask,
        PREFLIGHT_PROBE_NAME,
        RecordType.A,
        timeout_ms=spec.per_query_timeout_ms,
        port=spec.resolver_port,
    )
    kept = []
    for resolver in spec.resolvers:
        try:
            for address in (resolver.v4_address, resolver.v6_address):
                probe(address)
        except QUERY_FAILURES as exc:
            print(
                f"notice: resolver {resolver.label} dropped: {address} failed "
                f"with {type(exc).__name__} ({exc})",
                file=sys.stderr,
            )
        else:
            kept.append(resolver)
    return kept


def _run_one_campaign(config: ToolConfig, spec: MeasurementSpec, output_path, *, preflight=True) -> int:
    kept = _preflight(spec) if preflight else spec.resolvers
    if not kept:
        print("error: no reachable resolvers", file=sys.stderr)
        return 1
    dropped = len(kept) < len(spec.resolvers)
    spec = replace(spec, resolvers=kept)
    campaign_id = time.strftime("%Y%m%d-%H%M%S")
    sets = run_campaign(spec, vantage_id=config.vantage_id)
    if output_path is None:
        os.makedirs(config.output_dir, exist_ok=True)
        output_path = os.path.join(config.output_dir, f"campaign-{campaign_id}.jsonl")
    snapshot = spec.snapshot()
    storage.write_records(
        (storage.CampaignRecord(campaign_id=campaign_id, mset=s, spec_snapshot=snapshot) for s in sets),
        output_path,
    )
    usable = sum(1 for s in sets if is_usable(s))
    print(f"wrote {len(sets)} sets ({usable} usable) to {output_path}")
    return 1 if dropped else 0


def _cmd_measure(args) -> int:
    config, spec = _campaign_inputs(args)
    return _run_one_campaign(config, spec, args.output, preflight=not args.skip_preflight)


def _cmd_schedule(args) -> int:
    config, spec = _campaign_inputs(args)
    interval = args.interval_s if args.interval_s is not None else config.recurrence_interval_s
    ran = 0
    worst = 0
    while True:
        worst = max(worst, _run_one_campaign(config, spec, None))
        ran += 1
        if args.count and ran >= args.count:
            return worst
        time.sleep(interval)


def _cmd_fill_in(args) -> int:
    records = _read_inputs([args.input])
    if not records:
        print("error: no records in input", file=sys.stderr)
        return 1
    config = _load_tool_config(args.config)
    snapshot = records[0].spec_snapshot
    if snapshot:
        spec = _read_input(args.input, lambda _: MeasurementSpec.from_snapshot(snapshot))
    else:
        spec = config.spec
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
    names = sorted(_read_input(data_dir, os.listdir))
    if month:
        stamp = month.replace("-", "")
        names = [n for n in names if "".join(c for c in n if c.isdigit()).startswith(stamp)]
    return [os.path.join(data_dir, n) for n in names if n.endswith(".jsonl")]


def _read_inputs(paths) -> list[storage.CampaignRecord]:
    """Every record of every file.  fill-in rewrites whole files, so a file
    it cannot use in full, a truncated one too, is an UnusableInputError."""
    records = []
    for path in paths:
        try:
            records.extend(storage.read_records(path))
        except (storage.TruncatedFileError, storage.SchemaMismatchError, storage.IoFailureError) as exc:
            raise UnusableInputError(f"{path}: {exc}") from exc
    return records


def _input_paths(args) -> list[str]:
    paths = list(args.input)
    if getattr(args, "data_dir", None):
        paths.extend(_campaign_files(args.data_dir, getattr(args, "month", None)))
    return paths


def _cpu_count() -> int:
    """How many CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _runs(paths: list[str], count: int) -> list[list[str]]:
    """paths cut into at most count contiguous runs of about equal bytes;
    always at least one run."""
    sizes = []
    for path in paths:
        try:
            sizes.append(os.path.getsize(path))
        except OSError:  # the fold reports it when it reaches the file
            sizes.append(0)
    total = sum(sizes) or 1
    runs: list[list[str]] = [[] for _ in range(count)]
    before = 0
    for path, size in zip(paths, sizes):
        runs[min(count - 1, int((before + size / 2) * count / total))].append(path)
        before += size
    return [run for run in runs if run] or [[]]


def _fold_run(paths: list[str], fold):
    """Add the sets of paths to fold, in order.

    Returns (fold, damage lines, None), or (fold, damage lines, error)
    at the first file the reader cannot use; the files after it are not
    read.  A truncated file gives up the sets before its damaged line and
    one damage line.
    """
    damage = []
    for path in paths:
        salvaged = 0
        try:
            for record in storage.iter_records(path):
                salvaged += 1
                fold.add(record.mset)
        except storage.TruncatedFileError as exc:
            damage.append(
                f"damaged input: {path}: truncated at line {exc.line_number}; salvaged {salvaged} record(s)"
            )
        except (storage.SchemaMismatchError, storage.IoFailureError) as exc:
            return fold, damage, f"{path}: {exc}"
    return fold, damage, None


class _Child:
    """One run folded in a forked child, which pickles _fold_run's result
    back through a pipe.

    The child leaves through os._exit on every path, so it never flushes
    the stdio buffers it copied and runs no exit handler.  The parent
    reads the pipe to EOF before it reaps the child (result or close).
    When the pipe or the fork cannot be made, there is no child.
    """

    def __init__(self, paths: list[str], new_fold):
        import pickle

        self.paths = paths
        self.pipe = None
        fds = ()
        try:
            fds = os.pipe()
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            log.warning("cannot fork to fold %s (%s); folding it here", paths[0], exc)
            return
        read_fd, write_fd = fds
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    pickle.dump(_fold_run(paths, new_fold()), pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def result(self):
        """What the child sent, or None if there is no child or it ended
        without sending all of it (with a warning)."""
        import pickle

        if self.pipe is None:
            return None
        data = self.pipe.read()
        status = self.close()
        if status == 0:
            return pickle.loads(data)
        log.warning(
            "the child folding %s (%d file(s)) ended with status %d before sending its fold; folding it here",
            self.paths[0], len(self.paths), os.waitstatus_to_exitcode(status),
        )
        return None

    def close(self) -> int | None:
        """Read the pipe to EOF and reap the child, once: its wait status."""
        if self.pipe is None:
            return None
        pipe, self.pipe = self.pipe, None
        try:
            pipe.read()
        finally:
            pipe.close()
            _, status = os.waitpid(self.pid, 0)
        return status


def _fold_inputs(paths: list[str], new_fold):
    """The sets of every input file folded into one new_fold(), and
    whether a file was damaged.

    The files are cut into contiguous runs of about equal bytes, one per
    CPU the process may use.  Each run after the first is folded in a
    forked child while this process folds the first; the runs are merged
    in input order, so a later set still replaces an earlier one and the
    result is the one a single fold over every file gives.  With one
    file, one CPU, no os.fork or other threads running, every file is
    folded here.  The damage lines of every run are printed in input
    order; the first file the reader cannot use is an UnusableInputError,
    after the damage lines of the files before it.
    """
    count = _cpu_count() if hasattr(os, "fork") and threading.active_count() == 1 else 1
    runs = _runs(paths, count)
    children: list[_Child] = []
    try:
        for run in runs[1:]:
            children.append(_Child(run, new_fold))
        merged, damaged = None, False
        for index, run in enumerate(runs):
            part = children[index - 1].result() if index else None
            fold, damage, unusable = part or _fold_run(run, new_fold())
            for line in damage:
                print(line, file=sys.stderr)
            damaged = damaged or bool(damage)
            if unusable:
                raise UnusableInputError(unusable)
            if merged is None:
                merged = fold
            else:
                merged.merge(fold)
        return merged, damaged
    finally:
        for child in children:
            child.close()


def _load_geo(path) -> dict[str, str | None]:
    """The --geo file: a JSON object mapping vantage id to a region name or null."""
    if not path:
        return {}
    geo = _read_input(path, _load_json)
    if not isinstance(geo, dict):
        raise UnusableInputError(f"{path}: not a JSON object mapping vantage id to region")
    for vantage_id, region in geo.items():
        if region is not None and not isinstance(region, str):
            raise UnusableInputError(f"{path}: region of {vantage_id!r} is {region!r}, not a string or null")
    return geo


def _filtered_points(points, args):
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
    geo = _load_geo(args.geo)
    fold, damaged = _fold_inputs(_input_paths(args), functools.partial(analytics.LatencyFold, geo=geo))
    rows = _table_rows(_filtered_points(fold.result(), args))
    if args.json:
        print(json.dumps([dict(zip(TABLE_COLUMNS, row)) for row in rows], indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rows)
    return 1 if damaged else 0


def _cmd_report(args) -> int:
    config = _load_tool_config(args.config)
    geo = _load_geo(args.geo)
    fold, damaged = _fold_inputs(_input_paths(args), _report_fold(args.kind, config, geo))
    report = io.StringIO()
    try:
        _write_report(report, args.kind, fold, config)
    except analytics.EmptyInputError:
        pass  # no usable set: the kind's header alone
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as out:
            out.write(report.getvalue())
    else:
        sys.stdout.write(report.getvalue())
    return 1 if damaged else 0


def _report_fold(kind: str, config: ToolConfig, geo):
    """A maker of the empty fold that the report of this kind reads."""
    if kind == "diversity":
        return functools.partial(analytics.DiversityFold, geo=geo)
    if kind == "hit-rate":
        quirks = {r.label: r.ttl_quirk for r in config.spec.resolvers}
        return functools.partial(analytics.HitRateFold, load_ttl_table(), quirks=quirks)
    return functools.partial(analytics.LatencyFold, geo=geo)


def _write_report(out, kind: str, fold, config: ToolConfig) -> None:
    """Write the report of this kind, from the fold _report_fold made, to out.

    Every CSV kind writes its header before it takes the fold's result, so
    a kind that raises EmptyInputError over no usable set has written its
    header alone.
    """
    writer = csv.writer(out)
    if kind == "cdf":
        writer.writerow(["metric", "cdn", "resolver", "ip_version", "value_ms", "fraction"])
        series = analytics.distribution(fold.result())
        for key in sorted(series):
            for value, fraction in series[key]:
                writer.writerow([*key, round(value, 3), round(fraction, 6)])
    elif kind == "table":
        writer.writerow(TABLE_COLUMNS[:6])  # through median_ms
        rows = _table_rows(fold.result())
        writer.writerows(row[:6] for row in rows)
    elif kind == "penalty":
        writer.writerow(
            ["metric", "region", "cdn", "resolver", "v4_median", "v6_median", "delta", "flagged"]
        )
        for row in analytics.ipv6_penalty(fold.result(), config.happy_eyeballs_threshold_ms):
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
    elif kind == "diversity":
        reports = fold.result()
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
    elif kind == "hit-rate":
        writer.writerow(
            [
                "cdn", "resolver", "ip_version", "count",
                "hit_rate", "miss_rate", "unknown_rate",
                "median_hit_ms", "median_miss_ms", "median_unknown_ms",
            ]
        )
        for row in fold.result():
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


def _cmd_import_atlas(args) -> int:
    try:
        result = atlas.import_atlas(args.dns, args.tls)
    except atlas.AtlasFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snapshot = {}
    storage.write_records(
        (
            storage.CampaignRecord(
                campaign_id=args.campaign_id,
                mset=mset,
                spec_snapshot=snapshot,
                provenance=storage.Provenance.ATLAS_IMPORT,
            )
            for mset in result.sets
        ),
        args.output,
    )
    print(
        f"imported {len(result.sets)} sets to {args.output} "
        f"(skipped {result.skipped}, orphans {result.orphans})"
    )
    return 0 if result.sets else 1


if __name__ == "__main__":
    sys.exit(main())
