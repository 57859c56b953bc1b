"""Output checks: every figure the program prints or stores is compared
with what the generators planted.

Each checker returns (attempted, failed, problems, extra).  attempted and
failed count the workload's operations; problems lists every mismatch,
and an empty list means the outputs are correct.  Records are read with
json alone, never through the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import re
import statistics

import dnsbytes

# A per-website DNS median may exceed its scripted hold by this much
# (client overhead, timer slack, a VM wake-up) before it counts as wrong.
HOLD_TOLERANCE_MS = 25.0


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _hold_ms(response: dict) -> float | None:
    for answer in response["answers"]:
        if answer["rtype"] == dnsbytes.TXT:
            text = "".join(answer["rdata"])
            if text.startswith(dnsbytes.HOLD_PREFIX):
                return float(text[len(dnsbytes.HOLD_PREFIX):]) / 1000.0
    return None


def check_campaign(truth: dict, out_path: str, stdout: str) -> tuple[int, int, list[str], dict]:
    """One `measure` pass.  Operations: DNS readings, handshake samples, usable sets.

    extra carries the fidelity data: per-reading overhead (reported
    latency minus measured hold) and measured hold, UDP replies only, and
    the pass's protocol floor in seconds.
    """
    problems: list[str] = []
    sets = [r["set"] for r in _records(out_path)]
    dns_per_set = truth["dns_repeats"] + 1
    hs_per_set = truth["handshake_repeats"]
    attempted = truth["sets"] * (dns_per_set + hs_per_set + 1)
    missing_dns = missing_hs = unusable = 0
    overheads, holds, udp_holds, rtts = [], [], [], []
    if len(sets) != truth["sets"]:
        problems.append(f"campaign stored {len(sets)} sets, expected {truth['sets']}")
    for s in sets:
        missing_dns += max(0, dns_per_set - len(s["dns_results"]))
        missing_hs += max(0, hs_per_set - len(s["handshake_results"]))
        if len(s["dns_results"]) < 3 or len(s["handshake_results"]) < hs_per_set:
            unusable += 1
        for r in s["dns_results"]:
            hold = _hold_ms(r)
            if hold is None:
                problems.append(f"{s['website']}: reply without a hold record")
                continue
            holds.append(hold)
            if not r["truncated_retried"]:
                overheads.append(r["latency_ms"] - hold)
                udp_holds.append(hold)
        rtts.extend(h["rtt_ms"] for h in s["handshake_results"] if h["success"])
        latest = sorted(s["dns_results"], key=lambda r: r["sent_at_monotonic"])[-3:]
        if latest:
            median = statistics.median(r["latency_ms"] for r in latest)
            scripted = truth["holds_ms"].get(s["website"])
            if scripted is None or not scripted <= median <= scripted + HOLD_TOLERANCE_MS:
                problems.append(f"{s['website']} via {s['resolver_label']}: DNS median {median:.3f} ms vs hold {scripted}")
        retried = any(r["truncated_retried"] for r in s["dns_results"])
        if retried != (s["website"] == truth["tc_site"]):
            problems.append(f"{s['website']}: TCP retry flag {retried} does not match the TC script")
    missing_sets = max(0, truth["sets"] - len(sets))
    failed = missing_dns + missing_hs + unusable + missing_sets * (dns_per_set + hs_per_set + 1)
    if failed:
        problems.append(f"{missing_dns} DNS readings, {missing_hs} handshakes missing; {unusable} sets unusable")
    wrote = re.search(r"wrote (\d+) sets \((\d+) usable\)", stdout)
    if not wrote or int(wrote.group(1)) != truth["sets"] or int(wrote.group(2)) != truth["sets"]:
        problems.append(f"measure summary line wrong: {stdout.strip()[-200:]!r}")
    floor_s = None
    if holds and rtts:
        floor_s = truth["gap_s"] + (
            dns_per_set * statistics.median(holds) + hs_per_set * statistics.median(rtts)
        ) / 1e3
    return attempted, failed, problems, {"overheads_ms": overheads, "holds_ms": udp_holds, "floor_s": floor_s}


def _key(cdn: str, resolver: str, family: str) -> str:
    return f"{cdn}|{resolver}|{family}"


def _planted(truth: dict, metric: str, cdn: str, resolver: str, family: str) -> float | None:
    table = truth["dns" if metric == "dns" else "mapping"]
    return table.get(_key(cdn, resolver, family))


def _same(printed: str, value: float | None) -> bool:
    return value is not None and abs(float(printed) - round(value, 3)) < 5e-4


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _expected_keys(truth: dict, *, per_family: bool = True, per_region: bool = True) -> set:
    keys = set()
    for k in truth["dns"]:
        cdn, resolver, family = k.split("|")
        for metric in ("dns", "mapping"):
            for region in sorted(set(truth["regions"].values())) if per_region else [None]:
                keys.add((metric, region, cdn, resolver, family if per_family else None))
    return keys


def _check_table(truth, rows, name, problems, *, with_mean):
    seen = set()
    vantages = {}
    for region in truth["regions"].values():
        vantages[region] = vantages.get(region, 0) + 1
    for row in rows:
        seen.add((row["metric"], row["region"], row["cdn"], row["resolver"], row["ip_version"]))
        value = _planted(truth, row["metric"], row["cdn"], row["resolver"], row["ip_version"])
        if not _same(row["median_ms"], value):
            problems.append(f"{name}: median {row['median_ms']} for {row} vs planted {value}")
        if with_mean and int(row["region_vantages"]) != vantages.get(row["region"]):
            problems.append(f"{name}: {row['region_vantages']} vantages in {row['region']}")
    if seen != _expected_keys(truth):
        problems.append(f"{name}: {len(seen)} rows, expected {len(_expected_keys(truth))}")


def _check_penalty(truth, rows, problems):
    seen = set()
    for row in rows:
        seen.add((row["metric"], row["region"], row["cdn"], row["resolver"], None))
        v4 = _planted(truth, row["metric"], row["cdn"], row["resolver"], "v4")
        v6 = _planted(truth, row["metric"], row["cdn"], row["resolver"], "v6")
        if not (_same(row["v4_median"], v4) and _same(row["v6_median"], v6)):
            problems.append(f"penalty: {row} vs planted v4 {v4} v6 {v6}")
        elif abs(float(row["delta"]) - (v6 - v4)) > 2e-3 or row["flagged"] != str(v6 - v4 >= 250.0):
            problems.append(f"penalty: delta or flag wrong in {row}")
    if seen != _expected_keys(truth, per_family=False):
        problems.append(f"penalty: {len(seen)} rows")


def _check_cdf(truth, rows, problems):
    seen = set()
    for row in rows:
        key = (row["metric"], None, row["cdn"], row["resolver"], row["ip_version"])
        if key in seen:
            problems.append(f"cdf: more than one step for {key}")
        seen.add(key)
        value = _planted(truth, row["metric"], row["cdn"], row["resolver"], row["ip_version"])
        if not _same(row["value_ms"], value) or float(row["fraction"]) != 1.0:
            problems.append(f"cdf: {row} vs planted {value}")
    if seen != _expected_keys(truth, per_region=False):
        problems.append(f"cdf: {len(seen)} series")


def _check_hit_rate(truth, rows, problems):
    seen = set()
    for row in rows:
        key = _key(row["cdn"], row["resolver"], row["ip_version"])
        seen.add(key)
        hit, value = truth["hit"].get(key), truth["dns"].get(key)
        want_hit, want_miss = ("100.0", "0.0") if hit else ("0.0", "100.0")
        median = row["median_hit_ms"] if hit else row["median_miss_ms"]
        if (row["hit_rate"], row["miss_rate"], row["unknown_rate"]) != (want_hit, want_miss, "0.0") or not _same(median, value):
            problems.append(f"hit-rate: {row} vs planted hit={hit} {value}")
    if seen != set(truth["dns"]):
        problems.append(f"hit-rate: {len(seen)} rows, expected {len(truth['dns'])}")


def _check_diversity(truth, doc, problems):
    regions = len(set(truth["regions"].values()))
    expected = truth["diversity_reports"]
    if len(doc) != expected:
        problems.append(f"diversity: {len(doc)} reports, expected {expected}")
    for report in doc:
        if report["unique_addresses"] != regions or set(report["regional_purity"].values()) != {1.0}:
            problems.append(f"diversity: {report['website']} via {report['resolver']}: "
                            f"{report['unique_addresses']} addresses, purity {report['regional_purity']}")
            break


def check_analyze(truth: dict, commands: list[dict]) -> tuple[int, int, list[str], dict]:
    """One pass of analyze plus each report kind.  Operation: one command."""
    problems: list[str] = []
    failed = 0
    for command in commands:
        kind = command["kind"]
        before = len(problems)
        if command["status"] != 0:
            problems.append(f"{kind}: exit status {command['status']}")
        else:
            with open(command["stdout"], encoding="utf-8") as fh:
                text = fh.read()
            try:
                if kind == "analyze":
                    _check_table(truth, _csv_rows(text), kind, problems, with_mean=True)
                elif kind == "table":
                    _check_table(truth, _csv_rows(text), kind, problems, with_mean=False)
                elif kind == "penalty":
                    _check_penalty(truth, _csv_rows(text), problems)
                elif kind == "cdf":
                    _check_cdf(truth, _csv_rows(text), problems)
                elif kind == "hit-rate":
                    _check_hit_rate(truth, _csv_rows(text), problems)
                elif kind == "diversity":
                    _check_diversity(truth, json.loads(text), problems)
            except (KeyError, ValueError, TypeError) as exc:
                problems.append(f"{kind}: unreadable output ({exc!r})")
        failed += len(problems) > before
    return len(commands), failed, problems, {}


def check_atlas(truth: dict, out_path: str, stdout: str, status) -> tuple[int, int, list[str], dict]:
    """One import.  Operation: one Atlas result; planted skips and orphans are not losses."""
    problems: list[str] = []
    if status != 0:
        problems.append(f"import-atlas: exit status {status}")
    summary = re.search(r"imported (\d+) sets .*\(skipped (\d+), orphans (\d+)\)", stdout)
    if not summary:
        problems.append(f"import-atlas summary line missing: {stdout.strip()[-200:]!r}")
    elif tuple(map(int, summary.groups())) != (truth["sets"], truth["skipped"], truth["orphans"]):
        problems.append(f"import-atlas reported {summary.groups()}, planted "
                        f"{(truth['sets'], truth['skipped'], truth['orphans'])}")
    try:
        sets = [r["set"] for r in _records(out_path)]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"import-atlas output unreadable: {exc!r}")
        sets = []
    dns = sum(len(s["dns_results"]) for s in sets)
    hs = sum(len(s["handshake_results"]) for s in sets)
    if len(sets) != truth["sets"]:
        problems.append(f"import-atlas stored {len(sets)} sets, planted {truth['sets']}")
    kept = truth["dns_in_sets"] + truth["handshakes_in_sets"]
    failed = max(0, kept - dns - hs)
    if (dns, hs) != (truth["dns_in_sets"], truth["handshakes_in_sets"]):
        problems.append(f"import-atlas kept {dns} DNS and {hs} TLS results, planted "
                        f"{truth['dns_in_sets']} and {truth['handshakes_in_sets']}")
    return truth["results"], failed, problems, {}
