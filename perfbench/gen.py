"""Seeded input generators for the three workloads.

Each generator writes files into a directory and returns the planted
truth the checkers compare the program's output against.  The same seed
gives byte-identical files.  Nothing here imports the package under
test: records are written in storage schema v1 by hand and DNS payloads
are built by dnsbytes, so the program only ever sees generated files.
"""

from __future__ import annotations

import base64
import json
import os
import random

import dnsbytes

# campaign-loopback: 13 websites x 2 labels x 2 families = 52 sets, so
# 156 timed DNS readings and 156 handshakes per pass.
CAMPAIGN_WEBSITES = 13
CAMPAIGN_LABELS = ("loop-a", "loop-b")
CAMPAIGN_GAP_S = 0.25
CAMPAIGN_FANOUT = 2
CAMPAIGN_DNS_REPEATS = 3
CAMPAIGN_HANDSHAKE_REPEATS = 3
FLOOR_PROBE_NAME = "floor.probe.test"
FLOOR_PROBE_HOLD_MS = 4.0

# analyze-corpus: the default roster, quotas and TTL table, so default
# completeness thresholds can be met and hit-rate finds its TTLs.
CORPUS_VANTAGES = 20
CORPUS_REGIONS = ("africa", "asia", "europe", "north-america")
DEFAULT_ROSTER = (
    ("google", "8.8.8.8", "2001:4860:4860::8888"),
    ("cloudflare", "1.1.1.1", "2606:4700:4700::1111"),
    ("opendns", "208.67.222.222", "2620:119:35::35"),
    ("quad9", "9.9.9.9", "2620:fe::fe"),
)
DEFAULT_QUOTAS = {"akamai": 50, "fastly": 5, "cloudflare-cdn": 5, "edgecast": 5}
DEFAULT_TTLS = {"akamai": 20, "fastly": 30, "cloudflare-cdn": 300, "edgecast": 3600}
FAMILIES = ("v4", "v6")
UNUSABLE_AKAMAI_PER_VANTAGE = 6
UNUSABLE_OTHER_PER_VANTAGE = 1

# atlas-import: probes x targets x 2 resolvers x rounds sets of 4 DNS
# results, rounds spaced wider than the 900 s pairing window.
ATLAS_PROBES = 30
ATLAS_TARGETS = 20
ATLAS_ROUNDS = 4
ATLAS_RESOLVERS = ("2620:fe::fe", "9.9.9.9")
ATLAS_DNS_PER_SET = 4
ATLAS_TLS_PER_ROUND = 3
ATLAS_ROUND_SPACING_S = 3600
ATLAS_BAD_ABUFS = 40
ATLAS_ORPHANS = 25
ATLAS_SUFFIXES = ("akamaiedge.net", "fastly.net", "cdn.cloudflare.net", "edgecastcdn.net")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _token(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


def _dump(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- campaign


def write_campaign(out_dir: str, seed: int) -> dict:
    """The responder's script.json; returns the planted truth for config and checks."""
    rng = _rng("campaign-loopback", seed)
    cdns = sorted(DEFAULT_QUOTAS)
    websites = [(rng.choice(cdns), f"s{i:02d}-{_token(rng)}.loop.test") for i in range(CAMPAIGN_WEBSITES)]
    # One fixed set of holds, 2-6 ms, dealt out by seed, so the median hold
    # (the denominator of overhead_ratio) is the same for every seed.
    spread = [round(2.0 + 4.0 * i / (len(websites) - 1), 2) for i in range(len(websites))]
    rng.shuffle(spread)
    holds = {name: hold for (_, name), hold in zip(websites, spread)}
    tc_site = websites[rng.randrange(len(websites))][1]
    script = {
        "ttl": 20,
        "sites": {
            **{name: {"hold_ms": hold, "tc": name == tc_site} for name, hold in holds.items()},
            FLOOR_PROBE_NAME: {"hold_ms": FLOOR_PROBE_HOLD_MS},
        },
    }
    _dump(os.path.join(out_dir, "script.json"), script)
    return {
        "websites": [list(w) for w in websites],
        "holds_ms": holds,
        "tc_site": tc_site,
        "sets": len(websites) * len(CAMPAIGN_LABELS) * len(FAMILIES),
        "dns_repeats": CAMPAIGN_DNS_REPEATS,
        "handshake_repeats": CAMPAIGN_HANDSHAKE_REPEATS,
        "gap_s": CAMPAIGN_GAP_S,
    }


def write_campaign_config(out_dir: str, truth: dict, dns_port: int, handshake_port: int) -> str:
    """config.json for `measure`, pointed at the responder's ports.

    It carries `fanout`, which load_config ignores once the key is gone.
    """
    config = {
        "resolvers": [
            {"label": label, "v4_address": "127.0.0.1", "v6_address": "::1", "ttl_quirk": "none"}
            for label in CAMPAIGN_LABELS
        ],
        "websites": truth["websites"],
        "dns_repeats": truth["dns_repeats"],
        "handshake_repeats": truth["handshake_repeats"],
        "prewarm_gap_s": truth["gap_s"],
        "per_query_timeout_ms": 2000.0,
        "resolver_port": dns_port,
        "handshake_port": handshake_port,
        "fanout": CAMPAIGN_FANOUT,
        "vantage_id": "loopback",
    }
    path = os.path.join(out_dir, "config.json")
    _dump(path, config)
    return path


# ------------------------------------------------------------------ corpus


def _edge(family: str, site_index: int, region_index: int) -> str:
    if family == "v4":
        return f"10.{site_index}.{region_index}.1"
    return f"2001:db8:{site_index:x}::{region_index + 1}"


def _spread(rng: random.Random, value: float) -> list[float]:
    """Three values whose median is exactly value, in random order."""
    values = [value - round(rng.uniform(0.1, 2.0), 3), value, value + round(rng.uniform(0.1, 9.0), 3)]
    rng.shuffle(values)
    return values


def _response(question: dict, website: str, edge: str, ttl: int, latency: float, mono: float, wall: float, prewarm: bool) -> dict:
    return {
        "question": question,
        "rcode": 0,
        "answers": [
            {"name": website, "rtype": dnsbytes.CNAME, "ttl": ttl, "rdata": "edge." + website},
            {"name": "edge." + website, "rtype": question["qtype"], "ttl": ttl, "rdata": edge},
        ],
        "latency_ms": latency,
        "sent_at_monotonic": mono,
        "sent_at_wall": wall,
        "truncated_retried": False,
        "is_prewarm": prewarm,
    }


def _corpus_set(rng, vantage, region_index, website, site_index, cdn, resolver, family, truth, clock, flaw):
    label, v4_addr, v6_addr = resolver
    key = f"{cdn}|{label}|{family}"
    dns_value, map_value, hit = truth["dns"][key], truth["mapping"][key], truth["hit"][key]
    auth = DEFAULT_TTLS[cdn]
    question = {
        "qname": website,
        "qtype": dnsbytes.A if family == "v4" else dnsbytes.AAAA,
        "resolver_address": v4_addr if family == "v4" else v6_addr,
        "transport_version": family,
        "timeout_ms": 5000.0,
        "resolver_port": 53,
    }
    edge = _edge(family, site_index, region_index)
    wall, mono = clock
    dns_results = [
        _response(question, website, edge, rng.randrange(auth + 1), dns_value + round(rng.uniform(10, 60), 3), mono, wall, True)
    ]
    for i, latency in enumerate(_spread(rng, dns_value)):
        ttl = (auth if hit else rng.randrange(auth)) if latency == dns_value else rng.randrange(auth + 1)
        step = 15.0 + 0.05 * (i + 1)
        dns_results.append(_response(question, website, edge, ttl, latency, mono + step, wall + step, False))
    handshakes = [
        {"address": edge, "port": 443, "rtt_ms": rtt, "success": True, "error_kind": None}
        for rtt in _spread(rng, map_value)
    ]
    if flaw == "dns":
        dns_results = dns_results[:2]
    elif flaw == "handshake":
        handshakes = handshakes[: rng.randrange(1, 3)]
    return {
        "vantage_id": vantage,
        "website": website,
        "cdn": cdn,
        "resolver_label": label,
        "ip_version": family,
        "dns_results": dns_results,
        "handshake_results": handshakes,
        "created_at": wall,
        "failed_twice": False,
    }


def write_corpus(out_dir: str, seed: int) -> dict:
    """One campaign file per vantage, plus geo.json; returns the planted truth."""
    rng = _rng("analyze-corpus", seed)
    websites = [
        (cdn, f"w{i:02d}-{_token(rng)}.{cdn}.example")
        for cdn, quota in DEFAULT_QUOTAS.items()
        for i in range(quota)
    ]
    keys = [f"{cdn}|{label}|{family}" for cdn in DEFAULT_QUOTAS for label, _, _ in DEFAULT_ROSTER for family in FAMILIES]
    truth = {
        "dns": {k: round(rng.uniform(5.0, 80.0), 3) for k in keys},
        "mapping": {k: round(rng.uniform(3.0, 60.0), 3) for k in keys},
        "hit": {k: rng.random() < 0.5 for k in keys},
        "regions": {},
        "files": [],
        "records": 0,
    }
    spec = {
        "websites": [list(w) for w in websites],
        "resolvers": [list(r) for r in DEFAULT_ROSTER],
        "dns_repeats": 3,
        "prewarm_gap_s": 15.0,
        "handshake_repeats": 3,
        "per_query_timeout_ms": 5000.0,
        "resolver_port": 53,
        "handshake_port": 443,
    }
    combos = [(resolver, family) for resolver in DEFAULT_ROSTER for family in FAMILIES]
    akamai = [w for w in websites if w[0] == "akamai"]
    others = [w for w in websites if w[0] != "akamai"]
    for v in range(CORPUS_VANTAGES):
        vantage = f"vp{v:02d}-{_token(rng)}"
        region_index = v % len(CORPUS_REGIONS)
        truth["regions"][vantage] = CORPUS_REGIONS[region_index]
        # A few unusable sets on distinct websites, so every CDN still
        # meets its default completeness threshold at every vantage.
        flawed_sites = rng.sample(akamai, UNUSABLE_AKAMAI_PER_VANTAGE) + rng.sample(others, UNUSABLE_OTHER_PER_VANTAGE)
        flaws = {}
        for n, site in enumerate(flawed_sites):
            resolver, family = rng.choice(combos)
            flaws[(site[1], resolver[0], family)] = "dns" if n % 2 else "handshake"
        wall = 1_790_000_000.0 + v * 86400.0
        campaign_id = f"vp{v:02d}-20260901"
        path = os.path.join(out_dir, f"campaign-{vantage}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            mono = 1000.0
            for resolver in DEFAULT_ROSTER:
                order = list(range(len(websites)))
                rng.shuffle(order)
                for site_index in order:
                    cdn, website = websites[site_index]
                    for family in FAMILIES:
                        flaw = flaws.get((website, resolver[0], family))
                        mset = _corpus_set(rng, vantage, region_index, website, site_index, cdn, resolver, family,
                                           truth, (wall, mono), flaw)
                        mono += 20.0
                        wall += 20.0
                        record = {"schema_version": 1, "campaign_id": campaign_id, "provenance": "native", "spec": spec, "set": mset}
                        fh.write(json.dumps(record, separators=(",", ":")))
                        fh.write("\n")
                        truth["records"] += 1
        truth["files"].append(path)
    _dump(os.path.join(out_dir, "geo.json"), truth["regions"])
    truth["geo"] = os.path.join(out_dir, "geo.json")
    truth["diversity_reports"] = len(websites) * len(DEFAULT_ROSTER) * len(FAMILIES)
    return truth


# ------------------------------------------------------------------- atlas


def _abuf(rng: random.Random, target: str, qtype: int, addresses: list[str]) -> bytes:
    body, ancount = dnsbytes.answer_body(dnsbytes.question(target, qtype), qtype, f"e{rng.randrange(1000)}.{target}", addresses, rng.randrange(1, 300))
    return dnsbytes.reply(rng.randrange(0x10000), body, ancount)


def _addresses(rng: random.Random, qtype: int) -> list[str]:
    n = rng.randint(1, 4)
    if qtype == dnsbytes.A:
        return [f"192.0.2.{rng.randrange(1, 255)}" for _ in range(n)]
    return [f"2001:db8::{rng.randrange(1, 0xFFFF):x}" for _ in range(n)]


def write_atlas(out_dir: str, seed: int) -> dict:
    """dns.json and tls.json in the Atlas result layout; returns planted counts."""
    rng = _rng("atlas-import", seed)
    targets = [
        (f"t{i:02d}-{_token(rng)}.{ATLAS_SUFFIXES[i % len(ATLAS_SUFFIXES)]}", dnsbytes.A if i % 2 == 0 else dnsbytes.AAAA)
        for i in range(ATLAS_TARGETS)
    ]
    probes = sorted(rng.sample(range(1000, 60000), ATLAS_PROBES))
    nested = set(rng.sample(probes, ATLAS_PROBES // 3))
    dns_entries, tls_entries = [], []
    dns_payloads = 0
    start = 1_790_000_000
    for r in range(ATLAS_ROUNDS):
        for p_index, prb in enumerate(probes):
            base = start + r * ATLAS_ROUND_SPACING_S + p_index * 7
            for target, qtype in targets:
                payloads = []
                for resolver in ATLAS_RESOLVERS:
                    for offset in (0, 15, 16, 17)[:ATLAS_DNS_PER_SET]:
                        abuf = _abuf(rng, target, qtype, _addresses(rng, qtype))
                        payloads.append({
                            "dst_addr": resolver,
                            "timestamp": base + offset,
                            "result": {"rt": round(rng.uniform(2.0, 90.0), 3), "abuf": base64.b64encode(abuf).decode()},
                        })
                dns_payloads += len(payloads)
                if prb in nested:
                    dns_entries.append({"prb_id": prb, "timestamp": base, "type": "dns", "resultset": payloads})
                else:
                    dns_entries.extend({"prb_id": prb, "type": "dns", **payload} for payload in payloads)
                edge = _addresses(rng, qtype)[0]
                for k in range(ATLAS_TLS_PER_ROUND):
                    timing = round(rng.uniform(5.0, 80.0), 3)
                    tls_entries.append({
                        "prb_id": prb, "type": "sslcert", "timestamp": base + 18 + k, "dst_name": target,
                        "dst_addr": edge, "dst_port": 443, ("ttc" if rng.random() < 0.1 else "rt"): timing,
                    })
    last = start + (ATLAS_ROUNDS - 1) * ATLAS_ROUND_SPACING_S
    for k in range(ATLAS_BAD_ABUFS):
        target, qtype = rng.choice(targets)
        cut = _abuf(rng, target, qtype, _addresses(rng, qtype))[:-3]
        dns_entries.append({
            "prb_id": rng.choice(probes), "type": "dns", "dst_addr": rng.choice(ATLAS_RESOLVERS),
            "timestamp": last + 100 + k, "result": {"rt": 12.5, "abuf": base64.b64encode(cut).decode()},
        })
    for k in range(ATLAS_ORPHANS):
        target, qtype = rng.choice(targets)
        tls_entries.append({
            "prb_id": rng.choice(probes), "type": "sslcert", "timestamp": last + 20_000 + k, "dst_name": target,
            "dst_addr": _addresses(rng, qtype)[0], "dst_port": 443, "rt": 33.3,
        })
    dns_path, tls_path = os.path.join(out_dir, "dns.json"), os.path.join(out_dir, "tls.json")
    for path, doc in ((dns_path, dns_entries), (tls_path, tls_entries)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    sets = ATLAS_PROBES * ATLAS_TARGETS * len(ATLAS_RESOLVERS) * ATLAS_ROUNDS
    return {
        "dns_path": dns_path,
        "tls_path": tls_path,
        "sets": sets,
        "dns_in_sets": sets * ATLAS_DNS_PER_SET,
        "handshakes_in_sets": ATLAS_PROBES * ATLAS_TARGETS * ATLAS_ROUNDS * ATLAS_TLS_PER_ROUND,
        "skipped": ATLAS_BAD_ABUFS,
        "orphans": ATLAS_ORPHANS,
        "results": dns_payloads + ATLAS_BAD_ABUFS + len(tls_entries),
    }
