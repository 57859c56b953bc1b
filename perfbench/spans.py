"""Span recorder for the traced run, and the per-layer arithmetic over spans.

Recorder wraps the public entry points of each dnscdn layer from outside
the package.  A name bound elsewhere by `from ... import` is rebound in
every dnscdn module that holds it, and a keyword default that holds an
original (run_campaign's run_fn, run_measurement_set's resolve_fn and
handshake_fn, ...) is swapped for the wrapper; uninstall() puts every
one back.  Each thread keeps its own parent stack, because the campaign
runs its sets on pool threads.  Spans stay in memory until write().
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# (span name, module, attribute).  A target a later version of the
# package no longer has is skipped, and its metrics read 0.
TARGETS = (
    ("wire.encode_query", "dnscdn.wire", "encode_query"),
    ("wire.decode_response", "dnscdn.wire", "decode_response"),
    ("resolve.resolve_once", "dnscdn.resolve", "resolve_once"),
    ("resolve.tcp_retry", "dnscdn.resolve", "_tcp_retry"),
    ("mapping.measure_handshake", "dnscdn.mapping", "measure_handshake"),
    ("campaign.run_campaign", "dnscdn.campaign", "run_campaign"),
    ("campaign.run_measurement_set", "dnscdn.campaign", "run_measurement_set"),
    ("storage.read_records", "dnscdn.storage", "read_records"),
    ("storage.write_records", "dnscdn.storage", "write_records"),
    ("atlas.import_atlas", "dnscdn.atlas", "import_atlas"),
    ("analytics.build_latency_points", "dnscdn.analytics", "build_latency_points"),
    ("analytics.classify_sets", "dnscdn.analytics", "classify_sets"),
    ("analytics.regional_breakdown", "dnscdn.analytics", "regional_breakdown"),
    ("analytics.ipv6_penalty", "dnscdn.analytics", "ipv6_penalty"),
    ("analytics.distribution", "dnscdn.analytics", "distribution"),
    ("analytics.address_diversity", "dnscdn.analytics", "address_diversity"),
    ("cache.classify", "dnscdn.cache", "classify"),
    ("cache.hit_rate_table", "dnscdn.cache", "hit_rate_table"),
    ("cli.main", "dnscdn.cli", "main"),
)


def _annotate(name: str, args: tuple, result) -> dict:
    """Facts about one call that the per-layer metrics need."""
    if name == "resolve.resolve_once":
        return {"latency_ms": result.latency_ms, "sent": result.sent_at_monotonic, "tc": result.truncated_retried}
    if name == "mapping.measure_handshake":
        return {"ok": result.success, "rtt_ms": result.rtt_ms}
    if name == "campaign.run_measurement_set":
        return {"dns": len(result.dns_results), "hs": len(result.handshake_results)}
    if name == "storage.read_records":
        return {"records": len(result), "bytes": os.path.getsize(args[0])}
    if name == "storage.write_records":
        return {"records": len(args[0])}
    if name == "atlas.import_atlas":
        return {"sets": len(result.sets), "skipped": result.skipped, "orphans": result.orphans}
    if name in ("analytics.build_latency_points", "analytics.classify_sets"):
        return {"sets": len(args[0])}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    set_id: int | None
    command_id: int | None
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._command: int | None = None
        self._restore: list = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            if name == "cli.main":
                self._command = span_id
            set_id = span_id if name == "campaign.run_measurement_set" else (parent.set_id if parent else None)
            span = Span(span_id, name, 0.0, 0.0, parent.id if parent else None, self._thread(), set_id, self._command)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                try:
                    span.info = _annotate(name, args, result)
                except (AttributeError, TypeError, OSError):
                    pass
                return result
            finally:
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, module, attr in TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if callable(original):
                wrappers[id(original)] = self.wrap(name, original)
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "dnscdn" or n.startswith("dnscdn."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((setattr, module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                for slot in ("__kwdefaults__", "__defaults__"):
                    defaults = getattr(value, slot, None) if callable(value) else None
                    if not defaults:
                        continue
                    if isinstance(defaults, dict):
                        hits = {k: wrappers[id(v)] for k, v in defaults.items() if id(v) in wrappers}
                        if hits:
                            self._restore.append((setattr, value, slot, dict(defaults)))
                            setattr(value, slot, {**defaults, **hits})
                    elif any(id(v) in wrappers for v in defaults):
                        self._restore.append((setattr, value, slot, defaults))
                        setattr(value, slot, tuple(wrappers.get(id(v), v) for v in defaults))

    def uninstall(self) -> None:
        while self._restore:
            setter, obj, attr, value = self._restore.pop()
            setter(obj, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span), separators=(",", ":")))
                fh.write("\n")


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ------------------------------------------------------------- arithmetic


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_of(spans)
    return {
        s.id: s.duration - covered([(c.start, c.end) for c in kids.get(s.id, [])], s.start, s.end)
        for s in spans
    }


def descendants(span: Span, kids: dict[int, list[Span]]):
    for child in kids.get(span.id, []):
        yield child
        yield from descendants(child, kids)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (nearest rank); 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


FAILURE_KINDS = {
    "QueryTimeoutError": "timeout",
    "NetworkUnreachableError": "unreachable",
    "MalformedMessageError": "malformed",
}


def layer_metrics(spans: list[Span], atlas_results: int = 0) -> dict[str, float]:
    """Per-layer figures from one traced pass; layers the pass never called read 0.

    atlas_results is the number of Atlas results (DNS and TLS) one
    import reads.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    kids = children_of(spans)
    self_t = self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named(name))

    out: dict[str, float] = {}
    decode = named("wire.decode_response")
    out["wire.decode_calls"] = len(decode)
    out["wire.decode_us_p50"] = _median([s.duration * 1e6 for s in decode])
    out["wire.decode_s_total"] = total("wire.decode_response")
    encode = named("wire.encode_query")
    out["wire.encode_calls"] = len(encode)
    out["wire.encode_us_p50"] = _median([s.duration * 1e6 for s in encode])

    resolves = named("resolve.resolve_once")
    out["resolve.calls"] = len(resolves)
    for kind in ("timeout", "unreachable", "malformed", "other"):
        out[f"resolve.failed_{kind}"] = sum(
            1 for s in resolves if s.error and FAILURE_KINDS.get(s.error, "other") == kind
        )
    retries = named("resolve.tcp_retry")
    out["resolve.tcp_retries"] = len(retries)
    out["resolve.tcp_retry_ms_p50"] = _median([s.duration * 1e3 for s in retries])
    clocked, outside = [], []
    for s in resolves:
        if "latency_ms" not in s.info:
            continue
        lo = s.info["sent"]
        hi = lo + s.info["latency_ms"] / 1e3
        decodes = [(d.start, d.end) for d in descendants(s, kids) if d.name == "wire.decode_response"]
        clocked.append(covered(decodes, lo, hi) * 1e6)
        outside.append((s.duration - s.info["latency_ms"] / 1e3) * 1e6)
    out["resolve.clocked_decode_us_p50"] = _median(clocked)
    out["resolve.outside_clock_us_p50"] = _median(outside)

    handshakes = named("mapping.measure_handshake")
    rtts = [s.info["rtt_ms"] for s in handshakes if s.info.get("ok")]
    out["mapping.handshake_calls"] = len(handshakes)
    out["mapping.handshake_failed"] = len(handshakes) - len(rtts)
    out["mapping.handshake_ms_p50"] = _median(rtts)
    out["mapping.handshake_ms_p90"] = percentile(rtts, 90)

    sets = named("campaign.run_measurement_set")
    campaign_wall = total("campaign.run_campaign")
    out["campaign.sets"] = len(sets)
    out["campaign.set_s_p50"] = _median([s.duration for s in sets])
    out["campaign.gap_wait_s_total"] = sum(self_t[s.id] for s in sets)
    out["campaign.sets_in_flight_mean"] = _rate(sum(s.duration for s in sets), campaign_wall)
    usable = sum(1 for s in sets if s.info.get("dns", 0) >= 3 and s.info.get("hs", 0) >= 3)
    out["campaign.usable_ratio"] = _rate(usable, len(sets))

    out["storage.read_s"] = total("storage.read_records")
    out["storage.read_records_per_s"] = _rate(info_sum("storage.read_records", "records"), out["storage.read_s"])
    out["storage.bytes_per_record"] = _rate(
        info_sum("storage.read_records", "bytes"), info_sum("storage.read_records", "records")
    )
    out["storage.write_s"] = total("storage.write_records")
    out["storage.write_records_per_s"] = _rate(info_sum("storage.write_records", "records"), out["storage.write_s"])

    imports = named("atlas.import_atlas")
    out["atlas.results_per_s"] = _rate(atlas_results * len(imports), total("atlas.import_atlas"))
    out["atlas.self_s"] = sum(self_t[s.id] for s in imports)
    out["atlas.skipped"] = imports[-1].info.get("skipped", 0) if imports else 0
    out["atlas.orphans"] = imports[-1].info.get("orphans", 0) if imports else 0

    out["analytics.build_points_sets_per_s"] = _rate(
        info_sum("analytics.build_latency_points", "sets"), total("analytics.build_latency_points")
    )
    out["analytics.classify_sets_per_s"] = _rate(
        info_sum("analytics.classify_sets", "sets"), total("analytics.classify_sets")
    )
    out["analytics.regional_breakdown_ms"] = total("analytics.regional_breakdown") * 1e3
    out["analytics.self_s_total"] = sum(self_t[s.id] for s in spans if s.name.startswith("analytics."))
    out["cache.classify_calls"] = len(named("cache.classify"))
    out["cli.self_s"] = sum(self_t[s.id] for s in named("cli.main"))
    return out
