"""Measurement orchestration and data-quality rules.

One measurement set is: a prewarm DNS query, a fixed gap, three
back-to-back DNS queries, then three timed TCP handshakes against the
edge address those answers assigned.  Downstream rules decide which sets
are usable, which (vantage, website) pairs are complete across every
resolver, and which vantages carry enough complete pairs to keep.

The set protocol is written once, as a generator of steps (prewarm,
gap, query, connect).  run_campaign runs all the sets of a campaign on
one single-threaded selectors loop, with one heap of gap ends and
timeouts:

- Each resolver address is a lane with at most one DNS query in flight.
  A set holds its lane for its prewarm, and again for its dns_repeats
  queries, which go back to back.
- Pacing: a lane starts sets as fast as it can serve their queries
  when their gaps end.  When a set's prewarm ends, the set books a
  window on its lane: from the end of its gap, or from the end of the
  windows booked before it if that is later, for dns_repeats times as
  long as the prewarm held the lane.  While the sets not started yet
  will still be sending prewarms when the window comes, the window also
  holds room for one of them, as long as the slowest answer from the
  address so far.  A free lane starts the next set's prewarm once that
  set's gap, answered as fast as any query so far, would end at most
  half the slowest answer before the booked windows do.  So when a gap
  ends the lane is usually about to be free, and when it frees, the
  next set's gap has usually ended.
- The gap bound: a set sends its first query only if that is no later
  after its gap's end than the slowest answer its address has given so
  far, plus 5 ms for the loop's own lag.  Otherwise (a lost query held
  the lane until its timeout, two sets' queries queued up because
  answers came slower than the pacing assumed, or the loop stalled) the
  set starts over with a new prewarm.  After five restarts it gives up
  and keeps only its prewarm, so it is unusable and fill_in retries it.
  Every set that reaches its queries therefore waited at least
  prewarm_gap_s after its prewarm's answer, and at most that plus the
  slowest answer from its address plus 5 ms.
- A DNS reading's clock starts right before its send.  Over UDP it
  stops at the kernel's receive stamp of the reply (Linux), so a late
  wake-up of the loop stays out of the reading; without a usable stamp,
  and for the TCP retry, it stops at the select() return that reported
  the socket readable, before the reply is read or decoded.  A lane is
  freed, and its slowest answer measured, on that select() return, since
  the loop learns of the answer only then.  A handshake is a
  non-blocking connect on the same loop, timed to the return that
  reported it writable; handshakes do not hold a lane.

A campaign therefore takes about one gap plus the busiest lane's query
time, not sets x gap.  fill_in runs its retries on the same loop, so
they too share one gap.  run_measurement_set drives the same steps for
one set with the blocking resolve_once and measure_handshake.  There is
no thread pool; ToolConfig.fanout applies only to `discover`.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import random
import selectors
import socket
import time
import types
from collections import deque
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

from .cache import TtlQuirk
from .mapping import HandshakeAttempt, HandshakeSample, measure_handshake, select_edge
from .resolve import QUERY_FAILURES, DnsExchange, QueryTimeoutError, TimedDnsResponse, resolve_once
from .wire import (
    DEFAULT_TIMEOUT_MS,
    DnsQuestion,
    InvalidNameError,
    IpVersion,
    RecordType,
    validate_name,
)

log = logging.getLogger(__name__)

DEFAULT_PREWARM_GAP_S = 15.0
USABLE_HANDSHAKES = 3  # successful handshakes a usable set holds


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a field declares: a bool is not a
    number, an int is a float, an array is a tuple of its length, and
    unions, lists, tuples and dicts are checked to their parts."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(item, args[0]) for item in value)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(key, args[0]) and _fits(item, args[1]) for key, item in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def checked_fields(cls, doc: dict, *, skip: str) -> dict:
    """The values in doc that name a field of the dataclass cls, other than
    skip, each checked against the type its field declares; ValueError
    names the first that does not fit.  Other keys are left out."""
    hints = get_type_hints(cls)
    values = {f.name: doc[f.name] for f in fields(cls) if f.name in doc and f.name != skip}
    for name, value in values.items():
        hint = hints[name]
        if not _fits(value, hint):
            raise ValueError(f"{name} is {value!r}, not {hint.__name__ if isinstance(hint, type) else hint}")
    return values


@dataclass
class ResolverEntry:
    """One resolver service, reachable over both address families.  A
    stored quirk value ("google-decrement") becomes its TtlQuirk."""

    label: str
    v4_address: str
    v6_address: str
    ttl_quirk: TtlQuirk = TtlQuirk.NONE

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"resolver label {self.label!r} is not a non-empty string")
        self.ttl_quirk = TtlQuirk(self.ttl_quirk)
        if IpVersion.of_address(self.v4_address) is not IpVersion.V4:
            raise ValueError(f"{self.label}: {self.v4_address} is not IPv4")
        if IpVersion.of_address(self.v6_address) is not IpVersion.V6:
            raise ValueError(f"{self.label}: {self.v6_address} is not IPv6")


@dataclass
class MeasurementSpec:
    """What to measure: websites (with their CDN), resolvers, and cadence.
    Every stored record carries its snapshot(), so fill_in can re-run it."""

    websites: list[tuple[str, str]]  # (cdn, hostname)
    resolvers: list[ResolverEntry]
    dns_repeats: int = 3
    prewarm_gap_s: float = DEFAULT_PREWARM_GAP_S
    handshake_repeats: int = 3
    per_query_timeout_ms: float = DEFAULT_TIMEOUT_MS
    resolver_port: int = 53
    handshake_port: int = 443

    def __post_init__(self):
        # The latest-three median must be able to exclude a misordered
        # prewarm, which takes at least two post-prewarm readings.
        if self.dns_repeats < 2:
            raise ValueError("dns_repeats must be at least 2")
        if self.handshake_repeats < USABLE_HANDSHAKES:
            raise ValueError(
                f"handshake_repeats must be at least {USABLE_HANDSHAKES}: a set is usable "
                f"only with {USABLE_HANDSHAKES} successful handshakes"
            )
        if not 0 <= self.prewarm_gap_s < math.inf:
            raise ValueError("prewarm_gap_s must be a non-negative number of seconds")
        if not 0 < self.per_query_timeout_ms < math.inf:
            raise ValueError("per_query_timeout_ms must be a positive number")
        if not (0 < self.resolver_port < 65536 and 0 < self.handshake_port < 65536):
            raise ValueError("resolver_port and handshake_port must be in 1-65535")
        labels = set()
        for resolver in self.resolvers:
            if resolver.label in labels:
                raise ValueError(f"resolver label {resolver.label!r} is given twice")
            labels.add(resolver.label)
        self.websites = [tuple(w) for w in self.websites]
        for _, hostname in self.websites:
            try:
                validate_name(hostname)
            except InvalidNameError as exc:
                raise ValueError(f"website {hostname!r} is not a DNS name: {exc}") from exc

    def snapshot(self) -> dict:
        """The spec as stored with each record: each website as
        [cdn, hostname], and each resolver as [label, v4, v6], with its TTL
        quirk's value as a fourth item when it has one."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["websites"] = [list(w) for w in self.websites]
        doc["resolvers"] = [
            [r.label, r.v4_address, r.v6_address]
            + ([] if r.ttl_quirk is TtlQuirk.NONE else [r.ttl_quirk.value])
            for r in self.resolvers
        ]
        return doc

    @classmethod
    def from_snapshot(cls, doc: dict) -> MeasurementSpec:
        """The spec a stored record was measured with; ValueError when the
        stored spec cannot be rebuilt."""
        try:
            checked_fields(cls, doc, skip="resolvers")
            return cls(**{**doc, "resolvers": [ResolverEntry(*entry) for entry in doc["resolvers"]]})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"stored spec cannot be rebuilt: {exc!r}") from exc

    def resolver_by_label(self, label: str) -> ResolverEntry:
        for entry in self.resolvers:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def website_by_name(self, name: str) -> tuple[str, str]:
        for entry in self.websites:
            if entry[1] == name:
                return entry
        raise KeyError(name)


@dataclass(slots=True)
class MeasurementSet:
    vantage_id: str
    website: str
    cdn: str
    resolver_label: str
    ip_version: IpVersion
    dns_results: list[TimedDnsResponse] = field(default_factory=list)
    handshake_results: list[HandshakeSample] = field(default_factory=list)
    created_at: float = 0.0
    failed_twice: bool = False

    def __post_init__(self):
        stamps = [r.sent_at_monotonic for r in self.dns_results]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("dns_results must carry strictly increasing send timestamps")
        if sum(1 for r in self.dns_results if r.is_prewarm) > 1:
            raise ValueError("at most one dns result may be the prewarm attempt")

    @property
    def key(self) -> tuple[str, str, str, IpVersion]:
        return (self.vantage_id, self.website, self.resolver_label, self.ip_version)


_PREWARM, _QUERY, _GAP, _CONNECT = "prewarm", "query", "gap", "connect"

# Sent in place of the first query's outcome when the gap ran too long:
# the query was not sent, and the set starts over.
_LATE = object()
_MAX_RESTARTS = 5

# How far past one query latency a gap may run: room for the loop's own
# lag in waking for the gap's end and handing the lane over.
_GAP_SLACK_S = 0.005


def _set_steps(spec, website, resolver, ip_version, vantage_id):
    """One measurement set as a generator of steps.

    It yields (_PREWARM, question), (_GAP, seconds), (_QUERY, question)
    and (_CONNECT, address), and is sent each step's outcome: a
    TimedDnsResponse or the exception of a failed query, None after the
    gap, a HandshakeSample after a connect.  It returns the MeasurementSet.

    In place of the first query's outcome a driver may send _LATE: that
    query was not sent, because the gap ran too long.  The set then starts
    over from its prewarm; after _MAX_RESTARTS restarts it gives up and
    returns its prewarm alone, with no handshakes.

    Sub-measurement failures leave gaps rather than aborting: a dropped or
    undecodable reply is simply absent from dns_results, an unreachable
    edge leaves handshake_results empty, and the set is returned either way.
    """
    cdn, hostname = website
    label = resolver.label
    v4 = ip_version is IpVersion.V4
    question = DnsQuestion(
        qname=hostname,
        qtype=RecordType.A if v4 else RecordType.AAAA,
        resolver_address=resolver.v4_address if v4 else resolver.v6_address,
        timeout_ms=spec.per_query_timeout_ms,
        resolver_port=spec.resolver_port,
    )
    created_at = time.time()

    for _ in range(_MAX_RESTARTS + 1):
        dns_results: list[TimedDnsResponse] = []
        prewarm = yield _PREWARM, question
        if isinstance(prewarm, Exception):
            log.debug("prewarm for %s via %s failed: %s", hostname, label, prewarm)
        else:
            prewarm.is_prewarm = True
            dns_results.append(prewarm)
        yield _GAP, spec.prewarm_gap_s
        reply = yield _QUERY, question
        if reply is not _LATE:
            break
        log.debug("gap for %s via %s overran; starting over", hostname, label)

    edge = None
    if reply is _LATE:
        log.info("gap for %s via %s overran %d times; leaving it to fill-in",
                 hostname, label, _MAX_RESTARTS + 1)
    else:
        for attempt in range(spec.dns_repeats):
            if attempt:
                reply = yield _QUERY, question
            if isinstance(reply, Exception):
                log.debug("query %d for %s via %s failed: %s", attempt + 1, hostname, label, reply)
            else:
                dns_results.append(reply)
        edge = select_edge(dns_results, ip_version)

    handshake_results: list[HandshakeSample] = []
    if edge is not None:
        for _ in range(spec.handshake_repeats):
            sample = yield _CONNECT, edge
            # failures are recorded as absent, not as failed samples
            if sample.success:
                handshake_results.append(sample)

    return MeasurementSet(
        vantage_id=vantage_id,
        website=hostname,
        cdn=cdn,
        resolver_label=label,
        ip_version=ip_version,
        dns_results=dns_results,
        handshake_results=handshake_results,
        created_at=created_at,
    )


def run_measurement_set(
    spec: MeasurementSpec,
    website: tuple[str, str],
    resolver: ResolverEntry,
    ip_version: IpVersion,
    *,
    vantage_id: str = "local",
    resolve_fn=resolve_once,
    handshake_fn=measure_handshake,
) -> MeasurementSet:
    """Run one full set for (website, resolver, family), blocking.

    This is a one-job campaign without the loop: the same steps, with
    resolve_fn for each query, a sleep for the gap and handshake_fn for
    each connect.  Failures leave gaps, as in _set_steps.
    """
    steps = _set_steps(spec, website, resolver, ip_version, vantage_id)
    outcome = None
    while True:
        try:
            kind, arg = steps.send(outcome)
        except StopIteration as done:
            return done.value
        if kind in (_PREWARM, _QUERY):
            try:
                outcome = resolve_fn(arg)
            except QUERY_FAILURES as exc:
                outcome = exc
        elif kind == _GAP:
            time.sleep(arg)
            outcome = None
        else:
            outcome = handshake_fn(arg, spec.handshake_port, timeout_ms=spec.per_query_timeout_ms)


def is_usable(mset: MeasurementSet) -> bool:
    """At least three DNS results (the prewarm counts) and at least three
    successful handshakes; stored failed samples do not count."""
    return (
        len(mset.dns_results) >= 3
        and sum(1 for h in mset.handshake_results if h.success) >= USABLE_HANDSHAKES
    )


def completeness_filter(sets: list[MeasurementSet], thresholds: dict[str, int]) -> set[tuple[str, str]]:
    """Retained (vantage, website) pairs under the completeness rules.

    A pair is complete when a usable set exists for every
    (resolver, family) combination seen anywhere in the corpus.  A vantage
    survives only if, for every CDN in thresholds, it holds at least that
    many complete websites; all pairs of a dropped vantage go with it.
    """
    universe = {(s.resolver_label, s.ip_version) for s in sets}
    if not universe:
        return set()

    usable_combos: dict[tuple[str, str], set] = {}
    pair_cdn: dict[tuple[str, str], str] = {}
    for s in sets:
        pair = (s.vantage_id, s.website)
        pair_cdn.setdefault(pair, s.cdn)
        if is_usable(s):
            usable_combos.setdefault(pair, set()).add((s.resolver_label, s.ip_version))

    complete_pairs = {pair for pair, combos in usable_combos.items() if combos == universe}

    per_vantage_cdn_count: dict[str, dict[str, int]] = {}
    for vantage, website in complete_pairs:
        cdn = pair_cdn[(vantage, website)]
        per_vantage_cdn_count.setdefault(vantage, {}).setdefault(cdn, 0)
        per_vantage_cdn_count[vantage][cdn] += 1

    retained_vantages = {
        vantage
        for vantage, counts in per_vantage_cdn_count.items()
        if all(counts.get(cdn, 0) >= minimum for cdn, minimum in thresholds.items())
    }
    return {pair for pair in complete_pairs if pair[0] in retained_vantages}


def fill_in(sets: list[MeasurementSet], spec: MeasurementSpec) -> list[MeasurementSet]:
    """Retry every combination that lacks a usable set.

    All the retries run together on one loop, as a campaign's sets do.  A
    usable retry replaces the original set wholesale; a retry that also
    fails leaves the original in place, marked failed_twice.  Usable sets,
    and sets the spec no longer covers, come back as they went in.
    """
    out = list(sets)
    retried, jobs = [], []
    for index, original in enumerate(sets):
        if is_usable(original):
            continue
        try:
            website = spec.website_by_name(original.website)
            resolver = spec.resolver_by_label(original.resolver_label)
        except KeyError:
            log.warning(
                "cannot fill in %s via %s: not in the measurement spec",
                original.website,
                original.resolver_label,
            )
            continue
        retried.append(index)
        jobs.append((website, resolver, original.ip_version, original.vantage_id))
    for index, retry in zip(retried, _CampaignLoop(spec, socket.socket).run(jobs)):
        if is_usable(retry):
            out[index] = retry
        else:
            sets[index].failed_twice = True
    return out


class _Job:
    """One set on the loop: its steps, its lane and what it waits on."""

    __slots__ = ("index", "steps", "lane", "question", "gap_end", "io", "watched", "timer")

    def __init__(self, index: int, steps, lane: _Lane):
        self.index = index
        self.steps = steps
        self.lane = lane
        self.question: DnsQuestion | None = None  # the query waiting for the lane
        self.gap_end = 0.0
        self.io: DnsExchange | HandshakeAttempt | None = None  # in flight
        self.watched = None  # the socket registered with the selector
        self.timer: int | None = None  # sequence number of the timer that applies


class _Lane:
    """One resolver address: at most one query in flight, and sets started
    as fast as it can serve their queries when their gaps end."""

    def __init__(self, spec: MeasurementSpec):
        self.waiting: deque[_Job] = deque()  # not started yet, in job order
        self.due: deque[_Job] = deque()  # gap over, waiting for the lane
        self.owner: _Job | None = None  # whose query, or run of queries, holds the lane
        self._gap = spec.prewarm_gap_s
        self._repeats = spec.dns_repeats
        self._last_held = 0.0  # how long the latest query held the lane
        self._fastest = math.inf  # the shortest any query held it
        self._slowest = 0.0  # the longest any answered query held it
        self._booked_until = 0.0

    def record(self, seconds: float, *, answered: bool = True) -> None:
        self._last_held = seconds
        self._fastest = min(self._fastest, seconds)
        if answered:
            self._slowest = max(self._slowest, seconds)

    def overran(self, gap_end: float) -> bool:
        """Whether a query sent now would follow gap_end by more than the
        slowest answer from this address so far, plus _GAP_SLACK_S."""
        return time.perf_counter() - gap_end > self._slowest + _GAP_SLACK_S

    def gap_started(self, gap_end: float) -> None:
        """Book the lane for a set whose prewarm (the latest query) just
        ended.  Its window starts at its gap's end, or where the windows
        booked before it end if that is later, and holds its queries at
        the prewarm's hold each.  While the sets not started yet, each
        paced at dns_repeats + 1 such holds, would still be sending
        prewarms when the window comes, it also holds room for one of
        them: as long as the slowest answer so far, since that prewarm is
        for another website."""
        held = self._last_held
        window = self._repeats * held
        if (len(self.waiting) + 1) * (self._repeats + 1) * held >= self._gap:
            window += self._slowest
        self._booked_until = max(self._booked_until, gap_end) + window

    def start_at(self) -> float:
        """When the next set may send its prewarm: if it is answered as
        fast as any query here so far, its gap ends half a slowest answer
        before the booked windows do.  Its first query then waits at most
        that long for them, and the gap bound keeps the other half, with
        _GAP_SLACK_S, for windows that run longer than booked."""
        return self._booked_until - self._gap - self._fastest - self._slowest / 2


class _CampaignLoop:
    """Runs the steps of many sets interleaved on one selectors loop."""

    def __init__(self, spec: MeasurementSpec, socket_factory):
        self._spec = spec
        self._socket_factory = socket_factory
        self._selector = selectors.DefaultSelector()
        self._timers: list[tuple[float, int, _Job]] = []
        self._seq = itertools.count()
        self._results: list[MeasurementSet | None] = []
        self._left = 0
        self.restarts = 0  # times a set started over because its gap overran
        self.gave_up = 0  # sets that overran past _MAX_RESTARTS and gave up

    def run(self, jobs) -> list[MeasurementSet]:
        """Run (website, resolver, family, vantage_id) jobs; sets come back
        in job order."""
        lanes: dict[str, _Lane] = {}
        for index, (website, resolver, version, vantage_id) in enumerate(jobs):
            address = resolver.v4_address if version is IpVersion.V4 else resolver.v6_address
            lane = lanes.get(address)
            if lane is None:
                lane = lanes[address] = _Lane(self._spec)
            steps = _set_steps(self._spec, website, resolver, version, vantage_id)
            lane.waiting.append(_Job(index, steps, lane))
        self._results = [None] * len(jobs)
        self._left = len(jobs)
        try:
            while True:
                self._expire(time.perf_counter())
                wake = self._dispatch(lanes.values())
                if not self._left:
                    break
                if self._timers:
                    wake = min(wake, self._timers[0][0])
                timeout = None if wake == math.inf else max(0.0, wake - time.perf_counter())
                ready = self._selector.select(timeout)
                stamp = time.perf_counter()
                for key, _ in ready:
                    self._on_ready(key.data, stamp)
        finally:
            for key in list(self._selector.get_map().values()):
                key.data.io.close()
            self._selector.close()
        if self.restarts or self.gave_up:
            log.warning("gaps overran: %d restarts, %d sets gave up", self.restarts, self.gave_up)
        return self._results

    def _dispatch(self, lanes) -> float:
        """Hand every idle lane its next query; return the earliest time a
        lane held back by pacing may start its next set."""
        wake = math.inf
        for lane in lanes:
            while lane.owner is None and (lane.due or lane.waiting):
                if lane.due:
                    job = lane.due.popleft()
                    if lane.overran(job.gap_end):
                        self._advance(job, _LATE)
                        if self._results[job.index] is None:
                            self.restarts += 1
                        else:
                            self.gave_up += 1
                    else:
                        lane.owner = job
                        self._query(job)
                elif time.perf_counter() >= (start_at := lane.start_at()):
                    job = lane.owner = lane.waiting.popleft()
                    if job.question is None:  # not started yet
                        self._advance(job, None)
                    else:  # starting over
                        self._query(job)
                else:
                    wake = min(wake, start_at)
                    break
        return wake

    def _advance(self, job: _Job, outcome) -> None:
        try:
            kind, arg = job.steps.send(outcome)
        except StopIteration as done:
            self._results[job.index] = done.value
            self._left -= 1
            self._release(job)
            return
        if kind in (_PREWARM, _QUERY):
            job.question = arg
            if job.lane.owner is job:
                self._query(job)
            elif kind == _PREWARM:
                job.lane.waiting.appendleft(job)
            else:
                job.lane.due.append(job)
            return
        self._release(job)
        if kind == _GAP:
            job.gap_end = time.perf_counter() + arg
            job.lane.gap_started(job.gap_end)
            self._set_timer(job, job.gap_end)
        else:
            self._connect(job, arg)

    def _query(self, job: _Job) -> None:
        exchange = DnsExchange(job.question)
        job.question = None
        try:
            exchange.start()
        except QUERY_FAILURES as exc:
            exchange.close()
            job.lane.record(0.0, answered=False)
            self._advance(job, exc)
            return
        self._begin(job, exchange, exchange.events, exchange.deadline)

    def _connect(self, job: _Job, address: str) -> None:
        attempt = HandshakeAttempt(
            address,
            self._spec.handshake_port,
            self._spec.per_query_timeout_ms,
            socket_factory=self._socket_factory,
        )
        attempt.start()
        if attempt.sample is None:
            self._begin(job, attempt, selectors.EVENT_WRITE, attempt.deadline)
        else:
            attempt.close()
            self._advance(job, attempt.sample)

    def _on_ready(self, job: _Job, stamp: float) -> None:
        io = job.io
        self._unwatch(job)
        if isinstance(io, HandshakeAttempt):
            outcome = io.finish(stamp)
        else:
            try:
                outcome = io.on_ready(stamp)
            except QUERY_FAILURES as exc:
                outcome = exc
            if outcome is None:  # not yet: a stray reply, or on to TCP
                self._watch(job, io.sock, io.events)
                return
            job.lane.record(stamp - io.sent_at)
        self._end(job)
        self._advance(job, outcome)

    def _expire(self, now: float) -> None:
        while self._timers and self._timers[0][0] <= now:
            _, seq, job = heapq.heappop(self._timers)
            if job.timer != seq:
                continue  # set for a step that is over
            io = job.io
            if io is None:
                job.timer = None
                self._advance(job, None)  # the gap is over
                continue
            if isinstance(io, HandshakeAttempt):
                outcome = io.finish(None)
            else:
                job.lane.record(now - io.sent_at, answered=False)
                outcome = QueryTimeoutError("query timed out")
            self._end(job)
            self._advance(job, outcome)

    def _begin(self, job: _Job, io, events: int, deadline: float) -> None:
        job.io = io
        self._watch(job, io.sock, events)
        self._set_timer(job, deadline)

    def _end(self, job: _Job) -> None:
        self._unwatch(job)
        job.io.close()
        job.io = job.timer = None

    def _watch(self, job: _Job, sock, events: int) -> None:
        self._selector.register(sock, events, job)
        job.watched = sock

    def _unwatch(self, job: _Job) -> None:
        if job.watched is not None:
            self._selector.unregister(job.watched)
            job.watched = None

    def _set_timer(self, job: _Job, when: float) -> None:
        job.timer = next(self._seq)
        heapq.heappush(self._timers, (when, job.timer, job))

    @staticmethod
    def _release(job: _Job) -> None:
        if job.lane.owner is job:
            job.lane.owner = None


def run_campaign(
    spec: MeasurementSpec,
    *,
    vantage_id: str = "local",
    rng: random.Random | None = None,
    run_fn=run_measurement_set,
    socket_factory=socket.socket,
) -> list[MeasurementSet]:
    """Measure every (website, resolver, family) combination once.

    Website order is shuffled independently per resolver so that cache
    warming from one resolver's pass does not systematically lead or trail
    another's.  Sets come back in that job order.  They run interleaved on
    one selectors loop, as the module docstring describes; socket_factory
    makes the loop's handshake sockets, as in measure_handshake.

    run_fn is not called.  It stays only because perfbench's span recorder
    reads this keyword default; it goes when the recorder gets spans for
    the loop's steps.
    """
    rng = rng or random.Random()
    jobs = []
    for resolver in spec.resolvers:
        ordered = list(spec.websites)
        rng.shuffle(ordered)
        for website in ordered:
            for version in (IpVersion.V4, IpVersion.V6):
                jobs.append((website, resolver, version, vantage_id))
    return _CampaignLoop(spec, socket_factory).run(jobs)
