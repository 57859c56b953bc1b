"""dnscdn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, so nothing needs installing.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run whose last pass is traced.  The exit status is
1 when an output check fails and 2 when there is no package to measure.
Working files go under .perfbench-work/ and are removed at the end,
except the span file of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 16
WORKER_TIMEOUT_S = 150
REPORT_KINDS = ("table", "penalty", "cdf", "hit-rate", "diversity")

END_TO_END = {
    "setup_s": "s",
    "floor_ratio": "x",
    "overhead_ratio": "x",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "wire.decode_calls": "count", "wire.decode_us_p50": "us", "wire.decode_s_total": "s",
    "wire.encode_calls": "count", "wire.encode_us_p50": "us",
    "resolve.calls": "count", "resolve.failed_timeout": "count", "resolve.failed_unreachable": "count",
    "resolve.failed_malformed": "count", "resolve.failed_other": "count", "resolve.tcp_retries": "count",
    "resolve.tcp_retry_ms_p50": "ms", "resolve.clocked_decode_us_p50": "us", "resolve.outside_clock_us_p50": "us",
    "resolve.overhead_ms_p90": "ms", "env.loopback_floor_ms_p50": "ms",
    "mapping.handshake_calls": "count", "mapping.handshake_failed": "count", "mapping.handshake_ms_p50": "ms",
    "mapping.handshake_ms_p90": "ms",
    "campaign.sets": "count", "campaign.set_s_p50": "s", "campaign.gap_wait_s_total": "s",
    "campaign.sets_in_flight_mean": "count", "campaign.usable_ratio": "ratio",
    "storage.read_s": "s", "storage.read_records_per_s": "1/s", "storage.bytes_per_record": "B",
    "storage.write_s": "s", "storage.write_records_per_s": "1/s",
    "atlas.results_per_s": "1/s", "atlas.self_s": "s", "atlas.skipped": "count", "atlas.orphans": "count",
    "analytics.build_points_sets_per_s": "1/s", "analytics.classify_sets_per_s": "1/s",
    "analytics.regional_breakdown_ms": "ms", "analytics.self_s_total": "s",
    "cache.classify_calls": "count", "cli.self_s": "s", "trace.overhead_pct": "%", "ops.failed_ratio": "ratio",
    "run.wall_s": "s", "run.items_per_s": "1/s", "run.op_overhead_ms": "ms",
}


def setup_seconds(repeats: int) -> list[float]:
    """Times to import dnscdn.cli cold, in a fresh interpreter each time."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import dnscdn.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-I", "-c", code, SRC], capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Responder:
    """The loopback responder process, stopped and reaped on exit."""

    def __init__(self, script_path: str, log):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "responder.py"), script_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, cwd=HERE,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("loopback responder failed to start")
        ports = json.loads(line)
        self.dns_port, self.handshake_port = ports["dns_port"], ports["handshake_port"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def plan_workload(name: str, seed: int, work: str, stack: list) -> tuple[dict, dict]:
    """Generate inputs; return (worker plan fields, planted truth)."""
    if name == "campaign-loopback":
        truth = gen.write_campaign(work, seed)
        log = open(os.path.join(work, "responder.log"), "w", encoding="utf-8")
        stack.append(log.close)
        responder = Responder(os.path.join(work, "script.json"), log)
        stack.append(responder.close)
        config = gen.write_campaign_config(work, truth, responder.dns_port, responder.handshake_port)
        plan = {
            "commands": [["measure", "--config", config, "--output", os.path.join(work, "campaign-{pass}.jsonl")]],
            "responder_port": responder.dns_port,
            "floor_probe_name": gen.FLOOR_PROBE_NAME,
        }
        truth["items"] = truth["sets"] * (truth["dns_repeats"] + truth["handshake_repeats"])
        return plan, truth
    if name == "analyze-corpus":
        corpus = os.path.join(work, "corpus")
        os.makedirs(corpus)
        truth = gen.write_corpus(corpus, seed)
        inputs = [arg for path in truth["files"] for arg in ("--input", path)]
        commands = [["analyze", "--geo", truth["geo"], *inputs]]
        commands += [["report", "--kind", kind, "--geo", truth["geo"], *inputs] for kind in REPORT_KINDS]
        truth["items"] = truth["records"] * len(commands)
        return {"commands": commands, "floor_kind": "corpus", "floor_paths": truth["files"], "floor_repeats": 2}, truth
    if name == "atlas-import":
        truth = gen.write_atlas(work, seed)
        command = ["import-atlas", "--dns", truth["dns_path"], "--tls", truth["tls_path"],
                   "--output", os.path.join(work, "atlas-{pass}.jsonl")]
        truth["items"] = truth["results"]
        plan = {"commands": [command], "floor_kind": "atlas", "floor_paths": [truth["dns_path"], truth["tls_path"]],
                "floor_repeats": 8}
        return plan, truth
    raise ValueError(name)


def check_pass(name: str, truth: dict, one: dict) -> tuple[int, int, list[str], dict]:
    commands = one["commands"]
    if name == "campaign-loopback":
        command = commands[0]
        if command["status"] != 0:
            attempted = truth["sets"] * (truth["dns_repeats"] + truth["handshake_repeats"] + 2)
            return attempted, attempted, [f"measure: exit status {command['status']}"], {}
        with open(command["stdout"], encoding="utf-8") as fh:
            return checks.check_campaign(truth, command["argv"][-1], fh.read())
    if name == "analyze-corpus":
        kinds = ["analyze", *REPORT_KINDS]
        return checks.check_analyze(truth, [{**c, "kind": k} for c, k in zip(commands, kinds)])
    command = commands[0]
    with open(command["stdout"], encoding="utf-8") as fh:
        return checks.check_atlas(truth, command["argv"][-1], fh.read(), command["status"])


def pass_figures(name: str, truth: dict, result: dict, extras: list[dict]) -> dict:
    """Figures over the untraced passes of a run, absolute and floor-relative."""
    passes = result["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    if name == "campaign-loopback":
        floor_ratio = statistics.median(p["wall_s"] / e["floor_s"] for p, e in zip(passes, extras) if e.get("floor_s"))
        overhead = statistics.median(o for e in extras for o in e["overheads_ms"])
        overhead_ratio = overhead / statistics.median(h for e in extras for h in e["holds_ms"])
    else:
        # The parse floor is too short to track the host's speed pass by
        # pass, so all floor samples of the run are pooled.
        floor = statistics.median(p["floor_s"] for p in passes)
        floor_ratio = wall / floor
        overhead = (wall - floor) / truth["items"] * 1e3
        overhead_ratio = (wall - floor) / floor
    return {
        "wall_s": wall,
        "items_per_s": truth["items"] / wall,
        "op_overhead_ms": overhead,
        "floor_ratio": floor_ratio,
        "overhead_ratio": overhead_ratio,
    }


def per_layer(truth: dict, result: dict, figures: dict, spans_path: str, attempted: int, failed: int,
              overheads: list[float]) -> dict:
    metrics = spans.layer_metrics(spans.read_spans(spans_path), atlas_results=truth.get("results", 0))
    metrics["resolve.overhead_ms_p90"] = spans.percentile(overheads, 90)
    floors = result.get("loopback_floor_ms", [])
    metrics["env.loopback_floor_ms_p50"] = statistics.median(floors) if floors else 0.0
    metrics["trace.overhead_pct"] = (result["traced_pass"]["wall_s"] / figures["wall_s"] - 1.0) * 100.0
    metrics["ops.failed_ratio"] = failed / attempted
    metrics.update({f"run.{k}": figures[k] for k in ("wall_s", "items_per_s", "op_overhead_ms")})
    return metrics


def run(args) -> tuple[dict, list[str]]:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    stack: list = []
    try:
        # Half the set-up samples before the measured passes and half after,
        # so the median spans the run's window of host speed.
        setup = setup_seconds(SETUP_REPEATS // 2)
        fields, truth = plan_workload(args.workload, args.seed, work, stack)
        plan = {
            **fields,
            "src": SRC,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out_dir": work,
            "result_path": os.path.join(work, "result.json"),
            "spans_path": os.path.join(work, "spans.jsonl"),
        }
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        with open(os.path.join(work, "worker.log"), "w", encoding="utf-8") as log:
            worker = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                                      stdout=log, stderr=log, cwd=HERE)
            try:
                worker.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        if worker.returncode != 0 or not os.path.exists(plan["result_path"]):
            with open(os.path.join(work, "worker.log"), encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [f"worker failed:\n{tail}"]
        with open(plan["result_path"], encoding="utf-8") as fh:
            result = json.load(fh)
        setup += setup_seconds(SETUP_REPEATS - len(setup))

        attempted = failed = 0
        problems: list[str] = []
        extras = []
        passes = result["passes"] + ([result["traced_pass"]] if args.trace else [])
        for index, one in enumerate(passes):
            a, f, p, extra = check_pass(args.workload, truth, one)
            attempted, failed = attempted + a, failed + f
            problems += [f"pass {index}: {text}" for text in p]
            if index < len(result["passes"]):
                extras.append(extra)

        try:
            figures = pass_figures(args.workload, truth, result, extras)
        except (KeyError, ValueError, ZeroDivisionError):
            problems.append("no figures: the passes produced no usable measurements")
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, problems
        if args.trace:
            kept = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(plan["spans_path"], kept)
            print(f"spans: {os.path.relpath(kept, ROOT)}")
            overheads = [o for e in extras for o in e.get("overheads_ms", [])]
            values = per_layer(truth, result, figures, kept, attempted, failed, overheads)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            values = {**figures, "setup_s": statistics.median(setup), "peak_rss_mb": result["max_rss_kb"] / 1024.0}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"{args.workload}: {len(result['passes'])} untraced pass(es); "
              + ", ".join(f"{k} {v:.4g}" for k, v in figures.items()))
        return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}, problems
    finally:
        while stack:
            stack.pop()()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["campaign-loopback", "analyze-corpus", "atlas-import"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dnscdn", "cli.py")):
        print(f"error: no dnscdn package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    outcome, problems = run(args)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
