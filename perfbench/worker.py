"""Measured process: runs one workload's CLI commands through dnscdn.cli.main.

    python3 perfbench/worker.py PLAN.json

PLAN.json (written by run.py) names the package source directory, the
commands of one pass, the time budget, whether to trace, and where to
write results.  The worker repeats passes until the budget would be
exceeded (at least one).  A traced plan spends half its budget on
untraced passes, then runs exactly one traced pass, so the per-layer
counts are per pass and trace.overhead_pct compares like with like.

Floors are measured here too, with no dnscdn code: the parse floor of
the stored inputs before each command (analyze-corpus, atlas-import)
and, in a traced run, the bare-socket round trip to the loopback
responder (campaign-loopback).
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import os
import resource
import socket
import sys
import time
import traceback

import dnsbytes
import spans

LOOPBACK_PROBES = 200


def corpus_parse_floor(paths: list[str]) -> float:
    """Seconds to read and json-decode every record of the corpus once."""
    start = time.perf_counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh.read().split("\n"):
                if line:
                    json.loads(line)
    return time.perf_counter() - start


def atlas_parse_floor(paths: list[str]) -> float:
    """Seconds to json-decode the Atlas files and base64-decode every abuf."""
    start = time.perf_counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for entry in json.load(fh):
                for payload in entry.get("resultset", [entry]):
                    if "result" in payload:
                        base64.b64decode(payload["result"]["abuf"])
    return time.perf_counter() - start


def loopback_floor_ms(port: int, name: str) -> list[float]:
    """Bare UDP round trips to the responder minus its measured hold, in ms."""
    floors = []
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(2.0)
        sock.connect(("127.0.0.1", port))
        for txid in range(LOOPBACK_PROBES):
            payload = dnsbytes.query(txid, name, dnsbytes.A)
            start = time.perf_counter()
            sock.send(payload)
            data = sock.recv(4096)
            rtt_ms = (time.perf_counter() - start) * 1e3
            floors.append(rtt_ms - dnsbytes.hold_from_reply(data))
    return floors


FLOORS = {"corpus": corpus_parse_floor, "atlas": atlas_parse_floor}


def run_pass(cli, plan: dict, index: int) -> dict:
    """One pass of the plan's commands.

    With a floor kind, the parse floor is measured right before each
    command, so a drift in the host's speed shows in both.  Floor time is
    not part of the pass's wall time.
    """
    commands = []
    floor_fn = FLOORS.get(plan.get("floor_kind"))
    for k, template in enumerate(plan["commands"]):
        floor_s = 0.0
        if floor_fn is not None:
            repeats = plan["floor_repeats"]
            floor_s = sum(floor_fn(plan["floor_paths"]) for _ in range(repeats)) / repeats
        argv = [arg.replace("{pass}", str(index)) for arg in template]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                status = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed command, reported below
            traceback.print_exc()
            status = "exception"
        wall = time.perf_counter() - t0
        out_path = os.path.join(plan["out_dir"], f"stdout-{index}-{k}.txt")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(stdout.getvalue())
        commands.append({"argv": argv, "status": status, "wall_s": wall, "floor_s": floor_s, "stdout": out_path})
    return {
        "wall_s": sum(c["wall_s"] for c in commands),
        "floor_s": sum(c["floor_s"] for c in commands),
        "commands": commands,
    }


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import dnscdn.cli as cli

    result: dict = {"passes": []}
    if plan["trace"] and plan.get("responder_port"):
        result["loopback_floor_ms"] = loopback_floor_ms(plan["responder_port"], plan["floor_probe_name"])

    budget = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    start = time.perf_counter()
    while True:
        one = run_pass(cli, plan, len(result["passes"]))
        result["passes"].append(one)
        if time.perf_counter() - start + one["wall_s"] + one["floor_s"] > budget:
            break

    if plan["trace"]:
        recorder = spans.Recorder()
        recorder.install()
        try:
            result["traced_pass"] = run_pass(cli, plan, len(result["passes"]))
        finally:
            recorder.uninstall()
        recorder.write(plan["spans_path"])

    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
