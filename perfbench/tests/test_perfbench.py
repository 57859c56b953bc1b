"""Tests for the benchmark itself: generators, checkers, responder, spans.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import socket
import struct

import pytest

import checks
import dnsbytes
import gen
import run
import spans


def _digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("writer", ["campaign", "corpus", "atlas"])
def test_generators_are_byte_identical_for_one_seed(tmp_path, writer):
    def write(directory, seed):
        directory.mkdir()
        if writer == "campaign":
            truth = gen.write_campaign(str(directory), seed)
            gen.write_campaign_config(str(directory), truth, 5300, 5301)
        elif writer == "corpus":
            gen.write_corpus(str(directory), seed)
        else:
            gen.write_atlas(str(directory), seed)
        return _digest(str(directory))

    first = write(tmp_path / "a", 7)
    assert first == write(tmp_path / "b", 7)
    assert first != write(tmp_path / "c", 8)


def _cli(argv: list[str]) -> tuple[int, str]:
    from dnscdn import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    truth = gen.write_corpus(str(directory), 3)
    inputs = [arg for path in truth["files"] for arg in ("--input", path)]
    status, text = _cli(["analyze", "--geo", truth["geo"], *inputs])
    assert status == 0
    out = directory / "analyze.csv"
    out.write_text(text)
    return truth, out


def _analyze(truth, path, text=None):
    if text is not None:
        path.write_text(text)
    return checks.check_analyze(truth, [{"kind": "analyze", "status": 0, "stdout": str(path)}])


def test_analyze_check_accepts_the_program_output(corpus):
    truth, path = corpus
    attempted, failed, problems, _ = _analyze(truth, path)
    assert (attempted, failed, problems) == (1, 0, [])


def test_analyze_check_rejects_a_perturbed_median(corpus, tmp_path):
    truth, path = corpus
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[5] = f"{float(fields[5]) + 0.001:.3f}"
    _, failed, problems, _ = _analyze(truth, tmp_path / "bad.csv", "\n".join([header, ",".join(fields), *rest]) + "\n")
    assert failed == 1
    assert any("median" in p for p in problems)


def test_analyze_check_rejects_a_missing_row(corpus, tmp_path):
    truth, path = corpus
    lines = path.read_text().splitlines()
    _, failed, problems, _ = _analyze(truth, tmp_path / "short.csv", "\n".join(lines[:-1]) + "\n")
    assert failed == 1 and any("rows" in p for p in problems)


@pytest.fixture(scope="module")
def atlas_import(tmp_path_factory):
    directory = tmp_path_factory.mktemp("atlas")
    truth = gen.write_atlas(str(directory), 4)
    out = str(directory / "out.jsonl")
    status, stdout = _cli(["import-atlas", "--dns", truth["dns_path"], "--tls", truth["tls_path"], "--output", out])
    return truth, out, stdout, status


def test_atlas_check_accepts_the_program_output(atlas_import):
    truth, out, stdout, status = atlas_import
    attempted, failed, problems, _ = checks.check_atlas(truth, out, stdout, status)
    assert (attempted, failed, problems) == (truth["results"], 0, [])


def test_atlas_check_rejects_a_wrong_orphan_count(atlas_import):
    truth, out, stdout, status = atlas_import
    wrong = stdout.replace(f"orphans {truth['orphans']}", f"orphans {truth['orphans'] + 1}")
    assert wrong != stdout
    _, _, problems, _ = checks.check_atlas(truth, out, wrong, status)
    assert any("orphans" in p or "planted" in p for p in problems)
    _, _, problems, _ = checks.check_atlas({**truth, "orphans": truth["orphans"] - 1}, out, stdout, status)
    assert problems


def _query(sock_type, family, host, port, name, qtype):
    payload = dnsbytes.query(0x1234, name, qtype)
    with socket.socket(family, sock_type) as sock:
        sock.settimeout(5)
        sock.connect((host, port))
        if sock_type == socket.SOCK_DGRAM:
            sock.send(payload)
            return sock.recv(4096)
        sock.sendall(struct.pack("!H", len(payload)) + payload)
        (length,) = struct.unpack("!H", sock.recv(2))
        data = b""
        while len(data) < length:
            data += sock.recv(length - len(data))
        return data


def test_responder_holds_reports_hold_and_truncates_one_site(tmp_path):
    from dnscdn.wire import decode_response

    truth = gen.write_campaign(str(tmp_path), 5)
    held = next(name for name in truth["holds_ms"] if name != truth["tc_site"])
    with open(tmp_path / "responder.log", "w") as log:
        responder = run.Responder(str(tmp_path / "script.json"), log)
        try:
            reply = _query(socket.SOCK_DGRAM, socket.AF_INET6, "::1", responder.dns_port, held, dnsbytes.AAAA)
            message = decode_response(reply)
            assert [r.rtype for r in message.answers] == [dnsbytes.CNAME, dnsbytes.AAAA, dnsbytes.TXT]
            assert message.answers[1].rdata == "::1"
            assert dnsbytes.hold_from_reply(reply) >= truth["holds_ms"][held]

            truncated = decode_response(
                _query(socket.SOCK_DGRAM, socket.AF_INET, "127.0.0.1", responder.dns_port, truth["tc_site"], dnsbytes.A)
            )
            assert truncated.truncated and not truncated.answers
            over_tcp = decode_response(
                _query(socket.SOCK_STREAM, socket.AF_INET, "127.0.0.1", responder.dns_port, truth["tc_site"], dnsbytes.A)
            )
            assert not over_tcp.truncated and over_tcp.answers[1].rdata == "127.0.0.1"
            socket.create_connection(("127.0.0.1", responder.handshake_port), timeout=5).close()
        finally:
            responder.close()
    assert responder.proc.returncode == 0


def _span(span_id, start, end, parent=None, name="x"):
    return spans.Span(span_id, name, start, end, parent, 0, None, None)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 5.0, parent=1),  # overlaps 2: union 1..5
        _span(4, 9.0, 12.0, parent=1),  # runs past its parent: only 9..10 counts
        _span(5, 1.5, 2.0, parent=2),
    ]
    assert spans.self_times(tree) == pytest.approx({1: 5.0, 2: 2.5, 3: 2.0, 4: 3.0, 5: 0.5})


def test_recorder_rebinds_imported_names_and_defaults_then_restores():
    from dnscdn import atlas, campaign, mapping, resolve, wire

    run_set, run_campaign = campaign.run_measurement_set, campaign.run_campaign
    before = (resolve.decode_response, atlas.decode_response, run_set.__kwdefaults__["resolve_fn"],
              run_campaign.__kwdefaults__["run_fn"], mapping.measure_handshake)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert resolve.decode_response is not before[0] and atlas.decode_response is not before[1]
        assert run_set.__kwdefaults__["resolve_fn"] is not before[2]
        assert run_campaign.__kwdefaults__["run_fn"] is campaign.run_measurement_set is not run_set
        wire.decode_response(dnsbytes.reply(1, b"\x00\x00\x01\x00\x01", 0))
    finally:
        recorder.uninstall()
    after = (resolve.decode_response, atlas.decode_response, campaign.run_measurement_set.__kwdefaults__["resolve_fn"],
             campaign.run_campaign.__kwdefaults__["run_fn"], mapping.measure_handshake)
    assert all(a is b for a, b in zip(before, after))
    assert [s.name for s in recorder.spans] == ["wire.decode_response"]


def test_spans_keep_a_parent_stack_per_thread():
    import threading

    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: None)

    def body():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        inner()

    recorder.wrap("outer", body)()
    by_id = {s.id: s for s in recorder.spans}
    parents = {s.thread: (by_id[s.parent].name if s.parent else None) for s in recorder.spans if s.name == "inner"}
    assert sorted(map(str, parents.values())) == ["None", "outer"]


def test_benchmark_json_names_every_metric_the_runner_prints():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["campaign-loopback", "analyze-corpus", "atlas-import"]
