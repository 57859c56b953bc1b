"""analyze and report fold their input files in runs, one run per CPU the
process may use; what they print must not depend on how many runs there
are.

The number of runs is forced through cli._cpu_count: 1 folds every file
in this process, more cuts the files into that many runs.
"""

import os
import random
import subprocess
import sys
import threading

import pytest

import dnscdn
from factories import make_set
from dnscdn import cli, storage
from dnscdn.storage import CampaignRecord, write_records
from dnscdn.wire import IpVersion

READ_COMMANDS = {
    "analyze": ["analyze"],
    "cdf": ["report", "--kind", "cdf"],
    "table": ["report", "--kind", "table"],
    "penalty": ["report", "--kind", "penalty"],
    "diversity": ["report", "--kind", "diversity"],
    "hit-rate": ["report", "--kind", "hit-rate"],
}
# (cdn, website); "nocdn" has no entry in the packaged TTL table, so the
# hit-rate report skips its sets with a warning.
SITES = [("akamai", f"www{i}.example.com") for i in range(4)] + [
    ("fastly", "cdn.example.net"),
    ("nocdn", "bare.example.org"),
]
FILE_SETS = (14, 3, 22, 8, 17, 5)  # unequal sizes; every file repeats keys of the ones before
EXIT_STATUS = {"sound": 0, "truncated": 1, "unusable": 2}


def random_set(rng: random.Random):
    cdn, website = rng.choice(SITES)
    family = rng.choice((IpVersion.V4, IpVersion.V6))
    base = rng.uniform(5.0, 90.0)
    dns = ((base * 3, 1.0, True),) + tuple((base + rng.uniform(0.0, 9.0), 16.0 + k, False) for k in range(3))
    shakes = 3 if rng.random() < 0.9 else 1  # one successful handshake leaves the set unusable
    prefix = "192.0.2." if family is IpVersion.V4 else "2001:db8::"
    return make_set(
        vantage_id=f"p{rng.randrange(4)}",
        website=website,
        cdn=cdn,
        resolver_label=rng.choice(("google", "quad9")),
        ip_version=family,
        dns=dns,
        handshakes=tuple(rng.uniform(3.0, 60.0) for _ in range(shakes)),
        ttl=rng.choice((5, 20, 30, 60)),
        address=f"{prefix}{rng.randrange(1, 4)}",
    )


def corpus(tmp_path, case):
    """The input paths of a case, and a geo file.

    "truncated" cuts the third file inside its final line; "unusable"
    also puts a damaged interior line into the fifth file.
    """
    rng = random.Random(7)
    paths = []
    for index, count in enumerate(FILE_SETS):
        path = tmp_path / f"campaign-{index}.jsonl"
        write_records([CampaignRecord("c1", random_set(rng)) for _ in range(count)], str(path))
        lines = path.read_text().splitlines()
        if index == 2 and case in ("truncated", "unusable"):
            path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:150])
        if index == 4 and case == "unusable":
            path.write_text("\n".join([lines[0], "{garbage", *lines[1:]]) + "\n")
        paths.append(str(path))
    geo = tmp_path / "geo.json"
    geo.write_text('{"p0": "asia", "p1": "europe", "p2": null}')
    return paths, str(geo)


def inputs_argv(command, paths, geo):
    return [*command, "--geo", geo, *[arg for path in paths for arg in ("--input", path)]]


def run(monkeypatch, capsys, caplog, argv, cpus):
    """cli.main(argv) folded in at most cpus runs: (status, stdout, stderr, log)."""
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    caplog.clear()
    status = cli.main(argv)
    out, err = capsys.readouterr()
    return status, out, err, [(r.levelname, r.name, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("runs", [2, 4])
@pytest.mark.parametrize("case", EXIT_STATUS)
@pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS)
def test_several_runs_print_what_one_run_prints(tmp_path, monkeypatch, capsys, caplog, command, case, runs):
    paths, geo = corpus(tmp_path, case)
    argv = inputs_argv(command, paths, geo)
    one = run(monkeypatch, capsys, caplog, argv, 1)
    assert run(monkeypatch, capsys, caplog, argv, runs) == one
    status, out, err, log = one
    assert status == EXIT_STATUS[case]
    if command[-1] == "hit-rate" and case != "unusable":
        assert ("WARNING", "dnscdn.analytics", "no authoritative TTL for bare.example.org (nocdn), skipped") in log
    if case == "sound":
        assert out and err == ""
    else:
        lines = err.splitlines()
        assert lines[0] == f"damaged input: {paths[2]}: truncated at line {FILE_SETS[2]}; " \
            f"salvaged {FILE_SETS[2] - 1} record(s)"
    if case == "unusable":
        assert out == ""
        assert lines[1:] == [
            f"error: {paths[4]}: line 2: unparseable record: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked through os.fork, as they come."""
    assert threading.active_count() == 1, f"analyze and report do not fork beside {threading.enumerate()}"
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_runs_are_contiguous_and_balanced_by_bytes(tmp_path):
    sizes = (10, 10, 40, 10, 10, 20)
    paths = []
    for index, size in enumerate(sizes):
        paths.append(str(tmp_path / f"f{index}"))
        with open(paths[-1], "wb") as fh:
            fh.write(b"x" * size)
    assert cli._runs(paths, 1) == [paths]
    assert cli._runs(paths, 2) == [paths[:3], paths[3:]]
    assert cli._runs(paths, 4) == [paths[:2], paths[2:3], paths[3:4], paths[4:]]
    assert cli._runs(paths[:1], 4) == [paths[:1]]
    assert cli._runs([], 4) == [[]]


def test_a_child_that_dies_before_sending_has_its_run_folded_here(tmp_path, monkeypatch, capsys, caplog, forks):
    paths, geo = corpus(tmp_path, "sound")
    argv = inputs_argv(["report", "--kind", "hit-rate"], paths, geo)
    status, out, err, log = run(monkeypatch, capsys, caplog, argv, 1)
    parent, iter_records = os.getpid(), storage.iter_records

    def dying(path):
        if os.getpid() != parent:
            os._exit(1)
        return iter_records(path)

    monkeypatch.setattr(storage, "iter_records", dying)
    again = run(monkeypatch, capsys, caplog, argv, 2)
    assert again[:3] == (status, out, err)
    [warning] = [entry for entry in again[3] if entry[1] == "dnscdn.cli"]
    assert warning[0] == "WARNING" and "ended with status 1 before sending its fold" in warning[2]
    assert [entry for entry in again[3] if entry[1] != "dnscdn.cli"] == log
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_run_that_cannot_be_forked_is_folded_here(tmp_path, monkeypatch, capsys, caplog):
    paths, geo = corpus(tmp_path, "sound")
    argv = inputs_argv(["analyze"], paths, geo)
    expected = run(monkeypatch, capsys, caplog, argv, 1)

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    status, out, err, log = run(monkeypatch, capsys, caplog, argv, 2)
    assert (status, out, err) == expected[:3]
    assert log == [("WARNING", "dnscdn.cli", f"cannot fork to fold {paths[3]} "
                    "([Errno 11] Resource temporarily unavailable); folding it here")]


@pytest.mark.parametrize("ending", ["unusable-first-run", "unusable-last-run", "interrupted"])
def test_no_child_outlives_main(tmp_path, monkeypatch, capsys, caplog, forks, ending):
    paths, geo = corpus(tmp_path, "sound")
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    argv = inputs_argv(["analyze"], paths, geo)
    if ending == "interrupted":
        parent, iter_records = os.getpid(), storage.iter_records

        def interrupted(path):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return iter_records(path)

        monkeypatch.setattr(storage, "iter_records", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        bad = paths[0] if ending == "unusable-first-run" else paths[-1]
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"schema_version": 99}\n')
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: ")
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("reason", ["one-file", "one-cpu", "no-fork", "other-threads"])
def test_every_file_is_folded_here_when_forking_cannot_help(tmp_path, monkeypatch, capsys, caplog, forks, reason):
    paths, geo = corpus(tmp_path, "sound")
    if reason == "one-file":
        paths = paths[:1]
    argv = inputs_argv(["analyze"], paths, geo)
    expected = run(monkeypatch, capsys, caplog, argv, 1)
    cpus = 1 if reason == "one-cpu" else 4
    if reason == "no-fork":
        monkeypatch.delattr(os, "fork")
    if reason != "other-threads":
        assert run(monkeypatch, capsys, caplog, argv, cpus) == expected
    else:
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert run(monkeypatch, capsys, caplog, argv, cpus) == expected
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
    assert forks == []


def test_a_child_flushes_no_stdio_and_runs_no_exit_handler(tmp_path):
    paths, geo = corpus(tmp_path, "sound")
    script = (
        "import atexit, sys\n"
        "from dnscdn import cli\n"
        "cli._cpu_count = lambda: 3\n"
        "atexit.register(lambda: sys.stderr.write('exit handler\\n'))\n"
        "sys.stdout.write('before main\\n')\n"
        "sys.stderr.write('unflushed')\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dnscdn.__file__))}
    argv = inputs_argv(["analyze"], paths, geo)
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.count("before main") == 1
    assert done.stdout.count("metric,region") == 1
    assert done.stderr == "unflushedexit handler\n"


def test_hit_rate_skips_are_logged_in_input_order_from_every_run(tmp_path, monkeypatch, capsys, caplog, forks):
    paths, expected = [], []
    for index in range(3):
        sets = [make_set(website=f"www{index}.example.com", ttl=20)]
        for k in range(3 - index):
            website = f"bare{index}-{k}.example.org"
            sets.append(make_set(website=website, cdn="nocdn"))
            expected.append(("WARNING", "dnscdn.analytics", f"no authoritative TTL for {website} (nocdn), skipped"))
        paths.append(str(tmp_path / f"campaign-{index}.jsonl"))
        write_records([CampaignRecord("c1", mset) for mset in sets], paths[-1])
    geo = tmp_path / "geo.json"
    geo.write_text("{}")
    status, out, err, log = run(
        monkeypatch, capsys, caplog, inputs_argv(["report", "--kind", "hit-rate"], paths, str(geo)), 3
    )
    assert (status, err) == (0, "")
    assert out.splitlines()[1].startswith("akamai,google,v4,3,")
    assert log == expected
    assert len(forks) == 2
    assert_reaped(forks)
