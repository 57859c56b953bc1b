"""Peak memory of analyze and report grows with the keys, not the records.

Four files that repeat one campaign's keys must cost about what one file
costs: each command folds every set into a per-key summary and drops it.
"""

import contextlib
import io
import shutil
import tracemalloc

import pytest

from factories import make_set
from dnscdn import cli
from dnscdn.storage import CampaignRecord, write_records
from dnscdn.wire import IpVersion

SETS_PER_FILE = 200
BYTES_PER_ADDED_SET = 256
COMMANDS = {
    "analyze": ["analyze"],
    "cdf": ["report", "--kind", "cdf"],
    "table": ["report", "--kind", "table"],
    "penalty": ["report", "--kind", "penalty"],
    "diversity": ["report", "--kind", "diversity"],
    "hit-rate": ["report", "--kind", "hit-rate"],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Four copies of one campaign file, and a geo file for its vantages."""
    root = tmp_path_factory.mktemp("corpus")
    sets = [
        make_set(
            vantage_id=f"probe-{vantage}",
            website=f"www{site}.example.com",
            cdn=("akamai", "fastly")[site % 2],
            resolver_label=resolver,
            ip_version=family,
            ttl=20,
        )
        for vantage in range(5)
        for site in range(10)
        for resolver in ("google", "quad9")
        for family in (IpVersion.V4, IpVersion.V6)
    ]
    assert len(sets) == SETS_PER_FILE
    first = str(root / "campaign-0.jsonl")
    write_records([CampaignRecord(campaign_id="c1", mset=s) for s in sets], first)
    paths = [first]
    for copy in range(1, 4):
        paths.append(str(root / f"campaign-{copy}.jsonl"))
        shutil.copyfile(first, paths[-1])
    geo = root / "geo.json"
    geo.write_text('{"probe-0": "asia", "probe-1": "europe", "probe-2": null}')
    return paths, str(geo)


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def peak_bytes(argv) -> int:
    """Peak traced memory of one command, counted from its start."""
    tracemalloc.start()
    try:
        assert run_quietly(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_added_sets_cost_at_most_a_few_bytes_each(corpus, command):
    paths, geo = corpus

    def argv(files):
        return [*command, "--geo", geo, *[arg for path in files for arg in ("--input", path)]]

    assert run_quietly(argv(paths[:1])) == 0  # imports, codecs and memos warm up here
    one = peak_bytes(argv(paths[:1]))
    four = peak_bytes(argv(paths))
    per_added_set = (four - one) / (3 * SETS_PER_FILE)
    assert per_added_set <= BYTES_PER_ADDED_SET, (
        f"peak {one} B over 1 file, {four} B over 4: {per_added_set:.0f} B per added set"
    )
