"""Every analysis output, byte for byte, on one small corpus.

analyze (CSV and JSON) and the five report kinds run through cli.main on
a corpus that exercises each rule the outputs rest on: two vantages, one
of them without a region; two CDNs, two resolvers and both families;
TTLs that read as a hit, a miss and an unknown; a distinct edge per
vantage; an unusable set; a set whose first answer is not an address
record; a usable set with no answers; and a CDN with no known TTL.
stdout and the exit status must match the files under tests/golden/,
which this test only reads.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from factories import make_response, make_set
from dnscdn import cli
from dnscdn.storage import CampaignRecord, write_records
from dnscdn.wire import IpVersion, RecordType, ResourceRecord

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "analyze.csv": ["analyze"],
    "analyze.json": ["analyze", "--json"],
    "report-cdf.csv": ["report", "--kind", "cdf"],
    "report-table.csv": ["report", "--kind", "table"],
    "report-penalty.csv": ["report", "--kind", "penalty"],
    "report-diversity.json": ["report", "--kind", "diversity"],
    "report-hit-rate.csv": ["report", "--kind", "hit-rate"],
}
# Packaged default TTLs: akamai 20 s, fastly 30 s.
TTLS = {"akamai": (20, 5, 25), "fastly": (30, 12, 45)}  # hit, miss, unknown
WEBSITES = [
    ("akamai", "www.ak1.example"),
    ("akamai", "www.ak2.example"),
    ("fastly", "www.fa1.example"),
    ("fastly", "www.fa2.example"),
]


def corpus_sets():
    sets = []
    index = 0
    for v, vantage in enumerate(("p1", "p2")):
        for cdn, website in WEBSITES:
            for r, resolver in enumerate(("google", "cloudflare")):
                for family in (IpVersion.V4, IpVersion.V6):
                    index += 1
                    v6 = family is IpVersion.V6
                    # cloudflare over IPv6 at p2 lags by 300 ms, past the
                    # Happy-Eyeballs threshold.
                    base = 10.0 + 3.5 * index + (300.0 if v6 and r and v else 0.0)
                    sets.append(
                        make_set(
                            vantage_id=vantage,
                            website=website,
                            cdn=cdn,
                            resolver_label=resolver,
                            ip_version=family,
                            dns=(
                                (base + 40.0, 1.0, True),
                                (base + 1.25 * r, 16.0, False),
                                (base + 2.0, 16.1, False),
                                (base - 0.5 * v, 16.2, False),
                            ),
                            handshakes=(20.0 + 2.0 * index, 21.0 + index, 19.5 + 2.5 * index),
                            ttl=TTLS[cdn][index % 3],
                            address=(f"2001:db8::{v + 1}" if v6 else f"192.0.2.{v + 1}"),
                        )
                    )
    # Unusable: two handshakes only.
    sets.append(make_set(vantage_id="p1", website="www.ak1.example", handshakes=(5.0, 5.0), ttl=20))
    # The first answer is a CNAME; the verdict reads the A record after it.
    chained = make_set(vantage_id="p2", website="www.fa1.example", cdn="fastly", ttl=30)
    chained.dns_results = [
        make_response(
            lat,
            at,
            qname="www.fa1.example",
            prewarm=pre,
            answers=[
                ResourceRecord("www.fa1.example", int(RecordType.CNAME), 99, "edge.fa.example"),
                ResourceRecord("edge.fa.example", int(RecordType.A), 30, "192.0.2.9"),
            ],
        )
        for lat, at, pre in ((50.0, 1.0, True), (7.0, 16.0, False), (8.0, 16.1, False), (9.0, 16.2, False))
    ]
    sets.append(chained)
    # Usable, but no response carries an answer.
    silent = make_set(vantage_id="p1", website="www.fa2.example", cdn="fastly", resolver_label="cloudflare")
    for result in silent.dns_results:
        result.answers = []
    sets.append(silent)
    # A CDN the TTL table does not know.
    sets.append(make_set(vantage_id="p1", website="www.other.example", cdn="othercdn"))
    return sets


def run_outputs(root: Path) -> dict[str, tuple[int, str]]:
    """Each command's exit status and stdout on the corpus, by golden file name."""
    path = root / "corpus.jsonl"
    write_records([CampaignRecord(campaign_id="c1", mset=s) for s in corpus_sets()], str(path))
    geo = root / "geo.json"
    geo.write_text(json.dumps({"p1": "asia"}))
    outputs = {}
    for name, command in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main([*command, "--input", str(path), "--geo", str(geo)])
        outputs[name] = status, out.getvalue()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_outputs(tmp_path_factory.mktemp("golden"))


def test_exit_statuses(outputs):
    expected = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    assert {name: status for name, (status, _) in outputs.items()} == expected


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout(outputs, name):
    assert outputs[name][1].encode("utf-8") == (GOLDEN / name).read_bytes()
