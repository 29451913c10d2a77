"""End-to-end checks of what users run: README's library example, the study
script, and commands run as separate ``relscale`` processes. A numpy
RuntimeWarning (an overflow or invalid value on these seeded inputs) is a
defect, so it fails these tests and the processes they start."""

import csv
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from relscale.cli import main
from tests.conftest import assert_canonical, run_python, run_relscale

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    """The output directories of the study script run as its own process,
    clean and on the noisy sweep (``--noise 0.04 --seed 0``)."""
    outdirs = {}
    for name, options in (("clean", []), ("noisy", ["--noise", "0.04", "--seed", "0"])):
        outdirs[name] = tmp_path_factory.mktemp(name)
        run_python(str(ROOT / "scripts" / "synthetic_relative_study.py"), "--outdir",
                   str(outdirs[name]), "--resamples", "200", *options)
    return outdirs


def library_example() -> str:
    """The fenced python block under README's "Library example" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL)
    return block


def test_readme_library_example_gives_the_values_it_states(capsys):
    code = library_example()
    for claim in ("# alpha=3.0, beta=0.10", "# 1.3, -0.02, ...", "# floor=0.0"):
        assert claim in code
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    law, rel, floored = (namespace[name] for name in ("law", "rel", "floored"))
    assert (law.alpha, law.beta) == pytest.approx((3.0, 0.10), rel=1e-6)
    assert (rel.gamma, rel.delta_beta) == pytest.approx((1.3, -0.02), rel=1e-6)
    assert floored.floor == pytest.approx(0.0, abs=1e-6)
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("name", ["clean", "noisy"])
def test_study_script_plots_the_pairs_it_fits(studies, name):
    relative = json.loads((studies[name] / "study.json").read_text())["relative"]
    with open(studies[name] / "relative.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for group, fit in relative.items():
        plotted = [(float(x), float(y)) for series, x, y in rows if series == group]
        assert plotted == [(f, t / b) for f, t, b in fit["pairs"]], group
    # The clean sweep keeps every budget. On the noisy one the frontiers skip
    # different budgets, so each ratio must come from a budget both kept.
    kept = {tuple(f for f, _, _ in fit["pairs"]) for fit in relative.values()}
    assert len(kept) == (1 if name == "clean" else 3)


def test_a_run_log_round_trips_through_csv_across_processes(studies, tmp_path):
    # Each conversion is its own process, so every read parses what the last
    # conversion wrote; a held run log would hide a writer/parser mismatch.
    original = studies["clean"] / "runs.jsonl"
    steps = [original, *(tmp_path / n for n in ("runs.csv", "again.jsonl", "again.csv"))]
    for source, target in zip(steps, steps[1:]):
        run_relscale("ingest", "--input", str(source), "--output", str(target))
    assert steps[1].read_bytes() == steps[3].read_bytes()
    records = [[json.loads(line) for line in path.read_text().splitlines()]
               for path in (original, steps[2])]
    assert len(records[0]) == 63 and records[0] == records[1]


def test_a_session_writes_what_fresh_processes_write(studies, tmp_path):
    # A session holds the log and the baseline's series on it, which both
    # relfit calls reuse; separate processes build every series anew. The
    # baseline's frontier skips budgets on this log, so every report carries
    # warnings. Reports record the paths they read, not the ones they write,
    # so each output is named relative to its directory.
    log = str(studies["noisy"] / "runs.jsonl")
    commands = [
        ["frontier", "--input", log, "--metric", "bpb/base", "--output", "frontier.json"],
        *(["relfit", "--input", log, "--metric", f"bpb/{name}", "--baseline", "bpb/base",
           "--frontier", "--resamples", "200", "--output", f"{name}.json"]
          for name in ("converging", "diverging")),
    ]
    session, fresh = tmp_path / "session", tmp_path / "fresh"
    session.mkdir()
    fresh.mkdir()
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=session) as cwd:
        for args in commands:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        written = {p.name: p.read_bytes() for p in Path(cwd).iterdir()}
    for args in commands:
        run_relscale(*args, cwd=fresh)
    assert sorted(written) == ["converging.json", "diverging.json", "frontier.json"]
    assert written == {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert all(json.loads(body)["warnings"] for body in written.values())
    assert_canonical(fresh.iterdir())


def test_every_report_is_the_text_json_dumps_writes(studies, kind_reports):
    reports = [path for path in kind_reports.glob("*.json")
               if "results" in json.loads(path.read_text())]
    assert len(reports) == 11
    assert_canonical([*reports, *(outdir / "study.json" for outdir in studies.values())])
