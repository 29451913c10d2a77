"""End-to-end checks across processes: a session of commands in one process
writes what the same commands write as separate ``relscale`` processes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import relscale
from relscale import SyntheticSpec, generate
from relscale.cli import main
from relscale.store import runs_to_jsonl
from scripts.synthetic_relative_study import SUBGROUPS


def noisy_study_log(path: Path) -> Path:
    """The study script's sweep at ``--noise 0.04 --seed 0``, whose frontiers
    skip different budgets, written as JSONL without holding it in this process."""
    spec = SyntheticSpec(budgets=tuple(np.geomspace(1e18, 1e20, 7)), subgroups=SUBGROUPS,
                         widths_per_budget=9, noise_sigma=0.04, curvature=0.05, seed=0)
    path.write_text(runs_to_jsonl(generate(spec)))
    return path


def test_a_session_writes_what_fresh_processes_write(tmp_path):
    # A session holds the log and the baseline's series on it, which both
    # relfit calls reuse; separate processes build every series anew. Reports
    # record the paths they read, not the ones they write, so each output is
    # named relative to its directory.
    log = str(noisy_study_log(tmp_path / "runs.jsonl"))
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
    env = {**os.environ, "PYTHONPATH": str(Path(relscale.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    for args in commands:  # through the program's entry point, cli.run
        subprocess.run([sys.executable, "-m", "relscale.cli", *args], cwd=fresh, env=env,
                       check=True, capture_output=True, timeout=60)
    assert sorted(written) == ["converging.json", "diverging.json", "frontier.json"]
    assert written == {p.name: p.read_bytes() for p in fresh.iterdir()}
