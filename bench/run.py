"""relscale benchmark: one workload, one seed, one closed loop.

Usage:
    python3 bench/run.py --workload {sweep,inference,cold_cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Builds the workload's inputs from the seed, then runs its fixed command
sequence pass after pass for S seconds: the next command starts only when
the previous one has finished, on one process (in-process through the click
``main`` command, or one ``python -m relscale.cli`` process per command on
``cold_cli``). After each pass every command's output is checked. The run
record (machine, versions, sample counts, failures) goes to stderr; the
last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh ``python -m relscale.cli --version``
  processes (import plus start-up).
* ``job_s``: median wall time of a pass.
* ``peak_rss_mb``: peak resident memory of the process(es) that ran passes.
* ``delta_beta_abs_err``: mean |fitted - planted| relative exponent over the
  seeded replicates of ``oracles.delta_beta_panel``.

``setup_s`` and ``job_s`` are normalized by the machine-speed reference of
``speed.py``: each process launch and each command is preceded by one run
of a fixed kernel, and a time is rescaled by the kernel times taken
alongside it. Raw wall times, the highest percentile with ten passes beyond
it, and the pass count are in the run record.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans that ``spans.install`` records around the library's
entry points. ``--smoke`` shrinks every input and runs a single pass; it
gates no timing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up.
SETUP_LAUNCHES = 5

#: A command process still running after this many seconds is killed and fails.
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB",
                    "delta_beta_abs_err": "1"}


def median(values):
    return statistics.median(values) if values else 0.0


def launch(argv: list[str], env: dict, workdir: Path, stdout_name: str):
    """Run a child to completion; return (exit code, wall s, stderr text).

    Standard output goes to ``workdir / stdout_name``.
    """
    out_path, err_path = workdir / stdout_name, workdir / (stdout_name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = f"timeout after {CHILD_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:  # timed out, or this process was interrupted
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return code, wall, err_path.read_text(errors="replace")


IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def cumulative_import_s(stderr: str, module: str) -> float:
    """A module's cumulative import time from ``-X importtime`` output."""
    for _self_us, cumulative_us, name in IMPORTTIME.findall(stderr):
        if name == module:
            return int(cumulative_us) / 1e6
    raise ValueError(f"{module} missing from -X importtime output")


def measure_setup(env: dict, workdir: Path, traced: bool, reference: speed.Reference) -> dict:
    """Time fresh interpreters importing relscale.cli and answering --version."""
    from relscale import __version__

    walls, reference_s, cli_import, cal_import = [], [], [], []
    for i in range(SETUP_LAUNCHES):
        reference_s.append(reference.seconds())
        argv = ([sys.executable, "-X", "importtime", "-c",
                 "from relscale.cli import main; main(['--version'])"] if traced
                else [sys.executable, "-m", "relscale.cli", "--version"])
        code, wall, err = launch(argv, env, workdir, f"setup{i}.out")
        text = (workdir / f"setup{i}.out").read_text()
        if code != 0 or __version__ not in text:
            raise RuntimeError(f"relscale --version failed ({code}): {text!r} {err!r}")
        walls.append(wall)
        if traced:
            cli_import.append(cumulative_import_s(err, "relscale.cli"))
            cal_import.append(cumulative_import_s(err, "relscale.calibration"))
    return {"setup_s": speed.normalize(median(walls), median(reference_s)),
            "setup_wall_s_all": walls, "setup_reference_s_all": reference_s,
            "cli.import_s": median(cli_import), "calibration.import_s": median(cal_import)}


class Runner:
    """Runs passes of one workload and checks what each command wrote."""

    def __init__(self, workload, workdir: Path, env: dict, tracer: spans.Tracer):
        from relscale.cli import main

        self.workload = workload
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._main = main
        self._sink = io.StringIO()
        self.reference = speed.Reference()

    def _in_process(self, args: list[str]) -> str | None:
        index = self.tracer.begin("cli.invoke", **spans.command_attrs(args))
        self._sink.seek(0)
        self._sink.truncate()
        try:
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
                self._main.main(args=args, prog_name="relscale", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                return f"exit {exc.code}: {self._sink.getvalue().strip()[-300:]}"
        except Exception as exc:  # a failed operation is counted, not fatal
            return f"{type(exc).__name__}: {exc}"
        finally:
            self.tracer.end(index)
        return None

    def _subprocess(self, idx: int, args: list[str]) -> str | None:
        name = f"op{idx:02d}.out"
        if self.tracer.active:
            spans_path = self.workdir / f"op{idx:02d}.spans.json"
            argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "launch.py"),
                    str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "relscale.cli", *args]
        index = self.tracer.begin("interpreter.process")
        code, _, err = launch(argv, self.env, self.workdir, name)
        self.tracer.end(index)
        if self.tracer.active and spans_path.is_file():
            self.tracer.adopt(index, spans_path)
        return None if code == 0 else f"exit {code}: {err.strip()[-300:]}"

    def run_pass(self) -> tuple[float, float, list[str | None]]:
        """One pass of the command sequence.

        Returns the commands' wall time, the mean reference-kernel time
        taken before each command, and per-op error or None.
        """
        errors, reference_s = [], []
        wall = 0.0
        for idx, op in enumerate(self.workload.ops):
            reference_s.append(self.reference.seconds())
            start = time.perf_counter()
            if self.workload.in_process:
                errors.append(self._in_process(op.args))
            else:
                errors.append(self._subprocess(idx, op.args))
            wall += time.perf_counter() - start
        return wall, statistics.mean(reference_s), errors

    def check_pass(self, errors: list[str | None]) -> None:
        """Output checks, plus byte-identity with the first pass's outputs."""
        for op, error in zip(self.workload.ops, errors):
            self.attempted += 1
            if error is None and op.check is not None:
                try:
                    error = op.check(self.workdir)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            for path in op.outputs if error is None else ():
                digest = hashlib.sha256((self.workdir / path).read_bytes()).hexdigest()
                if self.digests.setdefault(path, digest) != digest:
                    error = f"{path} differs from the first pass"
            if error is not None:
                self.failures.append(f"{' '.join(op.args[:1])}: {error}")


def machine_record() -> dict:
    def first(path: str, key: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def version(pkg: str) -> str:
        from importlib import metadata
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "memory": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct, "value": statistics.quantiles(samples, n=100)[pct - 1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "inference", "cold_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = parser.parse_args(argv)

    if not (SRC / "relscale" / "cli.py").is_file():
        print(f"error: relscale sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # in-process commands resolve their relative paths here
    try:
        return run(args, env, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, env: dict, workdir: Path) -> int:
    # Frontier warnings go to the reports; keep them off the terminal.
    logging.getLogger().addHandler(logging.NullHandler())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    workload = workloads.prepare(args.workload, args.seed, workdir, smoke=args.smoke)
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    runner = Runner(workload, workdir, env, tracer)
    setup = measure_setup(env, workdir, bool(args.trace), runner.reference)
    # Pass wall times, and the same rescaled by the reference kernel.
    untraced, traced, untraced_norm, traced_norm, reference_s = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    pass_id = 0
    while True:
        tracer.active = bool(args.trace) and pass_id % 2 == 1
        tracer.pass_id = pass_id
        seconds, pass_reference_s, errors = runner.run_pass()
        reference_s.append(pass_reference_s)
        (traced if tracer.active else untraced).append(seconds)
        (traced_norm if tracer.active else untraced_norm).append(
            speed.normalize(seconds, pass_reference_s))
        tracer.active = False
        runner.check_pass(errors)
        pass_id += 1
        done = time.perf_counter() >= deadline or args.smoke
        if done and (not args.trace or traced):
            break
    # ru_maxrss is in KiB on Linux. Children include the set-up launches,
    # which only import what every cold_cli command imports too.
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss = resource.getrusage(who).ru_maxrss / 1024.0

    open_defects = (oracles.known_defect_probes(args.seed, workdir)
                    if args.workload == "sweep" else [])

    failed = len(runner.failures)
    replicates = 20 if args.smoke else oracles.PANEL_REPLICATES
    record.update({
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"job_s": len(untraced), "setup_s": SETUP_LAUNCHES,
                    "delta_beta_abs_err": 0 if args.trace else replicates,
                    "per_layer": len(traced)},
        "setup_wall_s_all": setup["setup_wall_s_all"],
        "setup_reference_s_all": setup["setup_reference_s_all"],
        "job_wall_s_all": untraced,
        "job_s_all": untraced_norm,
        "reference_s_all": reference_s,
        "job_wall_median_s": median(untraced),
        "job_tail": tail_percentile(untraced_norm),
        "operations": {"attempted": runner.attempted, "failed": failed},
        "failures": runner.failures[:20],
        "known_defect_probes": open_defects,
    })
    if args.trace:
        layer = spans.layer_metrics(tracer.spans, len(traced), statistics.mean(traced))
        metrics = {
            "cli.import_s": setup["cli.import_s"],
            "calibration.import_s": setup["calibration.import_s"],
            **layer,
            "import.min_command_share": spans.min_import_share(tracer.spans),
            "trace.overhead_frac": median(traced_norm) / median(untraced_norm) - 1.0,
            "failed_frac": failed / runner.attempted,
            "probe.defects_open": float(len(open_defects)),
        }
        units = None
    else:
        delta_beta = oracles.delta_beta_panel(
            args.seed, workload.panel_mode, workload.panel_noise, replicates=replicates)
        metrics = {"setup_s": setup["setup_s"], "job_s": median(untraced_norm),
                   "peak_rss_mb": peak_rss, "delta_beta_abs_err": delta_beta}
        units = END_TO_END_UNITS
    print(json.dumps(record, indent=1, default=str), file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {spans.unit_of(name, units)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spans.unit_of(name, units)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
