"""Span tracing installed from outside the program.

The wrappers patch module attributes of ``relscale`` at the place each
caller looks the name up, so library code is not edited. Every wrapped
call records a span (name, start, end, parent, pass id, attributes such as
row counts) in memory; ``layer_metrics`` turns the spans into self times
and per-pass counts.

Spans are recorded for calls made on the thread that installed the
tracer; the library's worker threads call nothing that is wrapped.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

LAYERS = (
    "interpreter", "import", "cli", "store", "synthlab", "frontier", "lawfit",
    "calibration", "planner", "plotting", "ioutil",
)

#: Span names whose self time is lawfit fitting, resampling or permuting.
FIT_SPANS = ("lawfit.fit_power_law", "lawfit.fit_power_law_floored", "lawfit.fit_relative")
BOOTSTRAP_SPANS = ("lawfit.bootstrap_slopes", "lawfit.bootstrap_sign_test")
PERMUTATION_SPANS = ("lawfit.slope_covariate_correlation",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.pass_id: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> int | None:
        if not self.active:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.pass_id, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int | None, **attrs) -> None:
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        self.spans[index].attrs.update(attrs)
        self._stack.pop()

    def adopt(self, parent: int | None, path) -> None:
        """Append spans another process wrote, under span ``parent``."""
        if parent is None:
            return
        with open(path, encoding="utf-8") as fh:
            child_spans = [Span(**obj) for obj in json.load(fh)]
        offset = len(self.spans)
        for span in child_spans:
            span.parent = parent if span.parent is None else span.parent + offset
            span.pass_id = self.pass_id
            self.spans.append(span)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span; ``count(result, args, kwargs)`` gives its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=1)
                raise
            self.end(index, **(count(result, args, kwargs) if count and index is not None else {}))
            return result

        return traced


def command_attrs(args: list[str]) -> dict:
    """Span attributes of one CLI invocation: command name and --workers."""
    attrs = {"command": args[0] if args else ""}
    if "--workers" in args:
        attrs["workers"] = int(args[args.index("--workers") + 1])
    return attrs


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _permutations(result, args, kwargs) -> dict:
    n = result.n
    return {"permutations": math.factorial(n) if n <= 8
            else _arg(args, kwargs, 2, "permutations", 10_000)}


def install(tracer: Tracer) -> None:
    """Wrap the library's layer entry points and the CLI command callbacks."""
    from relscale import (calibration, cli, frontier, ioutil, lawfit, planner,
                          plotting, store, synthlab)

    def patch(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))

    rows_out = lambda r, a, k: {"rows": len(_arg(a, k, 0, "runs"))}
    patch(store, "ingest_runs", "store.ingest_runs", lambda r, a, k: {"rows": len(r)})
    patch(store, "runs_to_jsonl", "store.runs_to_jsonl", rows_out)
    patch(store, "runs_to_csv", "store.runs_to_csv", rows_out)
    patch(synthlab, "generate", "synthlab.generate", lambda r, a, k: {"runs": len(r)})
    patch(frontier, "extract_frontier", "frontier.extract_frontier",
          lambda r, a, k: {"slices_fit": len(r.points), "slices_skipped": len(r.warnings)})
    patch(frontier, "fit_isoflop_slice", "frontier.fit_isoflop_slice")
    for attr in ("fit_power_law", "fit_power_law_floored", "fit_relative"):
        patch(lawfit, attr, f"lawfit.{attr}")
    patch(lawfit, "bootstrap_slopes", "lawfit.bootstrap_slopes",
          lambda r, a, k: {"resamples": len(r)})
    patch(lawfit, "bootstrap_sign_test", "lawfit.bootstrap_sign_test")
    patch(lawfit, "slope_covariate_correlation", "lawfit.slope_covariate_correlation",
          _permutations)
    patch(calibration, "fit_sigmoid", "calibration.fit_sigmoid")
    patch(planner, "plan_sweep", "planner.plan_sweep", lambda r, a, k: {"plans": len(r)})
    patch(plotting, "emit_plot", "plotting.emit_plot",
          lambda r, a, k: {"bytes": sum(os.path.getsize(p) for p in r.values())})
    digest = lambda r, a, k: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}
    written = lambda r, a, k: {"bytes": len(_arg(a, k, 1, "text").encode("utf-8"))}
    # cli and plotting bind these names with ``from .ioutil import``.
    for module in (ioutil, cli):
        patch(module, "sha256_file", "ioutil.sha256_file", digest)
    for module in (ioutil, cli, plotting):
        patch(module, "atomic_write_text", "ioutil.atomic_write_text", written)
    for name, command in cli.main.commands.items():
        command.callback = tracer.wrap(command.callback, f"cli.{name}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def min_import_share(spans: list[Span]) -> float:
    """Smallest share of a command process's wall time spent importing relscale.cli.

    0.0 when no command ran in its own process.
    """
    shares = [
        (s.end - s.start) / (spans[s.parent].end - spans[s.parent].start)
        for s in spans
        if s.name == "import.relscale_cli" and s.parent is not None
    ]
    return min(shares, default=0.0)


#: Units by metric-name suffix, tried in order; other metrics are counts.
SUFFIX_UNITS = (
    ("_us_per_row", "us"), ("_per_s", "1/s"), ("_share", "ratio"), ("_frac", "ratio"),
    ("_speedup", "ratio"), ("_per_relfit", "count"), ("_s", "s"),
)


def unit_of(name: str, units: dict | None = None) -> str:
    """A metric's unit: from ``units`` if listed, else from its name."""
    if units and name in units:
        return units[name]
    if ".bytes" in name:
        return "B"
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


def _is_nested_fit(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in FIT_SPANS:
            return True
        parent = spans[parent].parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def workers_speedup(spans: list[Span]) -> float:
    """Wall time of relfit/correlate at --workers 1 over that at --workers 2.

    0.0 when the spans hold no command run at both settings.
    """
    by_workers = {1: 0.0, 2: 0.0}
    for s in spans:
        if s.name == "cli.invoke" and s.attrs.get("command") in ("relfit", "correlate"):
            workers = s.attrs.get("workers", 1)
            if workers in by_workers:
                by_workers[workers] += s.end - s.start
    return _ratio(by_workers[1], by_workers[2]) if by_workers[1] else 0.0


def layer_metrics(spans: list[Span], passes: int, pass_seconds: float) -> dict:
    """Per-pass layer self times, shares of pass time, and counts.

    ``pass_seconds`` is the mean wall time of the traced passes; a layer's
    share is its self time per pass divided by it.
    """
    own = self_times(spans)

    def per_pass(names, key=None):
        return sum(s.attrs.get(key, 0) if key else t
                   for s, t in zip(spans, own) if s.name in names) / passes

    def count(names):
        return sum(1 for s in spans if s.name in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer) / passes
        m[f"{layer}.self_share"] = m[f"{layer}.self_s"] / pass_seconds
    m["cli.commands"] = count(("cli.invoke",)) / passes
    m["store.ingest_s"] = per_pass(("store.ingest_runs",))
    m["store.ingest_rows"] = per_pass(("store.ingest_runs",), "rows")
    m["store.ingest_us_per_row"] = 1e6 * _ratio(m["store.ingest_s"], m["store.ingest_rows"])
    emit = ("store.runs_to_jsonl", "store.runs_to_csv")
    m["store.emit_s"] = per_pass(emit)
    m["store.emit_rows"] = per_pass(emit, "rows")
    m["synthlab.generate_s"] = per_pass(("synthlab.generate",))
    m["synthlab.runs"] = per_pass(("synthlab.generate",), "runs")
    m["frontier.extract_s"] = per_pass(("frontier.extract_frontier", "frontier.fit_isoflop_slice"))
    m["frontier.slices_fit"] = per_pass(("frontier.extract_frontier",), "slices_fit")
    m["frontier.slices_skipped"] = per_pass(("frontier.extract_frontier",), "slices_skipped")
    m["lawfit.fit_s"] = per_pass(FIT_SPANS)
    m["lawfit.fits"] = sum(1 for s in spans if s.name in FIT_SPANS
                           and not _is_nested_fit(spans, s)) / passes
    m["lawfit.bootstrap_s"] = per_pass(BOOTSTRAP_SPANS)
    m["lawfit.resamples"] = per_pass(("lawfit.bootstrap_slopes",), "resamples")
    m["lawfit.resamples_per_s"] = _ratio(m["lawfit.resamples"], m["lawfit.bootstrap_s"])
    m["lawfit.bootstraps_per_relfit"] = _ratio(
        count(("lawfit.bootstrap_slopes",)), count(("cli.relfit",)))
    m["lawfit.workers_speedup"] = workers_speedup(spans)
    m["lawfit.permutation_s"] = per_pass(PERMUTATION_SPANS)
    m["lawfit.permutations"] = per_pass(PERMUTATION_SPANS, "permutations")
    m["lawfit.permutations_per_s"] = _ratio(m["lawfit.permutations"], m["lawfit.permutation_s"])
    m["calibration.fit_s"] = per_pass(("calibration.fit_sigmoid",))
    m["calibration.fits"] = count(("calibration.fit_sigmoid",)) / passes
    m["planner.plan_s"] = per_pass(("planner.plan_sweep",))
    m["planner.plans"] = per_pass(("planner.plan_sweep",), "plans")
    m["plotting.render_s"] = per_pass(("plotting.emit_plot",))
    m["plotting.bytes"] = per_pass(("plotting.emit_plot",), "bytes")
    m["ioutil.digest_s"] = per_pass(("ioutil.sha256_file",))
    m["ioutil.bytes_hashed"] = per_pass(("ioutil.sha256_file",), "bytes")
    m["ioutil.write_s"] = per_pass(("ioutil.atomic_write_text",))
    m["ioutil.bytes_written"] = per_pass(("ioutil.atomic_write_text",), "bytes")
    return m
