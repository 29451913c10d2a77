"""Data model, ingestion, and grouping of experiment logs.

Run logs are JSONL (one object per line) or CSV (one column per metric key).
One rule decides which, for every reader and writer: a log whose name ends
in ``.csv`` is CSV, any other is JSONL. Records normalise and validate their
fields on construction: builtin ``float`` FLOPs and metrics, builtin ``int``
params and tokens, positive compute/size fields, finite metrics, and, for
internal sweep runs, consistency of the reported FLOPs with the
6·params·tokens accounting rule.
Both readers pass a row's fields straight to that one constructor, which
checks them and stores each field once.

A RunSet read from a file carries the digest of the bytes it was parsed
from, or written as, which reports cite; it records no path. One RunSet is
held: the last log ``ingest_runs`` read, or ``emit_runs`` wrote as JSONL,
keyed by the file's path (which fixes its format) and content digest.
``ingest_runs`` returns that same object while the bytes are unchanged, so
a session that runs many commands on one log parses it once, and not at
all when it wrote the log itself. The frontier series built from a set are
kept on it (see ``frontier.extract_frontier``), so a session holds one log
and the series built from it, and drops both together: a miss or a JSONL
write releases them before the next set is built, and ``cli``'s
``simulate`` releases them before it generates.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Literal

from .errors import IngestError, ValidationError
from .ioutil import (JSON_DECODER, atomic_write_text, dataclass_from_json, exact_int, finite_float,
                     json_line, load_json, sha256_file)

Source = Literal["internal", "external"]

#: FLOPs spent per parameter per training token (forward + backward).
FLOPS_PER_PARAM_TOKEN = 6

#: Relative tolerance for the internal-run FLOP consistency check. Absorbs
#: rounding introduced by batch/step quantization in the planner.
FLOPS_CONSISTENCY_RTOL = 0.01

_CORE_FIELDS = ("run_id", "source", "dataset", "flops", "params", "tokens")
_core_values = itemgetter(*_CORE_FIELDS)

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, init=False, slots=True)
class RunRecord:
    """One trained-model evaluation point.

    ``metrics`` is a dict mapping string metric keys (e.g. ``"bpb/wiki"``,
    ``"acc/task"``) to finite values. The constructor checks and normalises
    its arguments in one step, then stores each field once: the numeric
    fields become builtin types (numpy scalars are accepted; bools,
    fractional counts and numbers beyond the float range are not), so every
    record emits and re-ingests losslessly. A value that already has its
    builtin type is kept as given, the metrics dict included. Records are
    slotted and frozen. Their metrics dicts are shared, between the callers
    of :func:`ingest_runs`, with the dict a caller passed in, and with the
    later readers of a log :func:`emit_runs` wrote as JSONL, so they must
    not be mutated; the toolkit never does.
    """

    run_id: str
    source: Source
    dataset: str
    flops: float
    params: int
    tokens: int
    metrics: dict[str, float]

    def __init__(self, run_id: str, source: Source, dataset: str, flops: float,
                 params: int, tokens: int, metrics: dict[str, float]):
        if type(run_id) is not str:
            if run_id is None:
                raise ValidationError("run_id must be a string, got None", field="run_id")
            run_id = str(run_id)
        if type(dataset) is not str:
            if dataset is None:
                raise ValidationError("dataset must be a string, got None", field="dataset")
            dataset = str(dataset)
        if not run_id:
            raise ValidationError("run_id must be non-empty", field="run_id")
        if source not in ("internal", "external"):
            raise ValidationError(
                f"source must be 'internal' or 'external', got {source!r}", field="source")
        if type(flops) is not float or not isfinite(flops):
            flops = finite_float(flops, "flops", "flops")
        if type(params) is not int or params > _FLOAT_MAX:
            params = exact_int(params, "params", "params")
        if type(tokens) is not int or tokens > _FLOAT_MAX:
            tokens = exact_int(tokens, "tokens", "tokens")
        if flops <= 0:
            raise ValidationError("flops must be strictly positive", field="flops")
        if params <= 0:
            raise ValidationError("params must be strictly positive", field="params")
        if tokens <= 0:
            raise ValidationError("tokens must be strictly positive", field="tokens")
        if not isinstance(metrics, dict):
            raise ValidationError(f"metrics must be a dict, got {type(metrics).__name__}",
                                  field="metrics")
        for key, value in metrics.items():
            if type(value) is not float or not isfinite(value) or type(key) is not str:
                metrics = _checked_metrics(metrics)
                break
        if source == "internal":
            expected = FLOPS_PER_PARAM_TOKEN * params * tokens
            if expected > _FLOAT_MAX:
                raise ValidationError(
                    f"flops={flops:g} inconsistent with 6*params*tokens, which is "
                    f"beyond the float range",
                    field="flops",
                )
            if abs(flops - expected) > FLOPS_CONSISTENCY_RTOL * flops:
                raise ValidationError(
                    f"flops={flops:g} inconsistent with "
                    f"6*params*tokens={expected:g} "
                    f"(off by {abs(flops - expected) / flops:.1%}, "
                    f"tolerance {FLOPS_CONSISTENCY_RTOL:.0%})",
                    field="flops",
                )
        put = object.__setattr__
        put(self, "run_id", run_id)
        put(self, "source", source)
        put(self, "dataset", dataset)
        put(self, "flops", flops)
        put(self, "params", params)
        put(self, "tokens", tokens)
        put(self, "metrics", metrics)


def _checked_metrics(metrics: dict) -> dict:
    """``metrics`` with every value a finite builtin float; a key that is not
    a string (JSON would write it as one) is rejected."""
    out = {}
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise ValidationError(f"metric keys must be strings, got {key!r}",
                                  field="metrics")
        out[key] = finite_float(value, f"metric {key!r}", key)
    return out


@dataclass(frozen=True)
class RunSet:
    """An immutable, ordered collection of runs and, for runs read from a
    file or held from a JSONL write, the SHA-256 of the file's bytes (empty
    otherwise).

    ``_frontiers`` holds the series :func:`frontier.extract_frontier` built
    from these records, by its arguments, so that it lives and dies with the
    set; a set made by ``dataclasses.replace`` starts with none.
    """

    records: tuple[RunRecord, ...]
    sha256: str = ""
    _frontiers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: set[str] = set()
        for record in self.records:
            if record.run_id in seen:
                raise ValidationError(
                    f"duplicate run_id {record.run_id!r}", field="run_id"
                )
            seen.add(record.run_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class GroupingSpec:
    """A mapping from low-level item keys to group labels.

    Every item key maps to exactly one group; the mapping must be non-empty.
    """

    name: str
    mapping: dict[str, str]

    def __post_init__(self):
        if not isinstance(self.mapping, dict):
            raise ValidationError(
                f"grouping mapping must be an object, got {self.mapping!r}", field="mapping"
            )
        if not self.mapping:
            raise ValidationError("grouping mapping must be non-empty", field="mapping")
        for item, label in self.mapping.items():
            if not (isinstance(item, str) and isinstance(label, str)):
                raise ValidationError("item keys and group labels must be strings, got "
                                      f"{item!r} -> {label!r}", field="mapping")
            if not item or not label:
                raise ValidationError(
                    f"empty item key or group label in mapping: {item!r} -> {label!r}",
                    field="mapping",
                )

    def group_labels(self) -> list[str]:
        """Group labels in first-appearance order."""
        labels: dict[str, None] = {}
        for label in self.mapping.values():
            labels.setdefault(label)
        return list(labels)

    @classmethod
    def from_file(cls, path: str | Path) -> "GroupingSpec":
        """The spec in a JSON file; ``name`` defaults to the file's stem."""
        obj = load_json(path)
        if isinstance(obj, dict):
            obj = {"name": Path(path).stem, **obj}
        return dataclass_from_json(cls, obj, "grouping spec")


def _record_from_obj(obj: dict, line: int, keys: dict[str, str]) -> RunRecord:
    if not isinstance(obj, dict):
        raise IngestError("row is not an object", line=line)
    try:
        core = _core_values(obj)
    except KeyError:
        missing = next(k for k in _CORE_FIELDS if k not in obj)
        raise IngestError(f"missing field {missing!r}", line=line, field=missing) from None
    metrics = obj.get("metrics", {})
    if not isinstance(metrics, dict):
        raise IngestError("'metrics' must be an object", line=line, field="metrics")
    # The decoder gives every row its own key strings; share one per name.
    metrics = {keys.setdefault(k, k): v for k, v in metrics.items()}
    try:
        return RunRecord(*core, metrics)
    except ValidationError as exc:
        raise IngestError(str(exc), line=line, field=exc.field) from exc


def _iter_jsonl(path: Path) -> Iterable[RunRecord]:
    keys: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = JSON_DECODER.decode(line)
            except ValidationError as exc:  # a repeated key
                raise IngestError(str(exc), line=line_no, field=exc.field) from None
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSON ({exc.msg})", line=line_no) from exc
            except ValueError:  # an integer past the interpreter's digit limit
                raise IngestError("malformed JSON (a number is too long)", line=line_no) from None
            yield _record_from_obj(obj, line_no, keys)


def _iter_csv(path: Path) -> Iterable[RunRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty CSV file", line=1) from None
        missing = [k for k in _CORE_FIELDS if k not in header]
        if missing:
            raise IngestError(
                f"missing column {missing[0]!r}", line=1, field=missing[0]
            )
        if len(set(header)) < len(header):
            repeated = next(name for i, name in enumerate(header) if name in header[:i])
            raise IngestError(f"duplicate column {repeated!r}", line=1, field=repeated)
        run_id, source, dataset = map(header.index, _CORE_FIELDS[:3])
        metric_cols = [(i, name, f"metrics[{name!r}]")
                       for i, name in enumerate(header) if name not in _CORE_FIELDS]
        count_cols = [(header.index(name), name) for name in _CORE_FIELDS[3:]]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"expected {len(header)} columns, got {len(row)}", line=line_no
                )
            # Metric cells, then flops, params and tokens; an empty metric cell
            # is an absent metric. Digit-only cells parse as int, so counts
            # above 2**53 stay exact.
            try:
                metrics = {}
                for i, name, label in metric_cols:
                    if raw := row[i]:
                        metrics[name] = int(raw) if raw.isdigit() else float(raw)
                counts = []
                for i, label in count_cols:
                    raw = row[i]
                    counts.append(int(raw) if raw.isdigit() else float(raw))
            except ValueError:
                raise IngestError(f"{label} must be a number, got {raw!r}",
                                  line=line_no, field=label) from None
            try:
                record = RunRecord(row[run_id], row[source], row[dataset], *counts, metrics)
            except ValidationError as exc:
                raise IngestError(str(exc), line=line_no, field=exc.field) from exc
            yield record


def _format(path: str | Path) -> str:
    """A run log's format: CSV when its name ends in ``.csv``, else JSONL."""
    return "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"


#: The RunSet ``ingest_runs`` returned last, or ``emit_runs`` wrote last as
#: JSONL, under its (path, SHA-256 of the file) key. A miss, and a JSONL
#: write, drops it first, so that two held logs are never alive at once.
_last: tuple[tuple[str, str], RunSet] | None = None


def _release() -> None:
    """Drop the held RunSet, with the frontier series kept on it, before a
    caller builds a set of its own: ``simulate`` does so before it generates."""
    global _last
    _last = None


def ingest_runs(path: str | Path) -> RunSet:
    """Read and validate a run log: CSV when its name ends in ``.csv``, else
    JSONL, the rule :func:`emit_runs` writes by.

    Rows violating record invariants raise :class:`IngestError` naming the
    line number and offending field. Duplicate run_ids are rejected by the
    RunSet constructor.

    The last RunSet returned, or written as JSONL by :func:`emit_runs`, is
    held: a call with the same path on a file whose bytes are unchanged
    returns that same object without parsing, and any other call releases
    it first. A returned set is therefore shared by every caller that reads
    the same bytes. Its records are frozen, and their ``metrics`` dicts,
    whose key strings are shared between rows, must not be mutated.

    Returns:
        A validated RunSet whose ``sha256`` is the digest of the file's bytes.
    """
    global _last
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    key = (str(path), sha256_file(path))
    held = _last
    if held is not None and held[0] == key:
        return held[1]
    _last = held = None  # free the old set before the new one is built
    rows = _iter_csv(path) if _format(path) == "csv" else _iter_jsonl(path)
    runs = RunSet(tuple(rows), sha256=key[1])
    _last = key, runs
    return runs


def _jsonl_lines(runs: RunSet) -> Iterable[str]:
    for r in runs:
        yield json_line({"run_id": r.run_id, "source": r.source, "dataset": r.dataset,
                         "flops": r.flops, "params": r.params, "tokens": r.tokens,
                         "metrics": r.metrics})


def runs_to_jsonl(runs: RunSet) -> str:
    """The RunSet as JSONL text, floats at full shortest-round-trip precision."""
    return "".join(_jsonl_lines(runs))


def runs_to_csv(runs: RunSet) -> str:
    """The RunSet as CSV text with one column per metric key (sorted)."""
    metric_keys = sorted({k for r in runs for k in r.metrics})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(_CORE_FIELDS) + metric_keys)
    for r in runs:
        row = [r.run_id, r.source, r.dataset, repr(r.flops), r.params, r.tokens]
        row += [repr(r.metrics[k]) if k in r.metrics else "" for k in metric_keys]
        writer.writerow(row)
    return buffer.getvalue()


def emit_runs(runs: RunSet, path: str | Path) -> None:
    """Write a RunSet back to disk, losslessly and atomically: CSV when the
    name ends in ``.csv``, else JSONL, the rule :func:`ingest_runs` reads by.

    Floats are printed at full (shortest round-trip) precision, so
    ``ingest_runs`` on the emitted file reproduces every numeric field
    exactly. JSONL is streamed line by line, with the bytes of
    :func:`runs_to_jsonl`. The records are only read, so a RunSet shared
    through :func:`ingest_runs` may be emitted.

    A JSONL write replaces the set ``ingest_runs`` holds with ``runs``,
    carrying the SHA-256 of the bytes written, so that reading the file back
    in this process parses nothing; a failed write leaves no set held. The
    records, ``metrics`` dicts included, are then shared with those later
    readers and must not be mutated. A CSV write leaves the held set as it
    is: CSV sorts the metric columns, so a parse would not give back the
    metric key order of ``runs``.
    """
    global _last
    path = Path(path)
    if _format(path) == "csv":
        atomic_write_text(path, runs_to_csv(runs))
        return
    _last = None
    digest = hashlib.sha256()

    def hashed_lines():
        for line in _jsonl_lines(runs):
            digest.update(line.encode("utf-8"))
            yield line

    atomic_write_text(path, hashed_lines())
    sha256 = digest.hexdigest()
    _last = (str(path), sha256), replace(runs, sha256=sha256)


def aggregate_by_group(
    runs: RunSet,
    spec: GroupingSpec,
    metric_prefix: str,
) -> RunSet:
    """Collapse per-item metrics into per-group metrics.

    Every metric key starting with ``metric_prefix`` is stripped of the
    prefix and looked up in ``spec.mapping``; the group value is the
    unweighted mean over member items present on that run. Each output
    record carries exactly one metric per group label.

    Raises:
        ValidationError: an item key is missing from the mapping, or some
            group has zero present members on a run.
    """
    labels = spec.group_labels()
    out: list[RunRecord] = []
    for record in runs:
        sums = {label: 0.0 for label in labels}
        counts = {label: 0 for label in labels}
        for key, value in record.metrics.items():
            if not key.startswith(metric_prefix):
                continue
            item = key[len(metric_prefix):]
            if item not in spec.mapping:
                raise ValidationError(
                    f"unmapped item key {item!r} (metric {key!r}) "
                    f"in grouping {spec.name!r}",
                    field=key,
                )
            label = spec.mapping[item]
            sums[label] += value
            counts[label] += 1
        for label in labels:
            if counts[label] == 0:
                raise ValidationError(
                    f"group {label!r} has zero present members on run "
                    f"{record.run_id!r}",
                    field=label,
                )
        grouped = {label: sums[label] / counts[label] for label in labels}
        out.append(replace(record, metrics=grouped))
    return RunSet(tuple(out))
