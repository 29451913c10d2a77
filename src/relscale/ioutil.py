"""Small shared I/O helpers: atomic writes, digests, JSON files, the number
rule and JSON loader of dataclasses, the ``kind``-tagged result form and its
loader, and the lazy module binding through which the library imports numpy."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import numbers
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import ClassVar

from .errors import RelscaleError, ValidationError


def lazy_module(name: str):
    """Module ``name``, loaded on its first attribute access.

    An already imported module is returned as it is. A module that is not
    installed raises ModuleNotFoundError here, not at its first use.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write text, or an iterable of text chunks, via a temp file in the same
    directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def load_json(path: str | Path):
    """The parsed content of a JSON file; a missing file or malformed JSON
    raises ValidationError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc.msg})") from exc
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValidationError(f"{path}: not valid JSON (a number is too long)") from None


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def finite_float(value, name: str, field: str) -> float:
    """``value`` as a finite builtin float; ints and numpy scalars pass, bools,
    strings and integers beyond the float range do not."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a number, got {value!r}", field=field)
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(f"{name} must be finite, got a number beyond the "
                                  f"float range", field=field) from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}", field=field)
    return value


def exact_int(value, name: str, field: str) -> int:
    """``value`` as a builtin int; Python ints are kept as is, numpy ints and
    integral floats are converted, bools, strings, fractions and integers
    beyond the float range are not."""
    if type(value) is not int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not float(value).is_integer()):
            raise ValidationError(f"{name} must be an integer, got {value!r}", field=field)
        value = int(value)
    if abs(value) > sys.float_info.max:  # every consumer takes counts as floats
        raise ValidationError(f"{name} must be finite, got a number beyond the float range",
                              field=field)
    return value


_NUMBER_RULES = {"float": finite_float, "int": exact_int}


@functools.cache
def _number_fields(cls) -> tuple:
    """(name, rule, may be None) per ``float``/``int`` (``| None``) field."""
    found = []
    for f in dataclasses.fields(cls):
        kind, _, rest = str(getattr(f.type, "__name__", f.type)).partition(" | ")
        if kind in _NUMBER_RULES and rest in ("", "None"):
            found.append((f.name, _NUMBER_RULES[kind], rest == "None"))
    return tuple(found)


def normalise_numbers(cls, values: dict, prefix: str = "") -> dict:
    """``values`` (field name to value) with each ``float`` or ``int`` field of
    dataclass ``cls`` through :func:`finite_float` or :func:`exact_int`; None
    stays None where allowed. An error names the field after ``prefix``."""
    out = {**values}
    for name, rule, optional in _number_fields(cls):
        if name in out and not (optional and out[name] is None):
            out[name] = rule(out[name], prefix + name, name)
    return out


def normalise_fields(instance, prefix: str = "") -> None:
    """:func:`normalise_numbers` on a frozen dataclass, in ``__post_init__``."""
    for name, value in normalise_numbers(type(instance), vars(instance), prefix).items():
        object.__setattr__(instance, name, value)


def dataclass_from_json(cls, obj, what: str):
    """``cls(**obj)`` for a JSON object describing a ``what``. A non-object,
    unknown keys and missing required keys are rejected, naming each."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {obj!r}")
    known = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {f.name for f in known})
    if unknown:
        raise ValidationError(f"unknown {what} fields: {unknown}", field=unknown[0])
    missing = [f.name for f in known if f.name not in obj and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"missing {what} fields: {missing}", field=missing[0])
    return cls(**obj)


class Tagged:
    """Mixin for result dataclasses: a ``kind`` tag and a plain-dict form.

    ``to_dict`` emits ``kind`` plus every field as the result holds it; JSON
    writes a tuple as an array, so the data rows a result carries are not
    copied. ``from_dict`` rejects a different ``kind``, takes a missing one
    as its own (payloads written before results carried the tag), ignores
    keys that are not fields, turns arrays back into tuples and puts the
    numeric fields through :func:`normalise_numbers`.
    """

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)}}

    @classmethod
    def from_dict(cls, obj: dict):
        kind = obj.get("kind", cls.kind)
        if kind != cls.kind:
            raise ValidationError(f"expected a {cls.kind!r} result, got {kind!r}")
        values = {f.name: obj[f.name] for f in dataclasses.fields(cls) if f.name in obj}
        for name, value in values.items():
            if isinstance(value, list):  # JSON arrays, and arrays in them, back to tuples
                values[name] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        return cls(**normalise_numbers(cls, values))


def load_tagged(obj, *types: type[Tagged]):
    """Payload ``obj`` rebuilt as the one of ``types`` whose ``kind`` it carries, the
    first if untagged; another kind or a malformed payload raises ValidationError."""
    by_kind = {cls.kind: cls for cls in types}
    kind = obj.get("kind", types[0].kind) if isinstance(obj, dict) else None
    if kind not in by_kind:
        raise ValidationError(f"got a {kind!r} result, expected {' or '.join(map(repr, by_kind))}")
    try:
        return by_kind[kind].from_dict(obj)
    except (KeyError, TypeError, RelscaleError) as exc:
        raise ValidationError(f"malformed {kind!r} result ({exc})") from exc
