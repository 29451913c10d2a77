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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key, which
    ``json`` would silently keep the last of, raises ValidationError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValidationError(f"repeated key {repeated!r}", field=repeated)
    return obj


#: :func:`_unique_keys` as a decoder, built once for readers that parse many
#: documents (the lines of a JSONL run log).
JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(path: str | Path):
    """The parsed content of a JSON file; a missing file, malformed JSON or a
    repeated key in an object raises ValidationError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}", field=exc.field) from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc.msg})") from exc
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValidationError(f"{path}: not valid JSON (a number is too long)") from None


#: The builtin types json writes as one literal; a value of any other type is
#: a container, or goes to json's own rule for it, one value per C call.
_PLAIN = frozenset({str, int, float, bool, type(None)})

#: Rows a list of rows hands the C encoder per call, which keeps memory flat.
_ROWS_PER_CALL = 256


@functools.cache
def _c_encoder(level: int):
    """json's C encoder with sorted keys whose item separator starts a line at
    indent ``level``, where the items of a container nested that deep sit."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + "  " * level, True, False, True)


def _c_text(obj, level: int) -> str:
    """json's indented text, at indent ``level``, of a plain value or of a
    container of plain values, in one C call."""
    text = "".join(_c_encoder(level + 1)(obj, 0))
    if len(text) > 2 and text[0] in "[{":
        text = f"{text[0]}\n{'  ' * (level + 1)}{text[1:-1]}\n{'  ' * level}{text[-1]}"
    return text


def _row_brackets(rows) -> str | None:
    """"{}" or "[]" when every row is a non-empty dict, or every row a non-empty
    list or tuple, of plain values; else None."""
    if type(rows[0]) is dict:
        rows_ok = all(type(r) is dict and r and _PLAIN.issuperset(map(type, r.values()))
                      for r in rows)
        return "{}" if rows_ok else None
    rows_ok = all(type(r) in (list, tuple) and r and _PLAIN.issuperset(map(type, r))
                  for r in rows)
    return "[]" if rows_ok else None


def _rows_text(rows, brackets: str, level: int) -> str:
    """json's indented text, at indent ``level``, of a list of rows that
    :func:`_row_brackets` passes, ``_ROWS_PER_CALL`` rows per C call.

    Each call writes its rows at their items' indent; one ``str.replace``
    then moves the separators between rows up a level. A row holds no
    newline (json escapes it in a string) and no nested bracket, so close +
    separator + open marks a row boundary only.
    """
    opening, closing = brackets
    pad, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    encode = _c_encoder(level + 2)
    boundary, moved = f"{closing},{inner}{opening}", f"{pad}{closing},{pad}{opening}{inner}"
    chunks = []
    for start in range(0, len(rows), _ROWS_PER_CALL):
        text = "".join(encode(rows[start:start + _ROWS_PER_CALL], 0))
        chunks.append(f"{opening}{inner}{text[2:-2].replace(boundary, moved)}{pad}{closing}")
    return f"[{pad}{(',' + pad).join(chunks)}\n{'  ' * level}]"


def _encode(obj, level: int, out: list) -> None:
    """Append json's indented text of ``obj``, which opens at indent ``level``.

    Plain values and containers of them go to :func:`_c_text`, lists of rows
    to :func:`_rows_text`; anything else recurses here, keys sorted and
    converted as json does it.
    """
    is_dict = isinstance(obj, dict)
    if (not (is_dict or isinstance(obj, (list, tuple))) or not obj
            or _PLAIN.issuperset(map(type, obj.values() if is_dict else obj))):
        out.append(_c_text(obj, level))
        return
    brackets = None if is_dict else _row_brackets(obj)
    if brackets:
        out.append(_rows_text(obj, brackets, level))
        return
    pad = "\n" + "  " * (level + 1)
    out.append("{" if is_dict else "[")
    separator = pad
    for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
        if is_dict:
            if not isinstance(key, str):  # json's text for a number, bool or None key
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _c_text(key, 0)
            separator += json.encoder.encode_basestring_ascii(key) + ": "
        out.append(separator)
        _encode(value, level + 1, out)
        separator = "," + pad
    out.append("\n" + "  " * level + ("}" if is_dict else "]"))


#: json.dumps's own C encoder, which json.dumps builds anew on every call.
_LINE_ENCODER = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ": ", ", ", False, False, True)


def json_line(obj) -> str:
    """``json.dumps(obj) + "\\n"``: one line of a JSONL file."""
    return "".join(_LINE_ENCODER(obj, 0)) + "\n"


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    The bytes are ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, whose
    ``indent`` sends json to its Python encoder; :func:`_encode` builds them
    from its C encoder instead.
    """
    out = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


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
