"""Small shared I/O helpers: atomic writes, digests, JSON files, and the
``kind``-tagged dict form of result types."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import ClassVar

from .errors import ValidationError


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class Tagged:
    """Mixin for result dataclasses: a ``kind`` tag and a plain-dict form.

    ``to_dict`` emits ``kind`` plus every field. ``from_dict`` rejects a
    different ``kind``, takes a missing one as its own (payloads written
    before results carried the tag) and ignores keys that are not fields.
    """

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, obj: dict):
        kind = obj.get("kind", cls.kind)
        if kind != cls.kind:
            raise ValidationError(f"expected a {cls.kind!r} result, got {kind!r}")
        return cls(**{f.name: obj[f.name] for f in dataclasses.fields(cls) if f.name in obj})
