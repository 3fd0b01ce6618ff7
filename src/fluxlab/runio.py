"""Run configuration files and deterministic artifact output.

Config files are flat text with dotted keys, one ``key = value`` pair per
line; ``#`` starts a comment.  CSV artifacts use ',' separators, '.' decimal
points, and 17 significant digits; JSON artifacts are sorted-key indented
strict JSON, with null for a non-finite number.
All files are written atomically (temp file + rename) so identical configs
reproduce identical artifact bytes.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional


class ConfigError(Exception):
    """Invalid or missing configuration; ``key`` names the first failing key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    """Parsed flat-key configuration with typed accessors."""

    raw: dict = field(default_factory=dict)
    path: Optional[str] = None
    consumed: set = field(default_factory=set)

    @staticmethod
    def parse(path) -> "RunConfig":
        raw = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"line {lineno}",
                                      f"expected 'key = value', got {stripped!r}")
                key, value = stripped.split("=", 1)
                key = key.strip()
                if not key:
                    raise ConfigError(f"line {lineno}", "empty key")
                if key in raw:
                    raise ConfigError(key, "duplicate key")
                raw[key] = value.strip()
        return RunConfig(raw=raw, path=str(path))

    def _get(self, key: str, default, required: bool):
        if key in self.raw:
            self.consumed.add(key)
            return self.raw[key]
        if required and default is None:
            raise ConfigError(key, "required key is missing")
        return None

    def get_str(self, key: str, default: Optional[str] = None,
                required: bool = False, choices=None) -> Optional[str]:
        value = self._get(key, default, required)
        value = default if value is None else value
        if value is not None and choices is not None and value not in choices:
            raise ConfigError(key, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def get_float(self, key: str, default: Optional[float] = None,
                  required: bool = False, above=None, at_least=None,
                  at_most=None) -> Optional[float]:
        """The key's number, refused unless it is finite and lies above
        ``above``, at least ``at_least`` and at most ``at_most`` (each bound
        that is given); a default is returned unchecked."""
        value = self._get(key, default, required)
        if value is None:
            return default
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(key, f"expected a number, got {value!r}") from None
        if not math.isfinite(value):
            raise ConfigError(key, f"expected a finite number, got {value!r}")
        return _within(key, value, above, at_least, at_most)

    def get_int(self, key: str, default: Optional[int] = None,
                required: bool = False, above=None, at_least=None,
                at_most=None) -> Optional[int]:
        """The key's integer, refused outside its bounds as in
        :meth:`get_float`; a default is returned unchecked."""
        value = self._get(key, default, required)
        if value is None:
            return default
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(key, f"expected an integer, got {value!r}") from None
        return _within(key, value, above, at_least, at_most)

    def echo(self) -> dict:
        return dict(sorted(self.raw.items()))


def _within(key: str, value, above, at_least, at_most):
    """``value``, or a ConfigError naming ``key`` if it breaks a given bound;
    the bounds read as the words of README's key table."""
    for word, bound, holds in (("above", above, operator.gt),
                               ("at least", at_least, operator.ge),
                               ("at most", at_most, operator.le)):
        if bound is not None and not holds(value, bound):
            raise ConfigError(key, f"must be {word} {bound:g}, got {value:g}")
    return value


def fmt17(x) -> str:
    """17-significant-digit decimal rendering used in every CSV cell."""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.17g}"


def _atomic_write(path, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_format(types) -> str:
    """%-format of one CSV row whose cells have ``types``, cell by cell equal to
    ``fmt17``: ``%s`` gives ``str(x)`` for strings and ints, and ``%.17g``
    gives ``f"{float(x):.17g}"`` for everything else, bools included."""
    return ",".join("%s" if issubclass(t, str) or
                    (issubclass(t, int) and not issubclass(t, bool)) else "%.17g"
                    for t in types)


def write_csv(path, header, rows) -> None:
    """Write rows of numbers/strings as CSV, atomically, 17 significant digits.

    Each row is formatted in one ``%`` operation, with a format built once
    per distinct tuple of cell types.
    """
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = _row_format(types)
        lines.append(fmt % row)
    _atomic_write(path, "\n".join(lines) + "\n")


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON (RFC 8259): NaN and infinities become null."""
    _atomic_write(path, json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def read_csv(path):
    """Read a fluxlab CSV back as (header, list of string rows)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
