"""How artifacts are written (atomically, in one JSON and one CSV format) and how JSON read back is checked.

Every file is written to a temporary file beside its target and renamed over
it, so a failed write never leaves a partial file. JSON is indented by 2 with
sorted keys and a trailing newline, and never holds ``NaN`` or ``Infinity``.
CSV is ``csv.writer`` rows with CRLF line ends; callers ``repr`` their floats.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections.abc import Callable
from numbers import Integral, Real
from pathlib import Path

__all__ = ["FormatError", "check_fields", "list_of", "write_atomic", "write_json", "write_csv"]


class FormatError(ValueError):
    """A file that was read but does not hold a well-formed artifact."""


def _number(rule: str, in_range: Callable, integer: bool = False, null: bool = False):
    """A row for a finite number (an integer < 2**63, or also null, if asked) in range; bools are not numbers."""
    return (f"{'null or ' * null}{'an integer' if integer else 'a finite number'} {rule}".rstrip()
            + " and < 2**63" * integer,
            lambda v: (null and v is None) or (
                isinstance(v, Integral if integer else Real) and not isinstance(v, bool)
                and abs(v) <= (2**63 - 1 if integer else sys.float_info.max) and in_range(v)))


def _one_of(choices: tuple):
    return f"one of {choices}", lambda v: isinstance(v, str) and v in choices


def list_of(items: str, row: tuple):  # ``items`` names what passes ``row``
    return f"a list of {items}", lambda v: isinstance(v, list) and all(map(row[1], v))


_POSITIVE = _number("> 0", lambda v: v > 0)
_COUNT = _number(">= 0", lambda v: v >= 0, integer=True)
_AT_LEAST_ONE = _number(">= 1", lambda v: v >= 1, integer=True)
_BOOL = ("a JSON boolean", lambda v: isinstance(v, bool))
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))


def check_fields(rules: dict[str, tuple[str, Callable]], doc, where: str = "", error: type = ValueError) -> None:
    """Check the JSON object ``doc`` against a table of key -> (rule text, check); keys
    without a row are not looked at. The first failure raises
    ``error("<where><key>: must be <rule>, got <value>")``."""
    if not isinstance(doc, dict):
        raise error(f"{where.rstrip('.') or 'top level'}: must be {_OBJECT[0]}, got {doc!r}")
    for key, (rule, ok) in rules.items():
        if not (key in doc and ok(doc[key])):
            raise error(f"{where}{key}: must be {rule}, got {repr(doc[key]) if key in doc else 'no value'}")


def write_atomic(path: str | Path, write, binary: bool = False) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it
    over ``path``, so a failed write never leaves a partial file there."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """``obj`` as JSON; a non-finite float raises ``ValueError`` before any file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


def write_csv(path: str | Path, header: list, rows) -> None:
    """A header row, then ``rows`` (any iterable of rows)."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    write_atomic(path, write)
