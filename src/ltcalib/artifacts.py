"""How artifacts are written: atomically, in one JSON and one CSV format.

Every file is written to a temporary file beside its target and renamed over
it, so a failed write never leaves a partial file. JSON is indented by 2 with
sorted keys and a trailing newline, and never holds ``NaN`` or ``Infinity``.
CSV is ``csv.writer`` rows with CRLF line ends; callers ``repr`` their floats.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

__all__ = ["FormatError", "write_atomic", "write_json", "write_csv"]


class FormatError(ValueError):
    """A file that was read but does not hold a well-formed artifact."""


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
