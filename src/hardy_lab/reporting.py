"""Structured check results and deterministic file output.

Every verification routine in this package returns a VerificationReport so
that callers, the command line tool and the test-suite all read results the
same way.  Serialization is deterministic: keys are sorted, floats use
repr-style shortest form, nothing records wall-clock time, and files are
written atomically.  Rerunning a command with identical inputs must produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParameterError

STATUSES = ("pass", "fail", "inconclusive", "hypothesis-not-met")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidParameterError(f"non-finite value {value!r} in report")
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:
        return _jsonable(float(value))
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"value {value!r} of type {type(value).__name__} cannot go in a report"
        ) from None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    status is "pass" or "fail" when the check ran, "hypothesis-not-met" when
    the model is outside the check's assumptions, and "inconclusive" when the
    stored data cannot decide.  residuals holds the numbers the verdict was
    based on; params records the configuration so a report is reproducible
    on its own.
    """

    check: str
    status: str
    residuals: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InvalidParameterError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )
        for key, value in self.residuals.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidParameterError(f"residual {key!r} must be a number")
            if not math.isfinite(value):
                raise InvalidParameterError(f"residual {key!r} is not finite")
        object.__setattr__(self, "notes", tuple(self.notes))

    def to_dict(self):
        return {
            "check": self.check,
            "status": self.status,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "params": _jsonable(self.params),
            "notes": list(self.notes),
        }

    def summary_line(self):
        shown = ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(self.residuals.items())
        )
        tail = f"  [{shown}]" if shown else ""
        return f"{self.status.upper():18s} {self.check}{tail}"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(obj):
    """Serialize a report, a list of reports, or any JSON-able tree to text.

    Rejects NaN and infinity outright; deterministic key order.
    """
    def convert(x):
        if isinstance(x, VerificationReport):
            return x.to_dict()
        if isinstance(x, (list, tuple)):
            return [convert(v) for v in x]
        if isinstance(x, dict):
            return {str(k): convert(v) for k, v in x.items()}
        return _jsonable(x)

    return json.dumps(convert(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def csv_text(header, rows):
    """Comma-separated table with floats at full precision."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise InvalidParameterError(
                f"row has {len(row)} cells, header has {len(header)}"
            )
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"
