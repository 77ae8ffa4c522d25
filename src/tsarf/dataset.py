"""Failure-log ingestion, growth-curve construction, and train/test splitting.

Two on-disk formats are understood:

* format A -- plain text, one failure time per line, ``#`` starts a comment;
* format B -- CSV with header ``time,count`` holding an already-cumulative
  curve (counts must be strictly increasing).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import DataError, UsageError

#: Suffixes that numpy's path opener decompresses; a file named so is left to
#: the checked per-line pass, which reads every file as text.
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".lzma", ".xz")


@dataclass(frozen=True)
class GrowthCurve:
    """Cumulative defect counts over time.

    Counts are integer-valued at ingestion but stored as floats so they feed
    the regression stages directly.
    """

    times: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "counts", counts)
        if times.ndim != 1 or counts.ndim != 1:
            raise DataError("growth curve arrays must be one-dimensional")
        if times.size != counts.size:
            raise DataError("times and counts differ in length")
        if times.size == 0:
            raise DataError("growth curve is empty")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(counts))):
            raise DataError("growth curve contains non-finite values")
        if np.any(np.diff(times) < 0):
            raise DataError("growth curve times must be nondecreasing")

    @property
    def n(self) -> int:
        return int(self.times.size)

    def slice(self, start: int, stop: int) -> "GrowthCurve":
        return GrowthCurve(self.times[start:stop], self.counts[start:stop])


@dataclass(frozen=True)
class SplitCurve:
    """Train/test partition of a growth curve; concatenation restores the original."""

    train: GrowthCurve
    test: GrowthCurve
    policy: str


def load_failure_times(source: TextIO | Iterable[str]) -> tuple[GrowthCurve, bool]:
    """Parse newline-delimited failure times into a growth curve.

    Point i of the curve is (i-th smallest time, i), i = 1..n. Blank lines and
    lines starting with ``#`` are ignored. Unsorted input is sorted, and the
    returned flag says whether it had to be; negative, non-finite, or
    non-numeric entries are rejected with the number of the first offending
    line. The lines are held whole while numpy's C reader parses them.
    """
    lines = list(source)
    skip, first = _header(lines)
    # numpy warns on input with no data line; the checked pass reports it
    times = _c_read_times(lines, skip) if first else None
    return _times_curve(_checked_times(lines) if times is None else times)


def _header(lines: Iterable[str]) -> tuple[int, str]:
    """The number of comment and blank lines before the first data line, and that line ("" if none).

    An iterator is read up to and including the first data line only.
    """
    skip = 0
    for line in lines:
        if (s := line.strip()) and s[0] != "#":
            return skip, line
        skip += 1
    return skip, ""


def _times_curve(times: np.ndarray) -> tuple[GrowthCurve, bool]:
    """The growth curve of parsed failure times, and whether they had to be sorted."""
    if not times.size:
        raise DataError("no failure times in input")
    required_sorting = bool(np.any(np.diff(times) < 0))
    if required_sorting:
        times = np.sort(times)
    return GrowthCurve(times, np.arange(1, times.size + 1, dtype=float)), required_sorting


def _checked_times(lines: Iterable[str]) -> np.ndarray:
    """The failure times of format-A lines, numbered from 1, raising on the first bad line."""
    values = []
    for lineno, raw in enumerate(lines, start=1):
        if not (text := raw.strip()) or text[0] == "#":
            continue
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric failure time {text!r}") from None
        if not math.isfinite(value):
            raise DataError(f"line {lineno}: non-finite failure time {text!r}")
        if value < 0:
            raise DataError(f"line {lineno}: negative failure time {value}")
        values.append(value)
    return np.array(values, float)


def load_growth_curve_csv(source: TextIO | Iterable[str]) -> GrowthCurve:
    """Parse a format-B CSV: header ``time,count``, counts strictly increasing.

    Blank lines and lines starting with ``#`` before the header are skipped.
    """
    source = iter(source)
    skip, line = _header(source)
    if not line:
        raise DataError("empty CSV input")
    reader = csv.reader(chain([line], source))
    header = next(reader)
    if [h.strip().lower() for h in header] != ["time", "count"]:
        raise DataError(f"expected CSV header 'time,count', got {','.join(header)!r}")
    times: list[float] = []
    counts: list[float] = []
    for row in reader:
        lineno = skip + reader.line_num  # a quoted field may span lines
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            t, c = float(row[0]), float(row[1])
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric entry in {row!r}") from None
        if not (np.isfinite(t) and np.isfinite(c)):
            raise DataError(f"line {lineno}: non-finite entry")
        if t < 0:
            raise DataError(f"line {lineno}: negative time {t}")
        if times and t < times[-1]:
            raise DataError(f"line {lineno}: time column must be nondecreasing")
        if counts and c <= counts[-1]:
            raise DataError(f"line {lineno}: count column must be strictly increasing")
        times.append(t)
        counts.append(c)
    if not times:
        raise DataError("CSV holds no data rows")
    return GrowthCurve(np.asarray(times), np.asarray(counts))


def _c_read_times(source: Path | list[str], skip: int) -> np.ndarray | None:
    """The failure times of a format-A file or list of lines, read by numpy's C text reader.

    ``skip`` counts the comment and blank lines before the first data line.
    numpy parses each field with ``PyOS_string_to_double`` on its ASCII text,
    as ``float()`` does, but accepts less: no underscores, non-ASCII digits,
    NUL bytes, comments or a line break inside a listed line. So input it
    reads whole, as one column of finite times >= 0, holds the times
    :func:`_checked_times` would return. Any other input gives None and is
    left to that pass, which names the first bad line.
    """
    if isinstance(source, Path) and source.suffix in _NUMPY_DECOMPRESSES:
        return None
    try:
        # comments=None keeps "2.0 # note" an error, and ndmin=2 keeps a
        # one-line "1.5 2.5" two columns rather than two times
        times = np.loadtxt(source, comments=None, skiprows=skip, ndmin=2, encoding="utf-8-sig")
    except ValueError:  # UnicodeDecodeError is one
        return None
    # nan fails both comparisons
    if times.shape[1] != 1 or not np.all((times >= 0) & (times < np.inf)):
        return None
    return times.ravel()


def read_curve_file(path: str | Path) -> tuple[GrowthCurve, dict]:
    """Load a dataset file in either format, sniffing by header.

    A format-A file is read by numpy's C text reader, and by a checked
    per-line pass when that reader turns it down; the times and messages are
    those :func:`load_failure_times` gives for the file's lines. Returns the
    curve plus a provenance dict (path, format, n, sort flag) suitable for
    embedding in run reports. The recorded path is the path's file-system
    bytes read as UTF-8, so it does not depend on the locale.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark that "CSV UTF-8" exports begin with
        with path.open(encoding="utf-8-sig") as handle:
            # only the lines up to the first data line are read to sniff it
            skip, first = _header(handle)
            handle.seek(0)
            if first.strip().lower().replace(" ", "").startswith("time,count"):
                curve, fmt, required_sorting = load_growth_curve_csv(handle), "curve", False
            else:
                # numpy warns on a file with no data line; the checked pass reports it
                times = _c_read_times(path, skip) if first else None
                curve, required_sorting = _times_curve(_checked_times(handle) if times is None else times)
                fmt = "times"
    except (OSError, UnicodeDecodeError) as exc:
        # strerror, as str(exc) repeats the path as a repr, which escapes undecodable bytes
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    meta = {
        "path": os.fsencode(path).decode("utf-8", "surrogateescape"),
        "format": fmt,
        "n": curve.n,
        "required_sorting": required_sorting,
    }
    return curve, meta


def split(
    curve: GrowthCurve, test_len: int | None = None, *, test_fraction: float | None = None, k: int | None = None
) -> SplitCurve:
    """Hold out the last points as the test partition, recording the policy used.

    The test length is ``test_len`` if given; else ``test_fraction`` of the
    points, rounded down and kept within 1 and n - 1; else the window size
    ``k``, so exactly one window is forecast; else :func:`auto_split_len`.
    """
    if test_len is not None:
        if test_fraction is not None:
            raise UsageError("give a test length or a test fraction, not both")
        policy = f"test_len={test_len}"
    elif test_fraction is not None:
        if not 0 < test_fraction < 1:
            raise UsageError(f"test fraction must lie in (0, 1), got {test_fraction}")
        test_len = min(max(int(test_fraction * curve.n), 1), curve.n - 1)
        policy = f"fraction={test_fraction} (test_len={test_len})"
    elif k is not None:
        test_len, policy = k, f"test_len=k={k}"
    else:
        test_len = auto_split_len(curve.n)
        policy = f"auto (test_len={test_len})"
    if not 0 < test_len < curve.n:
        raise UsageError(f"test length must satisfy 0 < test_len < {curve.n}, got {test_len}")
    cut = curve.n - test_len
    return SplitCurve(train=curve.slice(0, cut), test=curve.slice(cut, curve.n), policy=policy)


def auto_window_size(train_n: int) -> int:
    """Default window size: 10% of the training length, floored, at least 3."""
    return max(3, train_n // 10)


def auto_split_len(n: int) -> int:
    """Default test length: the auto window size, resolved jointly with the split.

    The default test length equals the window size, which tracks 10% of the
    training length, so k solves k = max(3, (n - k) // 10), with the smaller
    value, which keeps more data in training, where that map 2-cycles. That
    is max(3, n // 11), capped at n - 1: for k >= 3 a fixed point needs
    11k <= n < 11k + 10, so it is n // 11 unless n = 10 (mod 11), where the
    map 2-cycles between n // 11 and n // 11 + 1; below n = 33 both give 3;
    and the map's slope is -1/10, so iterating it reaches that point or cycle.
    """
    if n < 2:
        raise DataError(f"curve with {n} point{'' if n == 1 else 's'} cannot be split")
    return min(max(3, n // 11), n - 1)
