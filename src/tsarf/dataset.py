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
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import DataError, UsageError

#: Lines parsed at a time, which bounds the strings held at once.
_BLOCK_LINES = 8192


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
    line.
    """
    blocks = []
    lines_before = 0
    source = iter(source)
    while lines := list(islice(source, _BLOCK_LINES)):
        # leading comment and blank lines, such as a file's header, would
        # otherwise send the whole block down the line-by-line path below
        skip = 0
        while skip < len(lines) and lines[skip].lstrip()[:1] in ("", "#"):
            skip += 1
        del lines[:skip]
        lines_before += skip
        try:
            # float() pads a numeral only with whitespace that str.strip()
            # removes, so a block that parses whole holds data lines only
            arr = np.fromiter(map(float, lines), float, len(lines))
        except ValueError:
            arr = None
        # nan fails both comparisons
        if arr is None or not np.all((arr >= 0) & (arr < np.inf)):
            arr = _checked_times(lines, lines_before)
        lines_before += len(lines)
        blocks.append(arr)
    arr = np.concatenate(blocks) if blocks else np.empty(0)
    if not arr.size:
        raise DataError("no failure times in input")
    required_sorting = bool(np.any(np.diff(arr) < 0))
    if required_sorting:
        arr = np.sort(arr)
    return GrowthCurve(arr, np.arange(1, arr.size + 1, dtype=float)), required_sorting


def _checked_times(lines: list[str], lines_before: int) -> np.ndarray:
    """Parse a block that follows file line ``lines_before``, raising on its first bad line."""
    values = []
    for lineno, raw in enumerate(lines, start=lines_before + 1):
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
    header_lineno = 1
    for line in source:
        if (s := line.strip()) and s[0] != "#":
            break
        header_lineno += 1
    else:
        raise DataError("empty CSV input")
    reader = csv.reader(chain([line], source))
    header = next(reader)
    if [h.strip().lower() for h in header] != ["time", "count"]:
        raise DataError(f"expected CSV header 'time,count', got {','.join(header)!r}")
    times: list[float] = []
    counts: list[float] = []
    for row in reader:
        lineno = header_lineno - 1 + reader.line_num  # a quoted field may span lines
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


def read_curve_file(path: str | Path) -> tuple[GrowthCurve, dict]:
    """Load a dataset file in either format, sniffing by header.

    Returns the curve plus a provenance dict (path, format, n, sort flag)
    suitable for embedding in run reports. The recorded path is the path's
    file-system bytes read as UTF-8, so it does not depend on the locale.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark that "CSV UTF-8" exports begin with
        with path.open(encoding="utf-8-sig") as handle:
            # only the lines up to the first data line are read to sniff it
            first = next((s for line in handle if (s := line.strip()) and s[0] != "#"), "")
            handle.seek(0)
            if first.lower().replace(" ", "").startswith("time,count"):
                curve, fmt, required_sorting = load_growth_curve_csv(handle), "curve", False
            else:
                (curve, required_sorting), fmt = load_failure_times(handle), "times"
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
