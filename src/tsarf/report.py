"""Run reports, curve tables, and sweep tables.

A run report is a plain JSON document with stable keys (documented in the
README) so runs can be diffed and reloaded. Curve tables are CSV with one
predicted column per model and a partition flag, ready for any plotting tool.
Every file is written as UTF-8 whatever the locale, and the surrogate escapes
that stand for a path's undecodable bytes are written back as those bytes.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import SplitCurve
from .pipeline import TsarfModel
from .srgm import SrgmFit, SrgmKind

#: Every model name with its display label, in the canonical order of table
#: rows, report entries and curve columns.
MODEL_LABELS = {"tsarf": "TSARF", "dss": "DSS", "go": "GO", "weibull": "Weibull"}


def order_models(models: list[str] | tuple[str, ...]) -> list[str]:
    """Sort model names into the canonical table order."""
    return [m for m in MODEL_LABELS if m in models]


def tsarf_entry(model: TsarfModel) -> dict:
    """Report fields of a fitted TSARF model: the predicted line over raw
    time, and the stages' lines over time from the first training time."""
    b0, b1 = model.coefficients.tolist()
    return {
        "k": model.history.k,
        "d": model.d_used,
        "d_auto": model.d_auto,
        "d_fallback": model.d_fallback,
        "windows": model.history.W,
        "points_dropped": model.history.n_dropped,
        "coefficients": [b0 - model.origin * b1, b1],
        "raw_forecast": model.raw_forecast.tolist(),
        "corrected_forecast": model.corrected_forecast.tolist(),
        "epsilon": model.epsilon.tolist(),
        "coefficient_history": model.history.matrix.tolist(),
        "stage2_trend": model.trend.tolist(),
        "ma_candidates": [[d, mse if math.isfinite(mse) else None] for d, mse in model.ma_candidates],
    }


def srgm_entry(fit: SrgmFit) -> dict:
    """Report fields of a fitted NHPP baseline; ``c`` only for Weibull."""
    entry = {
        "a": fit.params.a,
        "b": fit.params.b,
        "sse": fit.sse,
        "iterations": fit.iterations,
        "restarts": fit.restarts,
    }
    if fit.kind is SrgmKind.WEIBULL:
        entry["c"] = fit.params.c
    return entry


def run_report(meta: dict, parts: SplitCurve, entries: list[dict]) -> dict:
    """The run report document: dataset provenance, split, model entries and version."""
    split = {"train_n": parts.train.n, "test_n": parts.test.n, "policy": parts.policy}
    return {"dataset": meta, "split": split, "models": entries, "version": __version__}


def write_report(report: dict, path: str | Path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")


def _render_table(rows: list[tuple[str, ...] | list[str]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def render_metrics_table(entries: list[dict]) -> str:
    """One row per report entry; a model that failed reads ``error``, a vanished metric ``n/a``."""
    rows = [("Model", "PMSE", "PRR", "PP")]
    for entry in entries:
        if entry["status"] == "ok":
            metrics = entry["metrics"]
            cells = ["n/a" if metrics[key] is None else f"{metrics[key]:.6g}" for key in ("pmse", "prr", "pp")]
        else:
            cells = ["error"] * 3
        rows.append((MODEL_LABELS[entry["model"]], *cells))
    return _render_table(rows)


#: Rows rendered at a time, which bounds memory: a 10^5-row curve with one
#: model peaks at 3.2 MiB under tracemalloc, and at 43 MiB as one block.
_CSV_BLOCK_ROWS = 8192

#: The decimal exponents e the kernel renders, those that ``.10g`` prints
#: without an exponent: there |x| is scaled to ten digits by an exact 10^(9 - e).
_E_MIN, _E_MAX = -4, 9
#: A scaled value this close to a rounding tie goes to ``%``: the scaling
#: rounds once, so it lies within 2^-20 of the exact product.
_TIE_MARGIN = 0.5 - 2.0**-17
#: Words of NUL-padded text per cell. Bytes 0-7: a separator, the sign and up
#: to five lead characters ("0.000"); bytes 8-27: ten digits, each followed by
#: a byte for the decimal point; bytes 28-31: NULs; bytes 32-39: the row's
#: end, in its last cell.
_CELL_WORDS = 5


@functools.cache
def _g10_tables() -> tuple[np.ndarray, ...]:
    """The kernel's lookup tables.

    ``mul``, indexed by i = e + 1 - _E_MIN, scales |x| to ten integer digits;
    both ends are NaN and stand for every e out of range. ``digits[v]``
    spells v < 10^4 as four digits two bytes apart, with their count of
    trailing zeros in the top byte; ``digits2`` does the same for v < 100.
    ``adds`` holds the cells' words and ``masks`` the masks of digit words 1-3
    for key = 10·i + trailing zeros of the ten digits: ``masks`` keeps the
    digits shown, ``adds`` puts in the lead and the point.
    """
    e = np.arange(_E_MIN - 1, _E_MAX + 2)
    mul = np.full(e.shape, np.nan)
    mul[1:-1] = 10 ** (9 - e[1:-1])  # exact: int64 powers of ten below 2^53

    # v = 1000·d0 + 100·d1 + 10·d2 + d3 on four broadcast axes
    d = np.ix_(*[np.arange(10, dtype=np.int64)] * 4)
    z0, z1, z2, z3 = ((digit == 0).astype(np.int64) for digit in d)
    trailing = z3 * (1 + z2 * (1 + z1 * (1 + z0)))
    digits = sum((digit + ord("0")) << 16 * j for j, digit in enumerate(d)) | trailing << 56
    digits2 = digits[0, 0] >> 32 & 0xFF00FF | np.minimum(trailing[0, 0], 2) << 56
    digits, digits2 = digits.ravel(), digits2.ravel()

    e = e[:, None]
    # the point follows digit `point`, unless every later digit is a trailing zero
    point = np.maximum(e, 0)
    last = np.maximum(point, 9 - np.arange(10))  # the last digit shown
    masks = np.zeros((*last.shape, 8 * _CELL_WORDS), np.uint8)
    masks[..., 8:28:2] = np.where(np.arange(10) <= last[..., None], 0xFF, 0)
    adds = np.zeros_like(masks)
    dot = (last > point) & (e >= 0)
    adds[..., 9:29:2] = np.where((np.arange(10) == point[..., None]) & dot[..., None], ord("."), 0)
    # "0." and then -e - 1 zeros before the digits of 1e-4 <= |x| < 1
    lead = np.where(np.arange(5) < np.where(e < 0, 1 - e, 0), ord("0"), 0)
    lead[:, 1] = np.where(lead[:, 1], ord("."), 0)
    adds[..., 2:7] = lead[:, None]
    masks, adds = (a.view("<i8").reshape(-1, _CELL_WORDS) for a in (masks, adds))
    tables = mul, digits, digits2, *(masks[:, j].copy() for j in (1, 2, 3)), adds
    for table in tables:
        table.flags.writeable = False  # every call shares them
    return tables


class _TextBlock:
    """A reusable block of up to ``rows`` × ``columns`` ``.10g`` cells.

    ``values`` takes the numbers; ``render`` writes the ``f"{x:.10g}"`` text
    of each into ``cells`` as ``_CELL_WORDS`` words of NUL-padded text, the
    caller adds separators and row ends, and ``text`` drops the NULs. Scratch
    arrays live as long as the block, so rendering many blocks touches no new
    memory.
    """

    def __init__(self, rows: int, columns: int) -> None:
        self.values = np.empty((rows, columns))
        # a bytearray, so that ``text`` translates it without a copy
        self._buffer = bytearray(8 * _CELL_WORDS * rows * columns)
        self.words = np.frombuffer(self._buffer, "<i8").reshape(rows, _CELL_WORDS * columns)
        self.cells = self.words.reshape(rows, columns, _CELL_WORDS)
        #: the byte of each cell's separator
        self.separators = self.words.view(np.uint8)[:, :: 8 * _CELL_WORDS]
        self._float = np.empty((3, rows, columns))
        self._int = np.empty((3, rows, columns), np.int64)
        self._bool = np.empty((2, rows, columns), bool)

    def render(self, n: int) -> None:
        """Render ``values[:n]`` into ``cells[:n]``, and blank the rows after.

        Each value is scaled by the exact power of ten that its exponent guess
        ``floor(log10|x|)`` calls for, and rounded to ten digits. A value goes
        to ``%`` unless the scaled m satisfies 1e9 <= m, rint(m) < 1e10 and
        |m − rint(m)| < _TIE_MARGIN, with the guess in range: then rint(m) is
        the correctly rounded digits whatever the guess was. Zero, inf, NaN
        and every value that ``.10g`` prints with an exponent never pass.
        """
        mul, digits, digits2, *masks, adds = _g10_tables()
        x, cells = self.values[:n], self.cells[:n]
        a, m, r = self._float[:, :n]
        i, whole, temp = self._int[:, :n]
        ok, b = self._bool[:, :n]
        np.abs(x, out=a)
        with np.errstate(all="ignore"):
            np.log10(a, out=m)
            np.floor(m, out=m)
            np.fmax(m, _E_MIN - 1, out=m)  # NaN too
            np.fmin(m, _E_MAX + 1, out=m)
            m -= _E_MIN - 1
            i[...] = m
            np.take(mul, i, out=m, mode="clip")
            m *= a
            np.rint(m, out=r)
            np.less(np.abs(np.subtract(m, r, out=a), out=a), _TIE_MARGIN, out=ok)
            ok &= np.greater_equal(m, 1e9, out=b)
            ok &= np.less(r, 1e10, out=b)
            # the rows that fail hold garbage from here on; mode="clip" keeps
            # their indices in bounds until they are rewritten below
            whole[...] = r
        # the ten digits as 4 + 4 + 2, in the float scratch, which is spent now
        g0, g1, g2 = self._float[:, :n].view(np.int64)
        np.floor_divide(whole, 100, out=g1)
        np.subtract(whole, np.multiply(g1, 100, out=g2), out=g2)
        np.floor_divide(g1, 10_000, out=g0)
        g1 -= np.multiply(g0, 10_000, out=temp)
        # the groups' digit words, each written over an array that is spent
        u = g1, g2, whole
        np.take(digits2, g2, out=u[2], mode="clip")
        np.take(digits, g1, out=u[1], mode="clip")
        np.take(digits, g0, out=u[0], mode="clip")
        # trailing zeros: of the last group, then of the others while a group is all zeros
        tz = g0
        np.right_shift(u[0], 56, out=tz)
        np.copyto(tz, 0, where=np.not_equal(np.right_shift(u[1], 56, out=temp), 4, out=b))
        tz += temp
        np.copyto(tz, 0, where=np.not_equal(np.right_shift(u[2], 56, out=temp), 2, out=b))
        tz += temp
        key = np.multiply(i, 10, out=i)
        key += tz
        np.take(adds, key, axis=0, out=cells, mode="clip")
        for word, digit, mask in zip((1, 2, 3), u, masks):
            digit &= np.take(mask, key, out=temp, mode="clip")
            cells[..., word] |= digit
        signs = self.words.view(np.uint8)[:n, 1 :: 8 * _CELL_WORDS]
        np.copyto(signs, ord("-"), where=np.signbit(x, out=b))
        rows, cols = np.nonzero(~ok)
        if rows.size:
            text = b"".join(b"\0" + (b"%.10g" % v).ljust(39, b"\0") for v in x[rows, cols].tolist())
            cells[rows, cols] = np.frombuffer(text, "<i8").reshape(-1, _CELL_WORDS)
        self.words[n:] = 0

    def text(self) -> bytearray:
        """The rendered rows with their NULs dropped."""
        return self._buffer.translate(None, b"\0")


def _word(text: bytes) -> np.int64:
    """Up to 8 bytes of text as one word."""
    return np.frombuffer(text.ljust(8, b"\0"), "<i8")[0]


def write_curves_csv(
    path: str | Path,
    times: np.ndarray,
    actual: np.ndarray,
    predictions: dict[str, np.ndarray],
    train_n: int,
) -> None:
    """Emit header ``t,actual,<model>...,partition``; NaN cells are left blank.

    Rows end in ``\\r\\n``, as ``csv.writer`` writes them; no cell holds a
    comma or a quote, so cells are joined without quoting. A prediction that
    is not finite leaves only its separator; ``t`` and ``actual`` always print.
    """
    models = order_models(list(predictions))
    columns = (times, actual, *(predictions[m] for m in models))
    block = _TextBlock(min(len(times), _CSV_BLOCK_ROWS), len(columns))
    train, test = _word(b",train\r\n"), _word(b",test\r\n")
    with open(path, "wb") as handle:
        header = ",".join(["t", "actual", *models, "partition"]) + "\r\n"
        handle.write(header.encode("utf-8", "surrogateescape"))
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            n = min(len(times) - start, _CSV_BLOCK_ROWS)
            for j, column in enumerate(columns):
                block.values[:n, j] = column[start:start + n]
            block.render(n)
            block.cells[:n, 2:][~np.isfinite(block.values[:n, 2:])] = 0
            block.separators[:n, 1:] = ord(",")
            split = min(max(train_n - start, 0), n)
            block.cells[:split, -1, -1] = train
            block.cells[split:n, -1, -1] = test
            handle.write(block.text())


def write_failure_times(path: str | Path, header: list[str], times: np.ndarray) -> None:
    """Emit a format-A file: ``# `` header lines, then one ``.10g`` time per line."""
    block = _TextBlock(min(len(times), _CSV_BLOCK_ROWS), 1)
    with open(path, "wb") as handle:
        handle.write("".join(f"# {line}\n" for line in header).encode("utf-8", "surrogateescape"))
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            n = min(len(times) - start, _CSV_BLOCK_ROWS)
            block.values[:n, 0] = times[start:start + n]
            block.render(n)
            block.cells[:n, 0, -1] = _word(b"\n")
            handle.write(block.text())


def write_sweep_csv(path: str | Path, value_label: str, dataset_names: list[str], rows: list[list[str]]) -> None:
    """Emit the header, then one formatted row per swept value (failed cells read ``error``)."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([value_label, *dataset_names])
        writer.writerows(rows)


def render_sweep_table(value_label: str, dataset_names: list[str], rows: list[list[str]]) -> str:
    return _render_table([(value_label.capitalize(), *dataset_names), *rows])
