"""TSARF in exact arithmetic: an oracle for the float program.

Every float is a dyadic rational that ``Decimal`` holds exactly, and at
90 digits the stages below round nowhere that matters, so each function gives
the exact value for the float inputs it is handed. Stage 1 fits each window,
stage 2 extrapolates each coefficient over the window index, stage 3 adds
the last window's residual and blends with the mean of the d rows before the
last, and d minimises the MSE on the last training window with the stages run
on the windows before it.
"""

from decimal import Decimal, localcontext

DIGITS = 90


def exact_line(x, y):
    """(b0, b1) of the least-squares line through the points, or None when
    every x is equal. Call inside a 90-digit context, on Decimals."""
    n = len(x)
    x_mean, y_mean = sum(x) / n, sum(y) / n
    sxx = sum((a - x_mean) ** 2 for a in x)
    if sxx == 0:
        return None
    b1 = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / sxx
    return y_mean - b1 * x_mean, b1


def _predicted_line(rows, d):
    index = [Decimal(w) for w in range(1, len(rows) + 1)]
    line = []
    for j in (0, 1):
        column = [row[j] for row in rows]
        b0, b1 = exact_line(index, column)
        raw = b0 + b1 * (len(rows) + 1)
        epsilon = column[-1] - (b0 + b1 * len(rows))
        moving_average = sum(column[-1 - d:-1]) / d
        line.append((raw + epsilon + moving_average) / 2)
    return line


def _mse(line, times, counts):
    return sum((line[0] + line[1] * t - y) ** 2 for t, y in zip(times, counts)) / len(times)


def exact_tsarf(train_times, train_counts, test_times, test_counts, k, d=None):
    """The exact (d, holdout MSE by d, test PMSE) of TSARF at window size k,
    with d chosen (least MSE, the smallest d on a tie) when None; or None
    when some window's times are all equal."""
    with localcontext() as context:
        context.prec = DIGITS
        t, y, t_test, y_test = (
            [Decimal(float(v)) for v in a] for a in (train_times, train_counts, test_times, test_counts)
        )
        rows = [exact_line(t[s:s + k], y[s:s + k]) for s in range(len(t) % k, len(t), k)]
        if None in rows:
            return None
        mses = {m: _mse(_predicted_line(rows[:-1], m), t[-k:], y[-k:]) for m in range(1, len(rows) - 1)}
        if d is None:
            d = min(mses, key=mses.get) if mses else 1
        return d, mses, _mse(_predicted_line(rows, d), t_test, y_test)
