import codecs
import io
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib import _datasource

from tsarf import (
    DataError,
    GrowthCurve,
    UsageError,
    auto_split_len,
    load_failure_times,
    load_growth_curve_csv,
    read_curve_file,
    split,
)
from tsarf import dataset
from tsarf.report import write_failure_times

finite_times = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=120,
)


def test_load_basic():
    curve, required_sorting = load_failure_times(io.StringIO("1.0\n2.5\n4.0"))
    assert curve.times.tolist() == [1.0, 2.5, 4.0]
    assert not required_sorting


def test_load_skips_comments_and_blanks():
    curve, _ = load_failure_times(io.StringIO("# header\n\n1.0\n  \n# mid\n2.0\n"))
    assert curve.times.tolist() == [1.0, 2.0]


def test_load_unsorted_sets_flag():
    curve, required_sorting = load_failure_times(io.StringIO("4.0\n1.0"))
    assert curve.times.tolist() == [1.0, 4.0]
    assert curve.counts.tolist() == [1.0, 2.0]
    assert required_sorting


def test_load_unsorted_logs_nothing(caplog):
    caplog.set_level(logging.DEBUG)
    _, required_sorting = load_failure_times(io.StringIO("4.0\n1.0"))
    assert required_sorting
    assert caplog.records == []


def test_load_negative_time_reports_line():
    with pytest.raises(DataError, match="line 2"):
        load_failure_times(io.StringIO("1.0\n-3.0"))


def test_load_non_numeric_reports_line():
    with pytest.raises(DataError, match="line 3"):
        load_failure_times(io.StringIO("1.0\n2.0\nbogus\n"))


def test_load_empty_is_error():
    with pytest.raises(DataError):
        load_failure_times(io.StringIO("# only comments\n\n"))


def test_load_rejects_non_finite():
    with pytest.raises(DataError, match="line 1"):
        load_failure_times(io.StringIO("inf\n"))


@given(finite_times)
def test_load_idempotent_under_reserialization(values):
    curve, _ = load_failure_times(io.StringIO("\n".join(repr(float(v)) for v in values)))
    again, required_sorting = load_failure_times(io.StringIO("\n".join(repr(float(v)) for v in curve.times)))
    assert np.array_equal(curve.times, again.times)
    assert not required_sorting


def test_load_counts_are_one_to_n():
    curve, _ = load_failure_times(io.StringIO("1.0\n2.5\n4.0\n"))
    assert curve.times.tolist() == [1.0, 2.5, 4.0]
    assert curve.counts.tolist() == [1.0, 2.0, 3.0]


def test_load_allows_tied_times():
    curve, required_sorting = load_failure_times(io.StringIO("2.0\n2.0\n"))
    assert curve.times.tolist() == [2.0, 2.0]
    assert curve.counts.tolist() == [1.0, 2.0]
    assert not required_sorting


def test_load_104_failures():
    times = np.sort(np.random.default_rng(0).uniform(0, 5000, size=104))
    curve, _ = load_failure_times(io.StringIO("\n".join(map(repr, times.tolist()))))
    assert np.array_equal(curve.times, times)
    assert curve.n == 104
    assert curve.counts[-1] == 104


def test_load_empty_input_is_error():
    with pytest.raises(DataError, match="^no failure times in input$"):
        load_failure_times(io.StringIO(""))


@given(finite_times)
def test_round_trip_counts_are_one_to_n(values):
    curve, _ = load_failure_times(io.StringIO("\n".join(map(repr, values))))
    assert np.array_equal(curve.counts, np.arange(1, len(values) + 1))


@pytest.mark.parametrize(
    ("times", "counts", "message"),
    [
        (np.ones((2, 2)), np.ones((2, 2)), "growth curve arrays must be one-dimensional"),
        ([1.0, 2.0], [1.0], "times and counts differ in length"),
        ([], [], "growth curve is empty"),
        ([1.0, np.nan], [1.0, 2.0], "growth curve contains non-finite values"),
        ([1.0, 2.0], [1.0, np.inf], "growth curve contains non-finite values"),
        ([2.0, 1.0], [1.0, 2.0], "growth curve times must be nondecreasing"),
    ],
)
def test_growth_curve_rejects_malformed_arrays(times, counts, message):
    with pytest.raises(DataError) as info:
        GrowthCurve(times, counts)
    assert str(info.value) == message


def test_split_definition(line_curve):
    parts = split(line_curve(20), 2)
    assert parts.train.n == 18
    assert parts.test.n == 2
    assert parts.test.counts.tolist() == [19.0, 20.0]


@pytest.mark.parametrize("bad", [0, 20, 25, -1])
def test_split_rejects_out_of_range(line_curve, bad):
    with pytest.raises(UsageError):
        split(line_curve(20), bad)


@given(st.integers(2, 200), st.data())
def test_split_partition_restores_curve(n, data):
    test_len = data.draw(st.integers(1, n - 1))
    counts = np.arange(1, n + 1, dtype=float)
    curve = GrowthCurve(np.sort(np.linspace(0, 50, n)), counts)
    parts = split(curve, test_len)
    assert parts.train.n + parts.test.n == curve.n
    assert np.array_equal(np.concatenate([parts.train.times, parts.test.times]), curve.times)
    assert np.array_equal(np.concatenate([parts.train.counts, parts.test.counts]), curve.counts)


@pytest.mark.parametrize(("kwargs", "test_n", "policy"), [
    ({"test_len": 4}, 4, "test_len=4"),
    ({"test_len": 4, "k": 6}, 4, "test_len=4"),
    ({"test_fraction": 0.25}, 10, "fraction=0.25 (test_len=10)"),
    ({"test_fraction": 0.25, "k": 6}, 10, "fraction=0.25 (test_len=10)"),
    ({"test_fraction": 0.001}, 1, "fraction=0.001 (test_len=1)"),
    ({"test_fraction": 0.999}, 39, "fraction=0.999 (test_len=39)"),
    ({"k": 6}, 6, "test_len=k=6"),
    ({}, 3, "auto (test_len=3)"),
])
def test_split_policy_and_precedence(line_curve, kwargs, test_n, policy):
    # test_len > test_fraction > k > auto
    parts = split(line_curve(40), **kwargs)
    assert (parts.train.n, parts.test.n, parts.policy) == (40 - test_n, test_n, policy)


def test_split_rejects_test_len_with_test_fraction(line_curve):
    with pytest.raises(UsageError, match="^give a test length or a test fraction, not both$"):
        split(line_curve(40), 4, test_fraction=0.25)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_split_rejects_fraction_outside_unit_interval(line_curve, fraction):
    with pytest.raises(UsageError) as exc:
        split(line_curve(40), test_fraction=fraction)
    assert str(exc.value) == f"test fraction must lie in (0, 1), got {fraction}"


@pytest.mark.parametrize(("n", "kwargs", "got"), [
    (20, {"test_len": 20}, 20),
    (20, {"k": 25}, 25),
    (1, {"test_fraction": 0.5}, 0),  # no fraction leaves a point in each partition
])
def test_split_out_of_range_message(n, kwargs, got):
    curve = GrowthCurve(np.arange(1.0, n + 1), np.arange(1.0, n + 1))
    with pytest.raises(UsageError) as exc:
        split(curve, **kwargs)
    assert str(exc.value) == f"test length must satisfy 0 < test_len < {n}, got {got}"


def fixed_point_split_len(n):
    """The joint split length by iteration: the fixed point of
    k -> max(3, (n - k) // 10), or the smaller value of its 2-cycle."""
    k = max(3, n // 10)
    seen = []
    while k not in seen:
        seen.append(k)
        k = max(3, (n - k) // 10)
    return min(min(seen[seen.index(k):]), n - 1)


def test_auto_split_len_matches_protocol():
    # joint fixed point of split length and 10%-of-training window size
    assert auto_split_len(104) == 9
    assert auto_split_len(54) == 4
    assert [auto_split_len(n) for n in range(2, 20001)] == [fixed_point_split_len(n) for n in range(2, 20001)]


def test_csv_curve_roundtrip():
    curve = load_growth_curve_csv(io.StringIO("time,count\n1.0,2\n2.0,5\n3.5,6\n"))
    assert curve.times.tolist() == [1.0, 2.0, 3.5]
    assert curve.counts.tolist() == [2.0, 5.0, 6.0]


def test_csv_requires_strictly_increasing_counts():
    with pytest.raises(DataError, match="strictly increasing"):
        load_growth_curve_csv(io.StringIO("time,count\n1.0,2\n2.0,2\n"))


def test_csv_requires_known_header():
    with pytest.raises(DataError, match="header"):
        load_growth_curve_csv(io.StringIO("t,n\n1.0,2\n"))


def test_csv_rejects_decreasing_times():
    with pytest.raises(DataError, match="nondecreasing"):
        load_growth_curve_csv(io.StringIO("time,count\n2.0,1\n1.0,2\n"))


def test_read_curve_file_sniffs_format(tmp_path):
    times_file = tmp_path / "a.txt"
    times_file.write_text("# demo\n1.0\n2.0\n")
    curve, meta = read_curve_file(times_file)
    assert meta["format"] == "times"
    assert curve.counts.tolist() == [1.0, 2.0]

    csv_file = tmp_path / "b.csv"
    csv_file.write_text("time,count\n1.0,3\n2.0,7\n")
    curve, meta = read_curve_file(csv_file)
    assert meta["format"] == "curve"
    assert curve.counts.tolist() == [3.0, 7.0]


@pytest.mark.parametrize(("text", "fmt"), [
    ("0.55\n1.25\n2.0\n", "times"),
    ("# caf\u00e9 log\n0.55\n1.25\n2.0\n", "times"),
    ("time,count\n0.55,1\n1.25,2\n2.0,3\n", "curve"),
])
def test_read_curve_file_skips_utf8_byte_order_mark(tmp_path, text, fmt):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    (curve, meta), (want, want_meta) = read_curve_file(marked), read_curve_file(plain)
    assert meta["format"] == want_meta["format"] == fmt
    assert curve.times.tolist() == want.times.tolist() == [0.55, 1.25, 2.0]
    assert curve.counts.tolist() == want.counts.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("header", ["time,count", "\tTime, Count "])
def test_read_curve_file_csv_after_leading_comment_lines(tmp_path, header):
    path = tmp_path / "export.csv"
    path.write_text(f"# exported from tracker\n\n  # 2 rows\n{header}\n1.0,3\n2.0,7\n")
    curve, meta = read_curve_file(path)
    assert meta["format"] == "curve"
    assert curve.times.tolist() == [1.0, 2.0]
    assert curve.counts.tolist() == [3.0, 7.0]


@pytest.mark.parametrize("leading", ["", "# exported\n", "\n# a\n  \n\t#b\n"])
def test_csv_line_numbers_count_leading_comment_lines(leading):
    skipped = leading.count("\n")
    with pytest.raises(DataError) as info:
        load_growth_curve_csv(io.StringIO(leading + "time,count\n1,1\n\n-2,2\n"))
    assert str(info.value) == f"line {skipped + 4}: negative time -2.0"


def test_csv_line_numbers_count_lines_inside_quoted_fields():
    with pytest.raises(DataError, match="^line 4: negative time -2.0$"):
        load_growth_curve_csv(io.StringIO('time,count\n"1\n",1\n-2,2\n'))


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n# c\n"])
def test_csv_without_header_line_is_empty(text):
    with pytest.raises(DataError, match="^empty CSV input$"):
        load_growth_curve_csv(io.StringIO(text))


def test_read_curve_file_missing(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_curve_file(tmp_path / "nope.txt")


@pytest.fixture(params=["handle", "lines", "file"])
def load_text(request, tmp_path):
    """Format-A text read from an open handle, from a list of lines, or from a file by ``read_curve_file``."""
    def load(text):
        if request.param == "handle":
            return load_failure_times(io.StringIO(text))
        if request.param == "lines":
            return load_failure_times(text.splitlines(keepends=True))
        path = tmp_path / "times.txt"
        path.write_bytes(text.encode())
        return _read_times_file(path)

    return load


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("1.0\n-2.0\nbogus\n", "line 2: negative failure time -2.0"),
        ("1.0\nbogus\n-2.0\n", "line 2: non-numeric failure time 'bogus'"),
        ("# c\nnan\n-2.0\n", "line 2: non-finite failure time 'nan'"),
        ("# c\n-2.0\ninf\n", "line 2: negative failure time -2.0"),
        ("1.0\n\ninf\nbogus\n", "line 3: non-finite failure time 'inf'"),
        ("1.0\nbogus\n-inf\n", "line 2: non-numeric failure time 'bogus'"),
        ("1.0\n# c\n\n-2.0\nbogus\n", "line 4: negative failure time -2.0"),
        ("# c\n1.0\n\n  bogus  \n", "line 4: non-numeric failure time 'bogus'"),
        ("1.0\n2.0\n1e400\n", "line 3: non-finite failure time '1e400'"),
        ("1.0\n2.0\n-3.0\n", "line 3: negative failure time -3.0"),
    ],
)
def test_load_reports_first_bad_line_in_file_order(text, message, load_text):
    with pytest.raises(DataError) as info:
        load_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("header_lines", [1, 3, 6])
def test_load_header_then_valid_times_is_read_by_numpy_alone(monkeypatch, header_lines):
    """Lines shaped like ``simulate``'s output never take the checked per-line pass."""
    calls = []
    checked = dataset._checked_times
    monkeypatch.setattr(dataset, "_checked_times", lambda *args: calls.append(args) or checked(*args))
    times = [0.5 * i for i in range(1, 12)]
    text = "".join(f"# header {i}\n" for i in range(header_lines)) + "".join(f"{t}\n" for t in times)
    curve, required_sorting = load_failure_times(io.StringIO(text))
    assert curve.times.tolist() == times
    assert not required_sorting
    assert calls == []


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("1,1\n-2,2\n3,x\n", "line 3: negative time -2.0"),
        ("1,1\n3,x\n-2,2\n", "line 3: non-numeric entry in ['3', 'x']"),
        ("nan,1\n2,1,9\n", "line 2: non-finite entry"),
        ("1,2,3\n2,inf\n", "line 2: expected two columns, got 3"),
        ("2,1\n1,2\n3,x\n", "line 3: time column must be nondecreasing"),
        ("1,2\n2,2\n-1,3\n", "line 3: count column must be strictly increasing"),
        ("1,1\n2,inf\n1,3\n", "line 3: non-finite entry"),
        ("1,1\n\n-1,2\n0,1\n", "line 4: negative time -1.0"),
    ],
)
def test_csv_reports_first_bad_row_in_file_order(rows, message):
    with pytest.raises(DataError) as info:
        load_growth_curve_csv(io.StringIO("time,count\n" + rows))
    assert str(info.value) == message


def per_line_load(lines):
    """The line-by-line format-A reader, kept as the oracle for numpy's C reader."""
    times: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric failure time {line!r}") from None
        if not np.isfinite(value):
            raise DataError(f"line {lineno}: non-finite failure time {line!r}")
        if value < 0:
            raise DataError(f"line {lineno}: negative failure time {value}")
        times.append(value)
    if not times:
        raise DataError("no failure times in input")
    arr = np.asarray(times, dtype=float)
    required_sorting = bool(np.any(np.diff(arr) < 0))
    return (np.sort(arr) if required_sorting else arr), required_sorting


#: Characters ``str.strip`` removes; ``float`` accepts only some of them as padding.
PADDING = ["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]

numerals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=0, max_value=1e6).map(str),
    st.sampled_from(["1_0", "+1e3"]),
)

format_a_lines = st.lists(
    st.one_of(
        numerals,
        st.tuples(st.sampled_from(PADDING), numerals, st.sampled_from(["", *PADDING])).map("".join),
        st.sampled_from(
            ["", "  ", "# note", "#", "nan", "-inf", "1.7e9", "1e200", "1e-320", "-0.0", " 3 ", "1,2", "x"]
        ),
        st.text(max_size=6),
    ),
    max_size=40,
)


def _outcome(load, lines):
    """The times' bytes, so -0.0 stays -0.0, and the sort flag, or the error message."""
    try:
        times, required_sorting = load(lines)
    except DataError as exc:
        return str(exc)
    if isinstance(times, GrowthCurve):
        assert np.array_equal(times.counts, np.arange(1.0, times.n + 1))
        times = times.times
    return times.tobytes(), required_sorting


@given(format_a_lines, st.sampled_from(["\n", "\r\n"]))
def test_load_matches_per_line_reader(lines, ending):
    text = ending.join(lines)
    assert _outcome(load_failure_times, io.StringIO(text)) == _outcome(per_line_load, io.StringIO(text))


@pytest.mark.parametrize("header", ["# one\n", "# one\n\n", "# one\n  \n\t# three\n"])
@pytest.mark.parametrize(
    "body", ["1.5\n2.5\n0.5\n", "1.5\n# later\n2.5\n", "1.5\n\n2.5\n", "1.5\n-2\n", "1.5\nbogus\n", "nan\n"]
)
def test_load_after_leading_comment_lines(header, body, load_text):
    text = header + body
    assert _outcome(load_text, text) == _outcome(per_line_load, io.StringIO(text))


def _read_times_file(path):
    """``read_curve_file``'s curve and sort flag for a format-A file."""
    curve, meta = read_curve_file(path)
    assert meta["format"] == "times"
    return curve, meta["required_sorting"]


def _per_line_file_outcome(path):
    """``per_line_load`` on the same file, with a decode error worded as ``read_curve_file`` words it."""
    try:
        with path.open(encoding="utf-8-sig") as handle:
            return _outcome(per_line_load, handle)
    except UnicodeDecodeError as exc:
        return f"cannot read {path}: {exc}"


#: Characters ``str.strip`` removes that pad a numeral or fill a blank line.
FILE_PADDING = ["", " ", "\t", "\x0c", "\x1f", "\xa0"]

#: Times that both readers accept, as numpy's C reader and ``float()`` both parse them.
good_numerals = st.one_of(
    st.floats(min_value=0, max_value=1e6).map(lambda t: format(t, ".10g")),
    st.floats(min_value=0, allow_infinity=False).map(repr),
    st.sampled_from(["+1e3", "-0", "-0.0", "1.", ".5", "0e5", "1E-3", "+0"]),
)

#: Lines that send a file to the per-line reader, or that it skips.
odd_lines = st.one_of(
    st.sampled_from(
        ["1e400", "-1e400", "nan", "-inf", "infinity", "-2", "-1e-300", "1_000", "\u0661\u0662", "1\x00",
         "\x002", "0x10", "# note", "#", "  # indented", "2.0 # note", "1.5 2.5", "3 x", "1,2", "1\xa02", ""]
    ),
    st.sampled_from(FILE_PADDING[1:]),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def format_a_files(draw):
    """The bytes of a format-A file: header, body, line endings, BOM and a late decode error.

    The body is padded good times with up to three odd lines put in, so that
    both numpy's reader and the per-line reader get to decide.
    """
    header = draw(st.lists(st.sampled_from(["# simulated go failure times", "#", "", " \t", "  # a=1"]), max_size=3))
    pad = st.sampled_from(FILE_PADDING)
    body = draw(st.lists(st.tuples(pad, good_numerals, pad).map("".join), max_size=30))
    for position, line in draw(st.lists(st.tuples(st.integers(0, 30), odd_lines), max_size=3)):
        body.insert(position, line)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(header + body)
    data = (text + draw(st.sampled_from(["", ending]))).encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.booleans()):
        # valid times past the first 8 KB, which the format sniff decodes, then a byte no UTF-8 has
        data += (ending.join(["0.5"] * 2100) + ending).encode() + b"\xff" + ending.encode()
    return data


# a warning from numpy's reader, such as "input contained no data", would be a stray stderr line
@pytest.mark.filterwarnings("error")
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(format_a_files())
@example(b"1.5 2.5\n")
@example(b"1.0\n2.0 # note\n")
@example(b"# header\n\n-0\n0\n")
@example(b"# only a header\n\n")
def test_read_curve_file_matches_per_line_reader(tmp_path, data):
    path = tmp_path / "times.txt"
    path.write_bytes(data)
    assert _outcome(_read_times_file, path) == _per_line_file_outcome(path)


# a warning from numpy's reader would be a stray stderr line here too
@pytest.mark.filterwarnings("error")
@given(format_a_files().map(lambda data: data.decode("utf-8", "surrogateescape").splitlines(keepends=True)))
@example(["1\r2\n"])
@example(["1.5 2.5\n"])
@example(["# h\n", "1.0\n", "# mid\n", "2.0\n"])
def test_load_lines_matches_per_line_reader(lines):
    """A list of lines, or a generator that yields them once, reads as the per-line reader reads it."""
    expected = _outcome(per_line_load, lines)
    assert _outcome(load_failure_times, lines) == expected
    assert _outcome(load_failure_times, (line for line in lines)) == expected


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("1.5 2.5\n", "line 1: non-numeric failure time '1.5 2.5'"),
        ("1.5 2.5", "line 1: non-numeric failure time '1.5 2.5'"),
        ("# log\n1.0\n2.0 # note\n3.0\n", "line 3: non-numeric failure time '2.0 # note'"),
        ("1.0\n1_0 2\n", "line 2: non-numeric failure time '1_0 2'"),
    ],
)
def test_read_curve_file_keeps_trailing_text_an_error(tmp_path, text, message):
    path = tmp_path / "times.txt"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        read_curve_file(path)
    assert str(info.value) == message


def test_read_curve_file_reads_plain_times_without_the_per_line_reader(tmp_path, monkeypatch):
    """A file shaped like ``simulate``'s output is read by numpy's C reader alone."""
    monkeypatch.setattr(dataset, "_checked_times", mock.Mock(side_effect=AssertionError))
    path = tmp_path / "times.txt"
    path.write_bytes(b"\xef\xbb\xbf# simulated\r\n# a=3\r\n\r\n0.5\r\n\t1.25 \r\n1e-07\r\n")
    curve, meta = read_curve_file(path)
    assert curve.times.tolist() == [1e-07, 0.5, 1.25]
    assert meta["required_sorting"]


@pytest.mark.parametrize("suffix", [*dataset._NUMPY_DECOMPRESSES, ".txt.gz", ".GZ"])
def test_read_curve_file_reads_a_compressed_suffix_as_text(tmp_path, suffix):
    """numpy's path opener decompresses by suffix; the file is still read as the text it holds."""
    path = tmp_path / f"times{suffix}"
    path.write_text("# log\n0.5\n1.5\n")
    curve, meta = read_curve_file(path)
    assert curve.times.tolist() == [0.5, 1.5]
    assert meta["format"] == "times"


def test_numpy_decompresses_only_known_suffixes():
    assert set(_datasource._file_openers.keys()) - {None} <= set(dataset._NUMPY_DECOMPRESSES)


exponent_times = st.one_of(
    st.floats(min_value=0, max_value=1e6),
    st.floats(min_value=0, max_value=1e-5),
    st.floats(min_value=1e9, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-6, 0.1 + 0.2, 1e10, 123456789012.0]),
)


@given(st.lists(exponent_times, min_size=1, max_size=300).map(sorted))
@example([1e-7 * i for i in range(1, 11)])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_written_times_read_back_as_printed(tmp_path, times):
    """``simulate`` writes ``.10g`` text, and ``compare`` reads back exactly that text's values."""
    path = tmp_path / "sim.txt"
    write_failure_times(path, ["simulated go failure times", "a=300 b=1e9 horizon=1e-6"], np.array(times))
    curve, meta = read_curve_file(path)
    want = np.array([float(format(t, ".10g")) for t in times])
    assert curve.times.tobytes() == want.tobytes()
    assert not meta["required_sorting"]
