"""The bulk column reader against the row reader, over a table of odd files.

``csvio.load_columns`` parses a CSV with ``np.loadtxt``; ``csvio.read_csv``
reads it row by row with ``csv.reader`` and ``float`` and names a faulty
line.  On every file below, the bulk path must give the row reader's values,
or step aside so that the row reader raises its error.
"""

import csv

import numpy as np
import pytest

from gradcomm import csvio, estimator
from gradcomm.cli import main
from gradcomm.errors import ParameterError

SAMPLES_HEADER = "size_bytes,time_seconds\n"

# name -> file bytes.  Each file is read both as a samples CSV and, with its
# header renamed, as a fit trace.
FILES = {
    "plain": SAMPLES_HEADER + "1,5\n2,7\n",
    "blank_lines": SAMPLES_HEADER + "\n1,5\n\n\n2,7\n\n",
    "whitespace_line": SAMPLES_HEADER + "1,5\n   \n2,7\n",
    "tab_line": SAMPLES_HEADER + "1,5\n\t\n2,7\n",
    "repeated_header": "size_bytes,time_seconds,size_bytes\n1,5,3\n2,7,4\n",
    "reordered_header": "time_seconds,rep,size_bytes\n5,0,1\n7,1,2\n",
    "extra_columns": "size_bytes,time_seconds,rep,note\n1,5,0,a\n2,7,1,b\n",
    "ragged_extra_column": "size_bytes,time_seconds,rep\n1,5,0\n2,7\n3,9,1,x\n",
    "quoted_numbers": SAMPLES_HEADER + '"1","5"\n2,7\n',
    "quoted_header": '"size_bytes","time_seconds"\n1,5\n2,7\n',
    "quote_spans_lines": "size_bytes,time_seconds,note\n1,5,\"a\n2,7,b\"\n3,9,c\n",
    "crlf": SAMPLES_HEADER.replace("\n", "\r\n") + "1,5\r\n\r\n2,7\r\n",
    "cr_only": SAMPLES_HEADER.replace("\n", "\r") + "1,5\r2,7\r",
    "header_only": SAMPLES_HEADER,
    "header_only_no_newline": SAMPLES_HEADER.rstrip("\n"),
    "header_and_blank_lines": SAMPLES_HEADER + "\n\r\n\n",
    "empty_file": "",
    "missing_column": "size_bytes,seconds\n1,5\n",
    "short_row": SAMPLES_HEADER + "1,5\n2\n",
    "empty_field": SAMPLES_HEADER + "1,5\n2,\n",
    "non_numeric": SAMPLES_HEADER + "1,5\n2,fast\n",
    "nan": SAMPLES_HEADER + "1,5\nnan,7\n",
    "inf": SAMPLES_HEADER + "1,5\n2,Infinity\n",
    "minus_inf": SAMPLES_HEADER + "1,5\n2,-inf\n",
    "underscore_digits": SAMPLES_HEADER + "1_000,5\n2,7\n",
    "non_ascii_digits": SAMPLES_HEADER + "١٢,5\n2,٧\n",
    "unicode_spaces": SAMPLES_HEADER + " 1 ,5\x85\n2,\x0b7\x0c\n",
    "separator_controls": SAMPLES_HEADER + "1,5\n\x1c2,7\n",
    "nul_in_unused_column": "size_bytes,time_seconds,note\n1,5,a\x00b\n2,7,c\n",
    "comment_mark": SAMPLES_HEADER + "1,5 # first\n2,7\n",
    "padded": SAMPLES_HEADER + " 1 , 5 \n\t2\t,\t7\t\n",
    "signs_and_points": SAMPLES_HEADER + "+1,.5\n5.,1E3\n",
    "no_final_newline": SAMPLES_HEADER + "1,5\n2,7",
    "seventeen_digits": SAMPLES_HEADER + "0.12345678901234567,1.0000000000000002\n"
                                         "9007199254740993,0.30000000000000004\n",
    "subnormal": SAMPLES_HEADER + "4.9e-324,2.2250738585072014e-308\n1e-320,5e-324\n",
    "zero_size": SAMPLES_HEADER + "1,5\n0,7\n",
    "negative_size": SAMPLES_HEADER + "1,5\n-2,7\n",
    "huge_size": SAMPLES_HEADER + "1,5\n1e200,7\n",
    "size_times_time_overflows": SAMPLES_HEADER + "1,5\n1e100,1e300\n",
    "long_unused_field": "size_bytes,time_seconds,note\n1,5," + "x" * 140_000 + "\n2,7,y\n",
    "long_header_field": "size_bytes,time_seconds," + "h" * 140_000 + "\n1,5,a\n2,7,b\n",
    "invalid_utf8": SAMPLES_HEADER.encode() + b"1,5\n\xff,7\n",
    # The bad byte on line 5002, past the decoder's first 8 KiB read.
    "invalid_utf8_late": SAMPLES_HEADER.encode() + b"1,5\n" * 5000 + b"\xff,7\n",
}


def write(tmp_path, name, content, header=None):
    data = content if isinstance(content, bytes) else content.encode()
    if header is not None:
        data = data.replace(b"size_bytes", header[0].encode()).replace(
            b"time_seconds", header[1].encode())
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    return path


def outcome(read, path):
    """What ``read(path)`` gives: ("values", list of rows) or ("error", type, message)."""
    try:
        return ("values", np.asarray(read(path), dtype=np.float64).reshape(-1, 2).tolist())
    except (ValueError, csv.Error) as exc:  # ParameterError and UnicodeDecodeError included
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("name", sorted(FILES))
def test_load_columns_gives_read_csv_rows_or_steps_aside(tmp_path, name):
    path = write(tmp_path, name, FILES[name])
    names = ("size_bytes", "time_seconds")
    bulk = csvio.load_columns(path, names)
    if bulk is not None:
        assert bulk.dtype == np.float64 and bulk.shape[1] == 2
        assert bulk.tolist() == [list(row) for row in csvio.read_csv(path, names)]


@pytest.mark.parametrize("name", sorted(FILES))
def test_read_samples_csv_gives_the_row_readers_values_or_error(tmp_path, name):
    path = write(tmp_path, name, FILES[name])
    today = outcome(lambda p: list(estimator._sample_rows(p)), path)
    assert outcome(estimator.read_samples_csv, path) == today
    if today[0] == "error" and today[1] is ParameterError and "line" in today[2]:
        assert today[2].startswith(f"{path}, line ")


def run(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr, or the error it raised."""
    try:
        code = main(argv)
    except (ValueError, csv.Error) as exc:
        return ("raised", type(exc), str(exc))
    return ("exit", code, *capsys.readouterr())


@pytest.mark.parametrize("name", sorted(FILES))
def test_select_fit_gives_the_row_readers_coefficients_or_error(tmp_path, capsys, name):
    path = write(tmp_path, name, FILES[name], header=("alpha_hat", "beta_hat"))
    argv = ["--d", "1000", "--n", "16", "--out", str(tmp_path / "out")]
    got = run(["select", "--fit", str(path), *argv], capsys)
    try:
        rows = list(csvio.read_csv(path, ("alpha_hat", "beta_hat")))
    except ParameterError as exc:
        assert got == ("exit", 2, "", f"error: {exc}\n")
        return
    except (ValueError, csv.Error) as exc:  # not a package error: main does not catch it
        assert got == ("raised", type(exc), str(exc))
        return
    if not rows:
        assert got == ("exit", 2, "", f"error: fit trace {path} has no rows\n")
        return
    jcurve = (tmp_path / "out" / "jcurve.csv").read_bytes()
    alpha, beta = rows[-1]
    assert got == run(["select", f"--alpha={alpha!r}", f"--beta={beta!r}", *argv], capsys)
    assert (tmp_path / "out" / "jcurve.csv").read_bytes() == jcurve


def test_the_table_takes_both_paths(tmp_path):
    # The table is only a parity check if the bulk parse accepts some files
    # and steps aside on others.
    names = ("size_bytes", "time_seconds")
    accepted = {name for name, content in FILES.items()
                if csvio.load_columns(write(tmp_path, name, content), names) is not None}
    assert {"plain", "blank_lines", "crlf", "extra_columns", "padded", "subnormal",
            "seventeen_digits", "unicode_spaces", "ragged_extra_column"} <= accepted
    assert not accepted & {"quoted_numbers", "quote_spans_lines", "underscore_digits",
                           "non_ascii_digits", "separator_controls", "long_unused_field",
                           "header_only", "whitespace_line", "nan", "invalid_utf8"}


# The files that fault in the text itself, and the line their error names
# (None: the file alone, since the decoder reads ahead of the line count).
FAULT_LINES = {"long_unused_field": 2, "long_header_field": 1,
               "invalid_utf8": None, "invalid_utf8_late": None}


@pytest.mark.parametrize("name", sorted(FAULT_LINES))
@pytest.mark.parametrize("command", ["fit", "select"])
def test_a_fault_in_the_text_is_a_named_error(tmp_path, capsys, command, name):
    if command == "fit":
        path = write(tmp_path, name, FILES[name])
        argv = ["fit", "--samples", str(path)]
    else:
        path = write(tmp_path, name, FILES[name], header=("alpha_hat", "beta_hat"))
        argv = ["select", "--fit", str(path), "--d", "1000", "--n", "16"]
    got = run([*argv, "--out", str(tmp_path / "out")], capsys)
    assert got[:3] == ("exit", 2, "")
    line = FAULT_LINES[name]
    where = f"{path}: " if line is None else f"{path}, line {line}: "
    assert got[3].startswith(f"error: {where}") and got[3].count("\n") == 1
    assert not (tmp_path / "out").exists()
