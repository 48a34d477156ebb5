import csv
import io
import math

import pytest

from gradcomm.csvio import format_rows, read_csv, write_csv
from gradcomm.errors import ParameterError


class TestWriteCsv:
    def test_fit_trace_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(path, "k,alpha_hat,beta_hat", [(2, 3.0, 2.0), (3, 3.1, 1.9)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,alpha_hat,beta_hat"
        assert lines[1] == "2,3.0,2.0"

    def test_path_and_handle_write_the_same_bytes(self, tmp_path):
        rows = [(1, 0.1, "area1_alpha_dominated"), (2, 1e-300, "x")]
        path = tmp_path / "out.csv"
        write_csv(path, "a,b,c", rows)
        buf = io.StringIO()
        write_csv(buf, "a,b,c", iter(rows))
        assert path.read_bytes() == buf.getvalue().encode()
        assert path.read_bytes() == b"a,b,c\n1,0.1,area1_alpha_dominated\n2,1e-300,x\n"


@pytest.mark.parametrize("value", [
    0, 7, -12, 2**70, 0.1, -0.0, 1e16, 1e-300, 5e-324, math.inf, -math.inf, math.nan,
    "area1_alpha_dominated",
])
def test_same_bytes_as_csv_writer(value):
    rows = [(1, value, 2.5), (value, -3, "x")]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["a", "b", "c"])
    writer.writerows(rows)
    written = io.StringIO()
    write_csv(written, "a,b,c", rows)
    assert written.getvalue() == expected.getvalue()
    assert "a,b,c\n" + format_rows(rows, 3) == expected.getvalue()


class TestReadCsv:
    def test_columns_by_name_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("b,a,c,a\n1,2,x,3\n\n4,5,y,6\n\n")
        assert list(read_csv(path, ("a", "b"))) == [[3.0, 1.0], [6.0, 4.0]]

    def test_error_thrown_into_the_rows_names_their_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a\n1\n\n2\n3\n")
        rows = read_csv(path, ("a",))
        assert next(rows) == [1.0] and next(rows) == [2.0]
        with pytest.raises(ParameterError, match="in.csv, line 4: too large"):
            rows.throw(ValueError("too large"))
