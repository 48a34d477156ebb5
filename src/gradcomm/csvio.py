"""The one CSV row format and reader behind every file the package uses.

Fields must be ints, Python floats or strings without a comma, quote or
newline (a str-valued enum member such as ``commodel.Region`` writes as its
value), as many per row as the header has.  Each is written by ``"{}"``,
which gives the bytes ``csv.writer`` gives them (a float as its shortest
``repr``, so ``float`` reads back the value written) and quotes nothing.
``write_csv`` streams rows to a file; ``format_rows`` returns the same bytes as
one string, so a block of rows can be formatted in another process and
written later.  ``read_csv`` reads numeric columns back by header name, one
row at a time, and is the reader that names a faulty line; ``load_columns``
reads the same values in bulk, as an array, wherever it can vouch for them.
"""

from __future__ import annotations

import csv
import itertools
import math
import re

import numpy as np

from .errors import ParameterError

# Text on which np.loadtxt and csv.reader with float() may part ways: a quote
# (csv.reader unquotes, and a quoted field may span lines), NUL, and the
# controls \x1c-\x1f, which NumPy strips around a number and float() does not.
_UNSHARED = re.compile(r'["\x00\x1c-\x1f]')
_LINE_BREAK = re.compile(r"[\r\n]")
_NOT_LINE_BREAK = re.compile(r"[^\r\n]")


def _row_format(fields: int) -> str:
    """The format string of one row of ``fields`` fields: ``"{},{}\\n"`` for two."""
    return ",".join(["{}"] * fields) + "\n"


def format_rows(rows, fields: int) -> str:
    """``rows`` of ``fields`` fields each, as the text ``write_csv`` writes for them."""
    return "".join(itertools.starmap(_row_format(fields).format, rows))


def write_csv(target, header: str, rows) -> None:
    """Write a comma-separated ``header`` line and then ``rows``, with ``\\n`` line ends.

    ``target`` is a path or a writable text handle; rows are streamed, not joined.
    """
    if hasattr(target, "write"):
        target.write(header + "\n")
        target.writelines(itertools.starmap(_row_format(header.count(",") + 1).format, rows))
    else:
        with open(target, "w", newline="") as handle:
            write_csv(handle, header, rows)


def read_csv(path, names):
    """Yield the ``names`` columns of each row of the CSV at ``path`` as a list of finite floats.

    Columns are found by header name (a repeated name: its last column); other
    columns and blank lines are ignored.  A short, non-numeric or non-finite
    field, or one longer than ``csv.field_size_limit()``, raises
    :class:`ParameterError` naming the file and line.  So does a
    ``ValueError`` the caller throws into the iterator, naming the line of the
    row it last yielded.  A missing column, or text that is not in the file's
    encoding, raises it naming the file alone: the decoder reads ahead of the
    line count.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            where = {name: i for i, name in enumerate(header)}
            columns = [where[name] for name in names]
            for row in reader:
                if row:
                    values = [float(row[i]) for i in columns]
                    if not all(map(math.isfinite, values)):
                        raise ValueError(f"non-finite value in {values}")
                    yield values
        except KeyError:  # a column is missing from the header
            raise ParameterError(
                f"{path}: needs columns {', '.join(names)}, got {header}") from None
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
        except (IndexError, ValueError, csv.Error) as exc:
            raise ParameterError(f"{path}, line {reader.line_num}: {exc}") from exc


def load_columns(path, names):
    """The ``names`` columns of every row ``read_csv`` yields, as one float64 array, or None.

    The rows are parsed in bulk by ``np.loadtxt``, with no Python object per
    row, into an (N, len(names)) array that equals ``read_csv``'s rows.
    None means that parse cannot vouch for them, and the caller reads the
    file with ``read_csv``, which names the fault if there is one: a missing
    column, no data rows, text on which the two parsers may disagree (see
    ``_UNSHARED``, or a line that may pass ``csv.field_size_limit()``), a
    file ``np.loadtxt`` refuses, or a value that is not finite.
    """
    with open(path, newline="") as handle:
        try:
            # readline, not iteration, so that the handle can still tell().
            header = next(csv.reader(iter(handle.readline, "")), [])
            where = {name: i for i, name in enumerate(header)}
            if not all(name in where for name in names):
                return None
            start = handle.tell()
            # A line longer than the limit covers a whole chunk of half its length.
            step = csv.field_size_limit() // 2
            data = False
            while chunk := handle.read(step):
                if _UNSHARED.search(chunk) or (
                        len(chunk) == step and not _LINE_BREAK.search(chunk)):
                    return None
                data = data or _NOT_LINE_BREAK.search(chunk) is not None
            if not data:
                return None
            handle.seek(start)
            values = np.loadtxt(handle, dtype=np.float64, delimiter=",", comments=None,
                                usecols=[where[name] for name in names], ndmin=2)
        except (ValueError, csv.Error):  # a parser refuses the text, or it is not in the encoding
            return None
    return values if np.isfinite(values).all() else None
