"""The one CSV row format and reader behind every file the package uses.

Fields must be ints, Python floats or strings without a comma, quote or
newline, as many per row as the header has.  Each is written by ``"{}"``,
which gives the bytes ``csv.writer`` gives them (a float as its shortest
``repr``, so ``float`` reads back the value written) and quotes nothing.
``write_csv`` streams rows to a file; ``format_rows`` returns the same bytes as
one string, so a block of rows can be formatted in another process and
written later.  ``read_csv`` reads numeric columns back by header name.
"""

from __future__ import annotations

import csv
import itertools
import math

from .errors import ParameterError


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
    columns and blank lines are ignored.  A missing column, or a short,
    non-numeric or non-finite field, raises :class:`ParameterError` naming the
    file (and line).  So does a ``ValueError`` the caller throws into the
    iterator, naming the line of the row it last yielded.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        where = {name: i for i, name in enumerate(header)}
        if not all(name in where for name in names):
            raise ParameterError(f"{path}: needs columns {', '.join(names)}, got {header}")
        columns = [where[name] for name in names]
        try:
            for row in reader:
                if row:
                    values = [float(row[i]) for i in columns]
                    if not all(map(math.isfinite, values)):
                        raise ValueError(f"non-finite value in {values}")
                    yield values
        except (IndexError, ValueError) as exc:
            raise ParameterError(f"{path}, line {reader.line_num}: {exc}") from exc
