"""The one CSV writer behind every file the package writes.

Fields must be ints, Python floats or strings without a comma, quote or
newline, as many per row as the header has.  Each is written by ``"{}"``,
which gives the bytes ``csv.writer`` gives them (a float as its shortest
``repr``, so ``float`` reads back the value written) and quotes nothing.
"""

from __future__ import annotations

import itertools


def write_csv(target, header: str, rows) -> None:
    """Write a comma-separated ``header`` line and then ``rows``, with ``\\n`` line ends.

    ``target`` is a path or a writable text handle; rows are streamed, not joined.
    """
    if hasattr(target, "write"):
        line = ",".join(["{}"] * (header.count(",") + 1)) + "\n"
        target.write(header + "\n")
        target.writelines(itertools.starmap(line.format, rows))
    else:
        with open(target, "w", newline="") as handle:
            write_csv(handle, header, rows)
