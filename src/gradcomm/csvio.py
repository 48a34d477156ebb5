"""The one CSV writer behind every file the package writes."""

from __future__ import annotations

import csv


def write_csv(target, header: str, rows) -> None:
    """Write a comma-separated ``header`` line and then ``rows``, with ``\\n`` line ends.

    ``target`` is a path or a writable text handle.  Floats are written as
    their ``repr``, so a value read back with ``float`` is the value written.
    """
    if hasattr(target, "write"):
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)
    else:
        with open(target, "w", newline="") as handle:
            write_csv(handle, header, rows)
