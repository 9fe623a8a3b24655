"""The one CSV body writer: rows formatted through a per-file template and
written a bounded chunk at a time.

A template is one row in ``%`` notation, line end included, for example
``"%d,%d,%.12g,%.12g\\n"``.  ``%.12g`` gives the same text as
``format(x, ".12g")``, ``%s`` as ``str(x)`` and ``%r`` as ``repr(x)``.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import IO, Iterable

# rows held at once: the chunk's tuples, their flat tuple and their text
CHUNK_ROWS = 1024


def write_rows(stream: IO[str], template: str, rows: Iterable[tuple]) -> int:
    """Write each row tuple through ``template``, CHUNK_ROWS rows per write.

    ``rows`` may be a generator; the returned row count is taken as it streams.
    """
    rows = iter(rows)
    written = 0
    while chunk := list(islice(rows, CHUNK_ROWS)):
        stream.write(template * len(chunk) % tuple(chain.from_iterable(chunk)))
        written += len(chunk)
    return written
