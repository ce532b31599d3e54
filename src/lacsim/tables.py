"""Input tables: CSV rows of integer index columns and one value column.

Field tables (`sensor,value`, `sensor,step,value`) and weight tables
(`sensor,offset,weight`) share one reader that parses all rows at once and
scatters the values into a zero array indexed by the integer columns.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _parse(rows: list, dtype: np.dtype) -> np.ndarray:
    # loadtxt converts floats as float() does; ints must be plain decimal
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def read_index_csv(text: str, headers: tuple, source: str, centered: tuple = ()) -> np.ndarray:
    """Parse CSV `text` whose header is one of `headers`: integer index
    columns, then one float value column.  Returns the values scattered into a
    zero array whose shape covers every index.  A column named in `centered`
    may be negative and is shifted so that its zero sits in the middle; every
    other index must be >= 0.

    Raises ValidationError, prefixed with `source`, for a header outside
    `headers`, no data rows, a row that does not parse (its line number and
    text), and a negative or repeated index (the row that has it).
    """
    lines = text.strip().splitlines()
    header = ",".join(h.strip() for h in lines[0].split(",")) if lines else ""
    if header not in headers:
        raise ValidationError(f"{source}: header must be {' or '.join(headers)}")
    rows = lines[1:]
    if not rows:
        raise ValidationError(f"{source}: no data rows")

    def bad(r: int, why: str) -> ValidationError:
        return ValidationError(f"{source}: row {r + 2} {rows[r]!r}: {why}")

    names = header.split(",")
    index = names[:-1]
    dtype = np.dtype([(name, np.int64) for name in index] + [(names[-1], np.float64)])
    if "" in rows:  # loadtxt would skip it
        raise bad(rows.index(""), "empty line")
    try:
        data = _parse(rows, dtype)
    except ValueError:
        lo, hi = 0, len(rows)  # rows[lo:hi] holds the first row that does not parse
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse(rows[lo:mid], dtype)
                lo = mid
            except ValueError:
                hi = mid
        raise bad(lo, f"expected integer {','.join(index)} and a number {names[-1]}") from None
    for name in (name for name in index if name not in centered):
        negative = np.flatnonzero(data[name] < 0)
        if len(negative):
            raise bad(negative[0], f"negative {name}")
    keys = np.column_stack([data[name] for name in index])
    order = np.lexsort(keys.T[::-1])  # stable: a repeat sorts after the row it repeats
    repeat = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
    if repeat.any():
        raise bad(order[1:][repeat].min(), f"repeats an earlier ({','.join(index)})")
    shape, at = [], []
    for name in index:
        col = data[name]
        shift = int(np.abs(col).max()) if name in centered else 0
        shape.append(2 * shift + 1 if name in centered else int(col.max()) + 1)
        at.append(col + shift)
    values = np.zeros(shape)
    values[tuple(at)] = data[names[-1]]
    return values
