"""CSV table text, written column by column.

Numbers are Python's shortest round-trip repr (Steele-White 1990, Gay
1990), so float() of a cell gives back the exact double.  That formatting
is the costly step, so a float column formats each distinct double once:
an m x m grid table repeats only m values in each coordinate column.
A nan or an infinity is a numerical failure, never a cell.
"""

from itertools import chain, starmap

import numpy as np


def _column_text(name, col):
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        # unique on the bit patterns: on the floats -0.0 and 0.0 would merge
        bits = np.ascontiguousarray(col, dtype=np.float64).ravel().view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        texts = [repr(v) for v in uniq.view(np.float64).tolist()]
    else:
        texts = [repr(float(v)) if isinstance(v, float) else str(v) for v in col]
        inverse = None
    if not {"nan", "inf", "-inf"}.isdisjoint(texts):
        raise ArithmeticError(f"non-finite value in table column {name!r}")
    return texts if inverse is None else np.array(texts, dtype=object)[inverse].tolist()


def table_text(columns, *cols) -> str:
    """The column-name line, then one line per row, each ending in a newline.

    Each of cols is one column: a sequence, or a float array of any shape
    read in C order.  Cells are written as repr(float(v)) for a float and
    str(v) otherwise; a float array formats each distinct double once.
    A non-finite float raises ArithmeticError.
    """
    texts = starmap(_column_text, zip(columns, cols, strict=True))
    rows = map(",".join, zip(*texts, strict=True))
    return "\n".join(chain([",".join(columns)], rows, [""]))
