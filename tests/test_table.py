"""Tests for the column-wise CSV table formatter."""

import numpy as np
import pytest

from rmtlab._table import table_text


def per_cell_text(columns, rows):
    """The row-by-row, cell-by-cell rule that table_text must reproduce."""
    text = ",".join(columns) + "\n"
    for row in rows:
        text += ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                         for v in row) + "\n"
    return text


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308,
           1.0, 0.1, 2.0 ** -1074 * 3]
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]


def test_matches_per_cell_rule_on_random_and_special_doubles():
    rng = np.random.default_rng(7)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200,
                        dtype=np.int64, endpoint=True)
    floats = np.concatenate([bits.view(np.float64), rng.normal(size=200),
                             np.repeat(SPECIAL, 3)])
    floats = floats[np.isfinite(floats)]
    rng.shuffle(floats)
    m = floats.size
    ints = rng.integers(-10 ** 12, 10 ** 12, m)
    strs = [f"s{i}" for i in range(m)]
    mixed = [i if i % 3 else f"({i}+1j)" for i in range(m)]  # like rh's param
    as_list = floats.tolist()
    single = rng.normal(size=m).astype(np.float32)
    cols = ["f", "i", "s", "mixed", "list", "f32", "reversed"]
    rows = list(zip(floats.tolist(), ints, strs, mixed, as_list,
                    single.tolist(), floats[::-1].tolist()))
    got = table_text(cols, floats, ints, strs, mixed, as_list, single, floats[::-1])
    assert got == per_cell_text(cols, rows)


def test_negative_zero_keeps_its_own_text():
    col = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
    lines = table_text(["v"], col).splitlines()
    assert lines == ["v", "0.0", "-0.0", "1.0", "-0.0", "0.0"]


@pytest.mark.parametrize("bad", [np.nan, NAN_PAYLOAD, np.inf, -np.inf])
def test_non_finite_cells_raise(bad):
    # a nan or an infinity is a numerical failure, in any kind of column
    for col in (np.array([0.5, bad]), np.array([0.5, bad], dtype=np.float32),
                [0.5, float(bad)], [1, np.float32(bad)]):
        with pytest.raises(ArithmeticError, match="column 'w'"):
            table_text(["v", "w"], [1, 2], col)


def test_strided_columns_and_parse_back():
    grid = np.linspace(-3.0, 3.0, 7)
    k = np.sin(grid[:, None] * grid[None, :])
    table = np.stack([k, -k], axis=-1).reshape(-1, 2)
    text = table_text(["a", "b"], *table.T)  # columns of a C-ordered table are strided
    back = np.array([[float(t) for t in ln.split(",")] for ln in text.splitlines()[1:]])
    assert back.tobytes() == table.tobytes()


def test_empty_table_and_length_mismatch():
    assert table_text(["x", "y"], np.array([]), []) == "x,y\n"
    with pytest.raises(ValueError):
        table_text(["x", "y"], np.zeros(3), np.zeros(2))
