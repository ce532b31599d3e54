"""Input CSV tables: the shared reader against the per-cell parse it replaced,
the index checks, and table-domain errors through `lacsim simulate`."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lacsim import WeightTable
from lacsim.cli import main
from lacsim.tables import read_index_csv

_FIELD_HEADERS = ("sensor,value", "sensor,step,value")


def _scalar_table(text):
    """The per-cell field-table parse the shared reader replaced."""
    lines = text.strip().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    pts = [(tuple(int(c) for c in line.split(",")[:-1]), float(line.split(",")[-1]))
           for line in lines[1:]]
    arr = np.zeros(tuple(max(p[0][d] for p in pts) + 1 for d in range(len(header) - 1)))
    for index, v in pts:
        arr[index] = v
    return arr


def _scalar_weights(text):
    """The per-cell weight-table parse the shared reader replaced: (weights, radius)."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    entries = {(int(p[0]), int(p[1])): float(p[2]) for p in reader if p}
    radius = max(abs(off) for _, off in entries)
    arr = np.zeros((max(s for s, _ in entries) + 1, 2 * radius + 1))
    for (s, off), w in entries.items():
        arr[s, off + radius] = w
    return arr, radius


_VALUES = st.one_of(st.sampled_from([-0.0, 5e-324, -1e300, 1e300, 3.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _tables(draw):
    """CSV text of a field or weight table: a drawn subset of its entries in a
    drawn order, values written with repr or '.17g'."""
    layout = draw(st.sampled_from(["static", "dynamic", "weights"]))
    n = draw(st.integers(1, 8))
    shape = {"static": (n,), "dynamic": (n, draw(st.integers(1, 5))),
             "weights": (n, 2 * draw(st.integers(0, 3)) + 1)}[layout]
    values = draw(arrays(np.float64, shape, elements=_VALUES))
    keys = [tuple(int(v) for v in k) for k in np.ndindex(*shape)]
    keys = draw(st.permutations(keys))[:draw(st.integers(1, len(keys)))]
    write = draw(st.sampled_from([repr, lambda v: format(v, ".17g")]))
    if layout == "weights":
        radius = shape[1] // 2
        rows = [f"{s},{j - radius},{write(float(values[s, j]))}" for s, j in keys]
        header = "sensor,offset,weight"
    else:
        rows = [",".join(map(str, k)) + f",{write(float(values[k]))}" for k in keys]
        header = _FIELD_HEADERS[len(shape) - 1]
    return layout, header + "\n" + "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_reader_matches_the_per_cell_parse(case):
    layout, text = case
    if layout == "weights":
        expected, radius = _scalar_weights(text)
        table = WeightTable.from_csv(text, 1.0)
        assert table.radius == radius
        got = table.weights
    else:
        expected = _scalar_table(text)
        got = read_index_csv(text, _FIELD_HEADERS, "csv")
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _simulate_table(tmp_path, text, *extra):
    path = tmp_path / "vals.csv"
    path.write_text(text)
    return main(["simulate", "--out", str(tmp_path / "out"), "--set", "chain.n=3",
                 "--set", "chain.rounds=2", "--set", "field.kind=table",
                 "--set", f"field.csv={path}", *extra])


def _simulate_weights(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    return main(["simulate", "--out", str(tmp_path / "out"), "--set", "chain.n=3",
                 "--set", "chain.rounds=2", "--set", "algorithm.variant=arbitrary",
                 "--set", f"algorithm.weights_csv={path}", "--set", "algorithm.K=3.0"])


@pytest.mark.parametrize("text, message", [
    # a negative sensor used to overwrite the last one: [1, 2, 5]
    ("sensor,value\n0,1\n1,2\n2,3\n-1,5\n", "row 5 '-1,5': negative sensor"),
    ("sensor,step,value\n0,0,1\n1,0,2\n2,0,3\n0,1,4\n0,-1,5\n",
     "row 6 '0,-1,5': negative step"),
    ("sensor,value\n0,1\n1,2\n2,3\n1,7\n", "row 5 '1,7': repeats an earlier (sensor)"),
    ("sensor,step,value\n0,0,1\n1,0,2\n2,0,3\n1,0,4\n",
     "row 5 '1,0,4': repeats an earlier (sensor,step)"),
    # int() and float() accept underscores between digits
    ("sensor,value\n0,1\n1,2\n1_0,3\n", "row 4 '1_0,3': expected integer sensor and a number"),
    ("sensor,value\n0,1\n1,2\n2,1_0.5\n", "row 4 '2,1_0.5': expected integer sensor"),
    ("sensor,value\n0,1\n\n1,2\n2,3\n", "row 3 '': empty line"),
])
def test_table_csv_rejects_bad_indices_naming_the_row(tmp_path, capsys, text, message):
    assert _simulate_table(tmp_path, text) == 1
    err = capsys.readouterr().err
    assert "[field] csv: table file" in err
    assert message in err


@pytest.mark.parametrize("text, message", [
    # a negative sensor used to overwrite the last row
    ("sensor,offset,weight\n0,0,1\n1,0,1\n2,0,1\n-1,0,5\n", "row 5 '-1,0,5': negative sensor"),
    ("sensor,offset,weight\n0,0,1\n1,0,1\n2,0,1\n1,0,2\n",
     "row 5 '1,0,2': repeats an earlier (sensor,offset)"),
    # the old weight reader ignored cells past the third
    ("sensor,offset,weight\n0,0,1\n1,0,1,9\n2,0,1\n",
     "row 3 '1,0,1,9': expected integer sensor,offset"),
])
def test_weight_csv_rejects_bad_indices_naming_the_row(tmp_path, capsys, text, message):
    assert _simulate_weights(tmp_path, text) == 1
    err = capsys.readouterr().err
    assert "[algorithm] weight CSV" in err
    assert message in err


def test_weight_csv_with_negative_offsets_still_parses(tmp_path):
    rows = "".join(f"{s},{off},1\n" for s in range(3) for off in (-1, 0, 1))
    assert _simulate_weights(tmp_path, "sensor,offset,weight\n" + rows) == 0


# the messages of the per-point scan that filled the field before
def test_static_table_shorter_than_the_chain_is_a_validation_error(tmp_path, capsys):
    assert _simulate_table(tmp_path, "sensor,value\n0,1\n1,2\n", "--set", "chain.n=5") == 1
    assert capsys.readouterr().err == "error: sensor 2 outside table rows [0, 2)\n"


def test_dynamic_table_shorter_than_the_rounds_is_a_validation_error(tmp_path, capsys):
    text = "sensor,step,value\n" + "".join(f"{i},{k},{i + k}\n" for i in range(4)
                                           for k in range(3))
    assert _simulate_table(tmp_path, text, "--set", "chain.n=4", "--set", "chain.rounds=4",
                           "--set", "algorithm.variant=dyn_exponential",
                           "--set", "algorithm.rho=0.5") == 1
    assert capsys.readouterr().err == "error: step 3 outside table columns [0, 3)\n"
