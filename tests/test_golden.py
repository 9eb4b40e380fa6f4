"""Golden bytes of the CLI contract files, and the CSV writer's rules.

Each directory under ``tests/golden`` holds one ``config.yaml`` (without
``output_dir``) and the files the CLI wrote for it.  The directory name is
the subcommand, optionally followed by ``.variant``.  To rewrite the
goldens from the current code (only when a contract change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import divbands.cli as cli
from helpers import refuse_forks, split_everything

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def run_case(case: str, outdir: Path, workdir: Path, threads: int = 1) -> None:
    body = yaml.safe_load((GOLDEN / case / "config.yaml").read_text())
    cfg = workdir / f"{case}.yaml"
    cfg.write_text(yaml.safe_dump(dict(body, output_dir=str(outdir))))
    assert cli.main([case.split(".")[0], str(cfg), "--threads", str(threads)]) == 0


def assert_golden(case: str, outdir: Path) -> None:
    expected = sorted(p.name for p in (GOLDEN / case).iterdir()
                      if p.name != "config.yaml")
    assert sorted(p.name for p in outdir.iterdir()) == expected
    for name in expected:
        got = (outdir / name).read_bytes()
        assert got == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"


def test_cases_cover_every_table_writer():
    assert {c.split(".")[0] for c in CASES} >= {
        "solve-exp", "howard", "solve-power", "solve-log", "solve-neutral", "bands",
        "oracle-check", "simulate"}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_bytes(tmp_path, case):
    run_case(case, tmp_path / "out", tmp_path)
    assert_golden(case, tmp_path / "out")


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("case", CASES)
def test_split_outputs_match_golden_bytes(tmp_path, monkeypatch, case, threads):
    # every multi-block file is cut into `threads` runs, formatted by children
    split_everything(monkeypatch)
    run_case(case, tmp_path / "out", tmp_path, threads)
    assert_golden(case, tmp_path / "out")


def test_refused_forks_still_write_golden_bytes(tmp_path, monkeypatch):
    # when the OS refuses every fork, this process formats each run itself
    split_everything(monkeypatch)
    refused = refuse_forks(monkeypatch)
    for case in CASES:
        run_case(case, tmp_path / case, tmp_path, 2)
        assert_golden(case, tmp_path / case)
    assert refused


# -- the writer ---------------------------------------------------------------

def written(tmp_path, blocks, header=("a", "b")):
    path = tmp_path / "t.csv"
    cli._write_csv(path, list(header), blocks, 1)
    return path.read_bytes().decode()


def test_all_scalar_block_is_one_row(tmp_path):
    assert written(tmp_path, [(3, "0;2;2")]) == "a,b\n3,0;2;2\n"
    assert written(tmp_path, [(1, 0.5), (2, 1.5)]) == "a,b\n1,0.5\n2,1.5\n"


def test_empty_block_is_no_row(tmp_path):
    empty = np.zeros(0)
    assert written(tmp_path, [(7, empty)]) == "a,b\n"
    assert written(tmp_path, [(7, empty), (np.arange(0), [])]) == "a,b\n"
    assert written(tmp_path, []) == "a,b\n"


def test_ragged_block_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="ragged"):
        written(tmp_path, [(np.arange(2), ["0"])])


def test_float_column_renders_as_repr(tmp_path):
    vals = [-0.0, math.inf, -math.inf, 1e16, 1e-5, 5e-324, 0.1 + 0.2, 2.0]
    text = written(tmp_path, [(np.array(vals), np.float64(1.0))])
    assert text.splitlines()[1:] == [f"{v!r},1.0" for v in vals]
    assert "1e+16,1.0" in text and "5e-324,1.0" in text and "-0.0,1.0" in text


def test_int_column_renders_as_str(tmp_path):
    ints = np.array([0, -3, 2**40], dtype=np.int64)
    assert written(tmp_path, [(ints, np.int64(5))]) == "a,b\n0,5\n-3,5\n1099511627776,5\n"


# -- numeric columns: orjson's digits must stay byte for byte repr's and str's --

def _neighbours(v: float) -> list[float]:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# where repr changes layout (1e-4, 1e16), both ends of the double range, and
# every power of two with its neighbours
FLOAT_EDGES = np.array(sorted({
    *(f for v in (1e-4, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
      for f in _neighbours(v)),
    *(f for k in range(-1074, 1024) for f in _neighbours(2.0 ** k)),
}) + [0.0, -0.0, math.nan, math.inf, -math.inf])
FLOAT_EDGES = np.concatenate([FLOAT_EDGES, -FLOAT_EDGES])
INT_TYPES = [np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64]


def _strided(col: np.ndarray) -> np.ndarray:
    """A non-contiguous view of ``col``, laid out like a table's ``lo[n]``."""
    pair = np.empty((len(col), 2), dtype=col.dtype)
    pair[:, 0], pair[:, 1] = col, col[::-1]
    return pair[:, 0]


def test_float_edges_render_as_repr():
    for col in (FLOAT_EDGES, _strided(FLOAT_EDGES)):
        assert cli._cells(col) == list(map(repr, col.tolist()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats() | st.sampled_from(FLOAT_EDGES.tolist()), max_size=40),
       st.booleans())
def test_float_cells_equal_repr(values, strided):
    col = np.array(values, dtype=np.float64)
    col = _strided(col) if strided else col
    assert cli._cells(col) == list(map(repr, col.tolist()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(INT_TYPES).flatmap(lambda t: st.lists(
           st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)), max_size=40)
           .map(lambda v: np.array(v, dtype=t))),
       st.booleans())
def test_int_cells_equal_str(col, strided):
    col = _strided(col) if strided else col
    assert cli._cells(col) == list(map(str, col.tolist()))


@pytest.mark.parametrize("dtype", INT_TYPES)
def test_int_range_ends_render_as_str(dtype):
    info = np.iinfo(dtype)
    col = np.array([info.min, info.min + 1, 0, info.max - 1, info.max], dtype=dtype)
    assert cli._cells(col) == list(map(str, col.tolist()))


@pytest.mark.parametrize("dtype", [np.float64, *INT_TYPES])
def test_empty_column_has_no_cells(dtype):
    assert cli._cells(np.zeros(0, dtype=dtype)) == []
    assert cli._cells(_strided(np.zeros(0, dtype=dtype))) == []


def test_other_arrays_are_refused():
    # orjson would write true, float32's own shortest digits, and misread
    # a non-native byte order
    for column, name in ((np.array([True, False]), "bool array of shape (2,)"),
                         (np.array([0.1], dtype=np.float32), "float32 array of shape (1,)"),
                         (np.array([1.5, 1e-5], dtype=">f8"), ">f8 array of shape (2,)"),
                         (np.array([258], dtype=">i8"), ">i8 array of shape (1,)"),
                         (np.zeros((2, 2)), "float64 array of shape (2, 2)")):
        with pytest.raises(TypeError, match=re.escape(f"no CSV cells for a {name}")):
            cli._cells(column)


def test_columns_mix_per_row_and_per_block(tmp_path):
    labels = ["0", "1", "2"]
    text = written(tmp_path, [(4, labels, np.array([0.25, 1.0, 3.0]))],
                   header=("n", "x", "v"))
    assert text == "n,x,v\n4,0,0.25\n4,1,1.0\n4,2,3.0\n"


# -- chunks of blocks, and files projected from one write ----------------------

def _rendered(v) -> str:
    v = v.item() if isinstance(v, np.generic) else v
    return repr(v) if isinstance(v, float) else str(v)


def reference_rows(blocks) -> list[list[str]]:
    """Every row of ``blocks``, each cell rendered on its own."""
    rows = []
    for block in blocks:
        sized = [len(v) for v in block if isinstance(v, (list, np.ndarray))]
        for r in range(sized[0] if sized else 1):
            rows.append([_rendered(v[r] if isinstance(v, (list, np.ndarray)) else v)
                         for v in block])
    return rows


def straddling_blocks() -> list[tuple]:
    """Blocks of (k, lab, i, f, c) whose row counts straddle ``CHUNK_ROWS``.

    Some are empty or scalar-only, one has a float column among int64
    ones, and every float block starts and ends in exponent form.
    """
    rng = np.random.default_rng(23)
    chunk = cli.CHUNK_ROWS
    blocks = []
    for k, n in enumerate([0, None, chunk - 1, 1, 0, chunk, 3, 2 * chunk + 5, None, 7, 0]):
        if n is None:  # scalars only: one row
            blocks.append((k, f"only{k}", np.int64(-k), 2.5e-7 * k, "cut"))
            continue
        f = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 20, n)
        f[:1], f[-1:] = 1e-5 * (k + 1), -1e16 * (k + 1)
        if n > 3:
            f[1:4] = [math.nan, -math.inf, -0.0]
        ints = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        blocks.append((k, [f"x{k}.{r}" for r in range(n)],
                       ints / 7 if k == 6 else ints, f,
                       np.float64(1e-9 * k)))
    return blocks


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_chunked_projected_write_equals_per_cell_rendering(tmp_path, monkeypatch, threads):
    split_everything(monkeypatch)
    blocks = straddling_blocks()
    header = ["k", "lab", "i", "f", "c"]
    also = ((tmp_path / "f_k.csv", ["f", "k"]), (tmp_path / "lab_i.csv", ["lab", "i"]))
    cli._write_csv(tmp_path / "t.csv", header, blocks, threads, also=also)
    rows = reference_rows(blocks)
    assert len(rows) == 4 * cli.CHUNK_ROWS + 17
    for path, head in ((tmp_path / "t.csv", header), *also):
        keep = [header.index(h) for h in head]
        want = [",".join(head)] + [",".join(r[j] for j in keep) for r in rows]
        got = path.read_bytes().decode()
        lines = got.split("\n")
        # the first differing line, not a diff of thousands
        bad = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), None)
        assert bad is None, (path.name, bad, lines[bad], want[bad])
        assert got == "\n".join(want) + "\n", path.name


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ragged_block_past_a_chunk_is_rejected(tmp_path, monkeypatch, threads):
    split_everything(monkeypatch)
    blocks = straddling_blocks()
    blocks.insert(4, (0, ["a", "b"], np.arange(3), np.zeros(3), 1.0))
    with pytest.raises(ValueError, match=re.escape("ragged block in t.csv: column sizes [2, 3]")):
        cli._write_csv(tmp_path / "t.csv", ["k", "lab", "i", "f", "c"], blocks, threads,
                       also=((tmp_path / "p.csv", ["k"]),))


if __name__ == "__main__":
    # regenerate every golden directory in place from the current code
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            run_case(case, GOLDEN / case, Path(work))
            print(case, sorted(p.name for p in (GOLDEN / case).iterdir()),
                  file=sys.stderr)
