"""Pivot corpus: every rank_profile_mod_p call that four commands make at
seed 0, recorded in tests/data/kernel_pivots.json in call order with its
shape, its rank and the SHA-256 of its pivot list.

The commands are the golden table, two plane reductions and the 684 x 1645
large cell, which is the only workload matrix that the kernel eliminates in
panels; every other call takes its single first panel. A change to the
kernel that is meant to leave every pivot alone must pass this unchanged; a
change that moves a pivot changes the program's answers.
`PYTHONPATH=src python tests/test_kernel_pivots.py` prints the record, to
write the file from.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

from fatpoints import oracle
from test_corpus import replay

PIVOTS = Path(__file__).parent / "data" / "kernel_pivots.json"
COMMANDS = [
    ["table", "--m", "5", "--s", "5", "--amax", "25", "--bmax", "18",
     "--oracle-unknown", "--seed", "0"],
    ["reduce", "--a", "25", "--b", "18", "--m", "5", "--s", "5", "--seed", "0"],
    ["reduce", "--a", "20", "--b", "20", "--m", "5", "--s", "8", "--seed", "0"],
    ["hf", "--a", "40", "--b", "40", "--m", "8", "--s", "20", "--seed", "0"],
]


def record_calls(argv) -> list[dict]:
    """Run one command in process and describe each of its eliminations."""
    calls = []
    kernel = oracle.rank_profile_mod_p

    def recording(matrix, p):
        pivots = kernel(matrix, p)
        calls.append({"shape": list(matrix.shape), "rank": len(pivots),
                      "sha256": hashlib.sha256(json.dumps(pivots).encode()).hexdigest()})
        return pivots

    with mock.patch("fatpoints.oracle.rank_profile_mod_p", recording):
        assert replay(argv)["exit"] == 0, argv
    return calls


def record() -> list[dict]:
    return [{"argv": argv, "calls": record_calls(argv)} for argv in COMMANDS]


def test_every_pivot_list_is_unchanged():
    expected = json.loads(PIVOTS.read_text())
    assert [entry["argv"] for entry in expected] == COMMANDS
    for entry in expected:
        assert record_calls(entry["argv"]) == entry["calls"], entry["argv"]


def test_no_column_is_built_past_the_last_panel():
    # every elimination of the four commands builds its columns a panel at a
    # time as it reaches them, from column 0: up to the panel of its last
    # pivot when the rank reaches the rows, and every column otherwise. The
    # builder makes no column beyond those
    kernel, builder = oracle.rank_profile_mod_p, oracle.conditions_matrix
    width = oracle._panel_width(oracle.DEFAULT_PRIME)
    for argv in COMMANDS:
        seen, built = [], []

        def recording(matrix, p):
            fetched = []

            def fetch(columns):
                fetched.append((columns.start, columns.stop))
                return matrix.fetch(columns)

            pivots = kernel(oracle.ColumnSource(matrix.shape, fetch), p)
            seen.append((matrix.shape, pivots, fetched))
            return pivots

        def building(*args, **kw):
            M = builder(*args, **kw)
            built.append(M.shape[1])
            return M

        with mock.patch("fatpoints.oracle.rank_profile_mod_p", recording), \
                mock.patch("fatpoints.oracle.conditions_matrix", building):
            assert replay(argv)["exit"] == 0, argv
        for (rows, cols), pivots, fetched in seen:
            first = min(cols, rows + width if rows * cols <= oracle._SINGLE_PANEL_ENTRIES else width)
            ends = list(range(first, cols, width)) + [cols]
            if rows * cols == 0:
                ends = []
            elif len(pivots) == rows:
                ends = ends[: next(i for i, end in enumerate(ends) if end > pivots[-1]) + 1]
            assert fetched == list(zip([0] + ends, ends)), (argv, rows, cols)
        assert sum(built) == sum(stop - start for *_, fetched in seen for start, stop in fetched)


def test_both_kernel_paths_are_recorded():
    # at least one call on the single first panel and one in panels, so a
    # kernel change is checked on both
    sizes = [rows * cols for entry in json.loads(PIVOTS.read_text())
             for rows, cols in (call["shape"] for call in entry["calls"])]
    assert min(sizes) <= oracle._SINGLE_PANEL_ENTRIES < max(sizes)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
