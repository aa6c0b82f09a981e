"""The oracle work of the benchmark's four workloads at seed 0: how many
eliminations their CLI calls make, and that every cut of the trial loop ends
at its bound, the rows or the curve steps, so that no value rests on the
trials alone.

The calls are read from bench/workloads.py, loaded from its path as it is; a
change to the workloads changes these counts.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from fatpoints import oracle
from test_corpus import replay

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def oracle_work(argvs):
    """The eliminations the commands make, the trial loop's calls, and for
    each cut of those whether its value ends at its bound."""
    eliminations, loops, ends = [], [], []
    kernel, loop = oracle.rank_profile_mod_p, oracle._max_ranks

    def counted(matrix, p):
        eliminations.append(matrix.shape)
        return kernel(matrix, p)

    def kept(tags, count, runs, build, bounds, cfg, *, tighten=None):
        ranks = loop(tags, count, runs, build, bounds, cfg, tighten=tighten)
        loops.append(tags)
        ends.extend(rank == bounds[c] or (tighten is not None and rank == tighten(c))
                    for c, rank in ranks.items())
        return ranks

    with mock.patch.object(oracle, "rank_profile_mod_p", counted), \
            mock.patch.object(oracle, "_max_ranks", kept):
        for argv in argvs:
            assert replay(argv)["exit"] == 0, argv
    return eliminations, loops, ends


@pytest.mark.parametrize("name, loops, eliminations, cuts", [
    ("golden_table", 4, 4, 35),
    ("verify_scan", 93, 69, 256),
    ("large_cell", 1, 1, 1),
    ("plane_chain", 111, 111, 111),
])
def test_every_cut_certifies_on_its_first_trial(name, loops, eliminations, cuts):
    # the trial loop runs once per plane call and per bidegree row with a
    # cell that no box returned before it settles; each eliminates once, on
    # trial 1, except verify's 24 rows of a single point, which sits at the
    # origin and leaves nothing to draw
    argvs = [list(call.argv) + ["--seed", "0"] for call in load_workloads()[name]().calls]
    made, called, ends = oracle_work(argvs)
    assert (len(called), len(made), len(ends)) == (loops, eliminations, cuts)
    assert all(ends)
