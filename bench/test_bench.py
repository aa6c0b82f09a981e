"""Self-tests of the benchmark: exact counts, tracing fidelity and gates.

    python3 -m pytest bench/test_bench.py -q      (about a minute)

SEED_COUNTS are the count-type per-layer metrics of the program at the
commit that added the benchmark. A wrapper that misses one module's imported
binding of a traced function changes them, so they pin the tracer as much as
the program. A later change that alters the oracle's work on purpose updates
them in the same change and says so.
"""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from fatpoints.cli import main as cli_main  # noqa: E402
from run import run_rep  # noqa: E402
from spans import ELIMINATE, TARGETS, Tracer, summarize  # noqa: E402
from speed import REFERENCE_S, Reference, kernel  # noqa: E402
from workloads import GOLDEN, WORKLOADS  # noqa: E402

SEED_COUNTS = {
    "golden_table": {
        "formulas.dispatch_calls": 494, "oracle.sample_calls": 1560,
        "oracle.build_entries": 12548250, "oracle.build_bytes": 100386000,
        "oracle.eliminate_calls": 780, "oracle.eliminate_entries": 12548250,
        "oracle.eliminate_ops": 939358350, "oracle.max_rows": 75, "oracle.max_cols": 494,
        "oracle.trials": 780, "oracle.trials_certified": 750,
        "oracle.trials_after_certified": 500,
        "oracle.calls.bi": 260, "oracle.calls.plane": 0, "oracle.calls.line": 0,
    },
    "verify_scan": {
        "formulas.dispatch_calls": 1500, "oracle.sample_calls": 9000,
        "oracle.build_entries": 3918915, "oracle.build_bytes": 31351320,
        "oracle.eliminate_calls": 4500, "oracle.eliminate_entries": 3918915,
        "oracle.eliminate_ops": 75614472, "oracle.max_rows": 210, "oracle.max_cols": 42,
        "oracle.trials": 4500, "oracle.trials_certified": 4272,
        "oracle.trials_after_certified": 2848,
        "oracle.calls.bi": 1500, "oracle.calls.plane": 0, "oracle.calls.line": 0,
    },
    "large_cell": {
        "formulas.dispatch_calls": 1, "oracle.sample_calls": 6,
        "oracle.build_entries": 3630960, "oracle.build_bytes": 29047680,
        "oracle.eliminate_calls": 3, "oracle.eliminate_entries": 3630960,
        "oracle.eliminate_ops": 2614291200, "oracle.max_rows": 720, "oracle.max_cols": 1681,
        "oracle.trials": 3, "oracle.trials_certified": 3,
        "oracle.trials_after_certified": 2,
        "oracle.calls.bi": 1, "oracle.calls.plane": 0, "oracle.calls.line": 0,
    },
    "plane_chain": {
        "formulas.dispatch_calls": 0, "oracle.sample_calls": 363,
        "oracle.build_entries": 5677824, "oracle.build_bytes": 45422592,
        "oracle.eliminate_calls": 357, "oracle.eliminate_entries": 5677824,
        "oracle.eliminate_ops": 1960309725, "oracle.max_rows": 571, "oracle.max_cols": 990,
        "oracle.trials": 357, "oracle.trials_certified": 318,
        "oracle.trials_after_certified": 212,
        "oracle.calls.bi": 2, "oracle.calls.plane": 117, "oracle.calls.line": 0,
    },
}


def traced_counts(workload, seed: int) -> dict:
    with Tracer() as tracer:
        rep = run_rep(workload, seed, cli_main, tracer)
    assert rep.wrong == 0
    return {k: v for k, v in summarize(tracer.spans).items() if isinstance(v, int)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_counts_exact_and_repeated(name):
    workload = WORKLOADS[name]()
    first = traced_counts(workload, 0)
    assert first == SEED_COUNTS[name]
    # counts do not depend on the seed, and repeat from run to run
    assert traced_counts(workload, 7) == first


def test_golden_byte_identical_traced_and_untraced():
    workload = WORKLOADS["golden_table"]()
    plain = run_rep(workload, 0, cli_main)
    with Tracer() as tracer:
        traced = run_rep(workload, 0, cli_main, tracer)
    assert plain.wrong == traced.wrong == 0
    assert plain.digest == traced.digest


def test_reference_scales_by_the_kernel_speed():
    reference = Reference()
    rank, wall, cpu, raw_wall, raw_cpu = reference.time(lambda: kernel(reference.matrix))
    assert rank > 0 and raw_wall > 0 and raw_cpu > 0
    # one kernel pass between kernel blocks reads as about REFERENCE_S
    assert REFERENCE_S / 2 < wall < REFERENCE_S * 2
    assert REFERENCE_S / 2 < cpu < REFERENCE_S * 2


def test_golden_copy_matches_test_data():
    assert GOLDEN.read_bytes() == (ROOT / "tests" / "data" / "table_m5_s5.txt").read_bytes()


def _bindings() -> dict:
    found = {}
    for module in list(sys.modules.values()):
        mod_name = getattr(module, "__name__", "")
        if mod_name == "fatpoints" or mod_name.startswith("fatpoints."):
            for _, name, _ in TARGETS:
                if name in vars(module):
                    found[mod_name, name] = vars(module)[name]
    return found


def test_wrappers_rebind_every_import_and_are_restored():
    importlib.import_module("fatpoints.horace")
    before = _bindings()
    assert ("fatpoints.cli", "hf_biproj") in before
    assert ("fatpoints.horace", "hf_plane") in before
    assert ("fatpoints.formulas", "hf_biproj") in before
    with Tracer():
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_missing_name_counts_zero_with_warning():
    targets = (("fatpoints.oracle", "no_such_kernel", ELIMINATE),
               ("fatpoints.no_such_module", "rank_mod_p", ELIMINATE))
    with pytest.warns(UserWarning) as caught:
        with Tracer(targets) as tracer:
            assert cli_main(["hf", "--a", "8", "--b", "7", "--m", "5", "--s", "5"]) == 0
    assert len(caught) == len(tracer.missing) == 2
    assert summarize(tracer.spans)["oracle.eliminate_calls"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large_cell", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
