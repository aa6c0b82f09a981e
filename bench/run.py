"""Benchmark of fatpoints: time to solution of four oracle workloads.

    python3 bench/run.py --workload golden_table --seed 0 --seconds 28 --trace 0

Run from the root of a checkout. The program is imported from `src/` and its
CLI `main()` is called in this process; the benchmark starts no threads of
its own and runs BLAS on one thread (the program does no BLAS work).
`--seed` is passed to every call as the oracle `--seed`.

The workload is repeated until `--seconds` is used up. With `--trace 0` the
last stdout line holds the end-to-end metrics: medians over the repetitions,
tracing off. Their times are scaled by a reference kernel timed between the
calls (bench/speed.py), so that the shared host's speed phases cancel, except
on workloads marked unscaled; the raw medians are in the line before. With
`--trace 1` untraced and traced repetitions alternate; the last line holds
the per-layer metrics of the traced ones (spans recorded by bench/spans.py
from outside the program, in raw seconds) and the tracing overhead (scaled
like wall_s). The line before it is the run's provenance. Metric names and
units are those of BENCHMARK.json. Every answer is checked; a wrong answer, a
nonzero exit, an exception, or a repetition whose stdout differs from the
first counts as failed.

Exit code 2, with nothing on stdout, when the program's sources are absent.
"""

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import CLI, Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
MATMUL_N = 1024


@dataclass(frozen=True)
class Rep:
    """One repetition of a workload; `wall_s` and `cpu_s` are scaled."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    wrong: int
    digest: str


class Stopwatch:
    """Raw wall and CPU time, with the interface of `speed.Reference`."""

    def time(self, func):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = func()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return result, wall, cpu, wall, cpu


def one_blas_thread():
    """Run BLAS on one thread; must run before numpy is imported.

    The program does no BLAS work, and a second thread would only contend
    with this process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _call(cli_main, argv: list, buf: io.StringIO, tracer):
    """One CLI call with its stdout in buf; returns its exit code."""
    with redirect_stdout(buf), (tracer.span(CLI) if tracer else nullcontext()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            traceback.print_exc()
            return "exception"


def run_rep(workload, seed: int, cli_main, tracer=None, clock=None) -> Rep:
    """Run every call of the workload once, then gate its answers.

    `clock` times each call: a `speed.Reference` to scale the times, by
    default a `Stopwatch` for raw ones.
    """
    clock = clock or Stopwatch()
    outputs = []
    totals = [0.0] * 4  # wall, cpu, raw wall, raw cpu
    for call in workload.calls:
        buf = io.StringIO()
        argv = list(call.argv) + ["--seed", str(seed)]
        code, *times = clock.time(lambda: _call(cli_main, argv, buf, tracer))
        totals = [total + t for total, t in zip(totals, times)]
        outputs.append((call, code, buf.getvalue()))

    digest = hashlib.sha256()
    wrong = 0
    for call, code, out in outputs:
        digest.update(repr((call.argv, code, out)).encode())
        wrong += call.answers if code != 0 else call.wrong(out)
    return Rep(*totals, wrong, digest.hexdigest())


def repeat(step, seconds: float) -> list:
    """Call step() until the next call would end after `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def measure_setup(clock) -> float:
    """Median time, scaled by `clock`, to import fatpoints.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cmd = [sys.executable, "-c", "import fatpoints.cli"]
    times = []
    for run in range(SETUP_RUNS + 1):
        _, wall, *_ = clock.time(
            lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL))
        if run:  # the first run only fills the bytecode cache
            times.append(wall)
    return statistics.median(times)


def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def matmul_gflops() -> float:
    """Best float64 matmul rate of this process, in GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((MATMUL_N, MATMUL_N)), rng.random((MATMUL_N, MATMUL_N))
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - began)
    return 2 * MATMUL_N**3 / best / 1e9


def provenance(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "matmul_gflops": matmul_gflops(),
    }


def _deviations(values: list, answers: int) -> int:
    """Answers in repetitions whose value differs from the first one's."""
    return answers * sum(value != values[0] for value in values)


def _failed(reps: list[Rep], answers: int) -> int:
    """Wrong answers, plus every answer of a repetition whose stdout differs."""
    return sum(rep.wrong for rep in reps) + _deviations([rep.digest for rep in reps], answers)


def _reference():
    from speed import Reference  # imports numpy, so only after one_blas_thread()

    return Reference()


def end_to_end(workload, seed: int, seconds: float, cli_main) -> tuple[dict, int, int, dict]:
    reference = _reference()
    setup_s = measure_setup(reference)
    clock = reference if workload.scaled else Stopwatch()
    peak_kb = []

    def step():
        rep = run_rep(workload, seed, cli_main, clock=clock)
        peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return rep

    reps = repeat(step, seconds)
    # Peak memory of one pass, as one CLI process would see it: later passes
    # in the same process raise it by heap fragmentation, by as much as the
    # number of passes that fit in the run.
    peak_rss_mb = peak_kb[0] / 1024
    wall_s = statistics.median(rep.wall_s for rep in reps)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells_per_s": workload.answers / wall_s,
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"reps": len(reps), "wall_s_each": [rep.wall_s for rep in reps],
              "raw_wall_s": statistics.median(rep.raw_wall_s for rep in reps),
              "raw_cpu_s": statistics.median(rep.raw_cpu_s for rep in reps),
              "stdout_sha256": reps[0].digest}
    return metrics, workload.answers * len(reps), _failed(reps, workload.answers), detail


def per_layer(workload, seed: int, seconds: float, cli_main) -> tuple[dict, int, int, dict]:
    clock = _reference() if workload.scaled else Stopwatch()

    def pair():
        plain = run_rep(workload, seed, cli_main, clock=clock)
        with Tracer() as tracer:
            traced = run_rep(workload, seed, cli_main, tracer, clock)
        return plain, traced, summarize(tracer.spans)

    pairs = repeat(pair, seconds)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    summaries = [p[2] for p in pairs]
    metrics = {}
    for name, value in summaries[0].items():
        if isinstance(value, int):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(s[name] for s in summaries)
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in plain))
    reps = plain + traced
    attempted = workload.answers * len(reps)
    failed = _failed(reps, workload.answers)
    counts = [{k: v for k, v in s.items() if isinstance(v, int)} for s in summaries]
    failed += _deviations(counts, workload.answers)
    metrics["fail_ratio"] = failed / attempted
    detail = {"reps": len(reps), "stdout_sha256": reps[0].digest}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"error: no fatpoints sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    one_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    from fatpoints.cli import main as cli_main

    workload = WORKLOADS[args.workload]()

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, detail = measure(workload, args.seed, args.seconds, cli_main)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(json.dumps({"workload": workload.name, "trace": args.trace, **detail,
                      "provenance": provenance(args.seed, nproc)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
