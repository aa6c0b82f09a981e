"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --runs 10                      # every workload
    python3 bench/collect.py --runs 5 --workload verify_scan
    python3 bench/collect.py --runs 10 --record "seed commit"

Each run is a separate `bench/run.py` process with its own `--seed`, one
after another. For every end-to-end metric the table shows the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median; `!` marks a spread (other
than that of setup_s) above a third of the metric's bound in BENCHMARK.json.
`--record` also makes one traced run per workload and appends medians,
quartiles and per-layer values to bench/baselines.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINES = BENCH / "baselines.json"


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (provenance line, result line)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", metavar="LABEL",
                        help="append the results to bench/baselines.json under LABEL")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.record, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": args.seconds,
             "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": {}}
    steady = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result = bench_run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} answers failed", file=sys.stderr)
                steady = False
            results.append(result)
        machine = {k: v for k, v in info["provenance"].items() if k != "seed"}
        entry.setdefault("provenance", machine)
        summary = {}
        print(f"{workload}: {args.runs} runs of {args.seconds:g} s")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            summary[name] = stats
            wide = name != "setup_s" and stats["spread"] > bound / 3
            steady &= not wide
            print(f"  {name:<12} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {bound}){' !' if wide else ''}")
        record = {"end_to_end": summary,
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results)}
        if args.record:
            _, traced = bench_run(workload, args.first_seed, args.seconds, 1)
            record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["workloads"][workload] = record

    if args.record:
        history = json.loads(BASELINES.read_text()) if BASELINES.exists() else []
        history.append(entry)
        BASELINES.write_text(json.dumps(history, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
