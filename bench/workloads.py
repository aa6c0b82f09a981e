"""The four oracle workloads: the CLI calls each one makes and its gate.

Each workload stresses a different oracle layer; bench/README.md says which
and why. Every gate holds for any oracle seed, because generic ranks do not
depend on the support drawn.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).parent / "expected" / "table_m5_s5.txt"

VERIFY_M = range(2, 7)
VERIFY_S = range(1, 11)
VERIFY_AMAX = 5

LARGE_CELL = (40, 40, 8, 20)  # a, b, m, s: a 720 x 1681 conditions matrix
LARGE_ROWS = LARGE_CELL[3] * LARGE_CELL[2] * (LARGE_CELL[2] + 1) // 2

REDUCE_CELLS = ((25, 18, 5, 5), (20, 20, 5, 8))


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the answers it produces, and its gate.

    `wrong` maps the call's stdout to the number of wrong answers in it.
    """

    argv: tuple[str, ...]
    answers: int
    wrong: Callable[[str], int]


@dataclass(frozen=True)
class Workload:
    """The calls of one workload.

    `scaled` says whether its end-to-end times are scaled by the reference
    kernel of bench/speed.py, which tracks the host's speed phases for work
    that stays in the core's caches.
    """

    name: str
    calls: tuple[Call, ...]
    scaled: bool = True

    @property
    def answers(self) -> int:
        return sum(call.answers for call in self.calls)


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _last_line_is(expected: str, answers: int) -> Callable[[str], int]:
    return lambda out: 0 if out.rstrip("\n").rsplit("\n", 1)[-1] == expected else answers


def _cells(text: str) -> list[list[str]]:
    """Table body without the header line and the b column."""
    return [line.split()[1:] for line in text.splitlines()[1:]]


def golden_table() -> Workload:
    expected = GOLDEN.read_text()
    want = _cells(expected)
    cells = sum(len(row) for row in want)

    def wrong(out: str) -> int:
        if out == expected:
            return 0
        got = _cells(out)
        if [len(row) for row in got] != [len(row) for row in want]:
            return cells
        # byte-identical is the gate, so a layout-only difference counts once
        return max(1, sum(g != w for gr, wr in zip(got, want) for g, w in zip(gr, wr)))

    call = Call(_argv("table --m 5 --s 5 --amax 25 --bmax 18 "
                      "--mark-defective --oracle-unknown"), cells, wrong)
    return Workload("golden_table", (call,))


def verify_scan() -> Workload:
    calls = []
    for m in VERIFY_M:
        for s in VERIFY_S:
            # b <= m, so every cell has a closed form and is checked
            n = (VERIFY_AMAX + 1) * (m + 1)
            calls.append(Call(_argv(f"verify --m {m} --s {s} --amax {VERIFY_AMAX} --bmax {m}"),
                              n, _last_line_is(f"{n}/{n} cells confirmed", n)))
    return Workload("verify_scan", tuple(calls))


def _large_wrong(out: str) -> int:
    try:
        record = json.loads(out)
    except ValueError:
        return 1
    # value == rows: the oracle rank reached min(rows, cols), so it is certified
    ok = record.get("value") == LARGE_ROWS and record.get("source") == "oracle"
    return 0 if ok else 1


def large_cell() -> Workload:
    a, b, m, s = LARGE_CELL
    call = Call(_argv(f"hf --a {a} --b {b} --m {m} --s {s} --format json"), 1, _large_wrong)
    # A 720 x 1681 int64 matrix (9.7 MB) outgrows the L2 cache, and this
    # workload's speed does not follow the phases the reference kernel
    # tracks: over five seeds scaling widened its wall_s spread from 0.035
    # to 0.13. So it is timed raw.
    return Workload("large_cell", (call,), scaled=False)


def criterion6_chains() -> list[tuple[int, int, int]]:
    """(a, b, s) with a+b in 10..14, 4 <= b <= a and s next to (a+1)(b+1)/6."""
    chains = []
    for total in range(10, 15):
        for b in range(4, total // 2 + 1):
            a = total - b
            cells = (a + 1) * (b + 1)
            for s in sorted({cells // 6, -(-cells // 6)}):
                chains.append((a, b, s))
    return chains


def plane_chain() -> Workload:
    calls = [Call(_argv(f"horace --a {a} --b {b} --s {s}"), 1,
                  _last_line_is("chain verified", 1))
             for a, b, s in criterion6_chains()]
    calls += [Call(_argv(f"reduce --a {a} --b {b} --m {m} --s {s}"), 1,
                   _last_line_is("ideal dimensions agree", 1))
              for a, b, m, s in REDUCE_CELLS]
    return Workload("plane_chain", tuple(calls))


WORKLOADS = {
    "golden_table": golden_table,
    "verify_scan": verify_scan,
    "large_cell": large_cell,
    "plane_chain": plane_chain,
}
