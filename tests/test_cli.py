import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from fatpoints.cli import RECORD_KEYS, build_parser, main
from fatpoints.formulas import _TABLE_BYTES_PER_CELL
from fatpoints.horace import verify_chain
from fatpoints.oracle import DEFAULT_PRIME, hf_biproj_row, hf_uniform_cells


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHf:
    def test_triple_point_cell(self, capsys):
        code, out = run(capsys, "hf", "--a", "5", "--b", "4", "--m", "3", "--s", "5")
        assert code == 0
        assert "value = 29" in out
        assert "defective = true" in out
        assert "source = formula" in out

    def test_auto_falls_back_to_oracle(self, capsys):
        code, out = run(capsys, "hf", "--a", "8", "--b", "7", "--m", "5", "--s", "5",
                        "--mode", "auto")
        assert code == 0
        assert "value = 71" in out
        assert "source = oracle" in out

    def test_simple_points(self, capsys):
        code, out = run(capsys, "hf", "--a", "2", "--b", "2", "--m", "1", "--s", "9")
        assert code == 0
        assert "value = 9" in out

    def test_forced_oracle_mode(self, capsys):
        code, out = run(capsys, "hf", "--a", "3", "--b", "2", "--m", "2", "--s", "2",
                        "--mode", "oracle", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["source"] == "oracle"
        assert record["value"] == 6

    def test_json_keys_exact(self, capsys):
        code, out = run(capsys, "hf", "--a", "1", "--b", "1", "--m", "1", "--s", "1",
                        "--format", "json")
        assert code == 0
        assert list(json.loads(out).keys()) == RECORD_KEYS

    def test_csv_header(self, capsys):
        code, out = run(capsys, "hf", "--a", "1", "--b", "1", "--m", "1", "--s", "1",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == RECORD_KEYS

    def test_invalid_inputs_exit_2(self, capsys):
        assert main(["hf", "--a", "1", "--b", "1", "--m", "0", "--s", "1"]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["hf", "--a", "-1", "--b", "1", "--m", "1", "--s", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_oversized_input_exits_2(self, capsys):
        code = main(["hf", "--a", "200000", "--b", "200000", "--m", "5", "--s", "5",
                     "--mode", "oracle"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "physical memory" in captured.err

    def test_oracle_arithmetic_error_exits_1(self, capsys, monkeypatch):
        def disagree(*args):
            raise ArithmeticError("univariate rank disagrees with the count")

        monkeypatch.setattr("fatpoints.cli.hf_uniform_cells", disagree)
        code = main(["hf", "--a", "3", "--b", "2", "--m", "2", "--s", "2", "--mode", "oracle"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: univariate rank disagrees with the count\n"

    def test_bad_prime_exits_2(self, capsys):
        code = main(["hf", "--a", "2", "--b", "2", "--m", "5", "--s", "7",
                     "--mode", "oracle", "--prime", "1024"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("prime, message", [
        ("1073803517", "1073803517 is not prime"),  # 32707 * 32831
        ("2148532231", "prime too large for 64-bit elimination: 2148532231"),
    ])
    def test_refused_prime_exits_2(self, capsys, prime, message):
        code = main(["hf", "--a", "8", "--b", "7", "--m", "5", "--s", "5",
                     "--mode", "oracle", "--prime", prime])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestTable:
    @pytest.mark.parametrize("command", ["table", "verify", "defects"])
    def test_oversized_table_exits_2_at_once(self, capsys, command):
        argv = [command, "--m", "5", "--s", "5", "--amax", "100000", "--bmax", "100000"]
        start = time.perf_counter()
        assert main(argv + ["--oracle-unknown"] * (command == "table")) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a table of 10000200001 cells needs about")

    def test_text_marks_defective(self, capsys):
        code, out = run(capsys, "table", "--m", "3", "--s", "3", "--amax", "5",
                        "--bmax", "3", "--mark-defective")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].split() == ["b\\a", "0", "1", "2", "3", "4", "5"]
        b3 = rows[4].split()
        assert b3[4] == "15*"
        assert b3[5] == "17*"

    def test_all_zero_grid(self, capsys):
        code, out = run(capsys, "table", "--m", "1", "--s", "0", "--amax", "1",
                        "--bmax", "1")
        assert code == 0
        rows = [line.split()[1:] for line in out.strip().split("\n")[1:]]
        assert rows == [["0", "0"], ["0", "0"]]

    def test_unresolved_unknown_cells_render_dash(self, capsys):
        code, out = run(capsys, "table", "--m", "5", "--s", "5", "--amax", "8",
                        "--bmax", "8")
        assert code == 0
        assert out.strip().split("\n")[9].split()[9] == "-"

    def test_csv_format(self, capsys):
        argv = ["table", "--m", "3", "--s", "5", "--amax", "5", "--bmax", "4",
                "--format", "csv"]
        code, out = run(capsys, *argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == RECORD_KEYS
        lookup = {(int(r["a"]), int(r["b"])): r for r in rows}
        assert lookup[(5, 4)]["value"] == "29"
        assert lookup[(5, 4)]["defective"] == "true"
        assert lookup[(0, 0)]["defective"] == "false"
        # --mark-defective marks only the text table
        assert run(capsys, *argv, "--mark-defective") == (0, out)

    def test_json_format_records(self, capsys):
        code, out = run(capsys, "table", "--m", "3", "--s", "5", "--amax", "5",
                        "--bmax", "4", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 6 * 5
        cell = next(r for r in records if (r["a"], r["b"]) == (5, 4))
        assert cell["value"] == 29 and cell["defective"]
        assert list(cell.keys()) == RECORD_KEYS
        assert out == json.dumps(records) + "\n"

    def test_json_with_no_record_is_an_empty_list(self, capsys):
        code, out = run(capsys, "defects", "--m", "1", "--s", "1", "--amax", "3",
                        "--bmax", "3", "--format", "json")
        assert code == 0
        assert out == "[]\n"

    def test_json_is_printed_one_record_at_a_time(self, monkeypatch):
        # 30000 cells at closed forms: the grid of HFValues peaks at about
        # 175 bytes a cell, and a list of every record's dict with its JSON
        # text would take the peak to about 980
        argv = ["table", "--m", "2", "--s", "4", "--amax", "199", "--bmax", "149",
                "--format", "json"]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            assert main(argv) == 0  # warm up imports and caches
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 400 * 30000

    def test_oracle_unknown_marks_cells(self, capsys):
        code, out = run(capsys, "table", "--m", "5", "--s", "5", "--amax", "8",
                        "--bmax", "7", "--oracle-unknown", "--trials", "1")
        assert code == 0
        assert out.strip().split("\n")[8].split()[9] == "71?"
        code, out = run(capsys, "table", "--m", "5", "--s", "5", "--amax", "8",
                        "--bmax", "7", "--oracle-unknown", "--mark-defective",
                        "--trials", "1")
        assert code == 0
        assert out.strip().split("\n")[8].split()[9] == "71*?"

    # hf stops its trials on its one cell, a table row on all of its unknown
    # cells; both must give the value of every trial. (25, 18) is the golden
    # rectangle, whose open region is 6 <= b <= 18, 6 <= a <= 25.
    @pytest.mark.parametrize("seed,amax,bmax,unknown",
                             [("0", 25, 18, 13 * 20), ("5", 9, 9, 4 * 4)], ids=["0", "5"])
    def test_oracle_unknown_matches_hf_oracle(self, capsys, seed, amax, bmax, unknown):
        code, out = run(capsys, "table", "--m", "5", "--s", "5", "--amax", str(amax),
                        "--bmax", str(bmax), "--oracle-unknown", "--format", "json",
                        "--seed", seed)
        assert code == 0
        cells = [r for r in json.loads(out) if r["source"] == "oracle"]
        assert len(cells) == unknown
        for cell in cells:
            code, out = run(capsys, "hf", "--a", str(cell["a"]), "--b", str(cell["b"]),
                            "--m", "5", "--s", "5", "--mode", "oracle",
                            "--format", "json", "--seed", seed)
            assert code == 0
            assert json.loads(out) == cell


class TestClosedPipe:
    def test_reader_closing_early_exits_0_quietly(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # about 360 kB of table, far more than a pipe buffers
        with subprocess.Popen(
            [sys.executable, "-m", "fatpoints.cli", "table", "--m", "3", "--s", "5",
             "--amax", "300", "--bmax", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.startswith(b"b\\a")
        assert code == 0
        assert err == b""


class TestVerify:
    def test_agreement_exits_0(self, capsys):
        code, out = run(capsys, "verify", "--m", "3", "--s", "2", "--amax", "5",
                        "--bmax", "5", "--trials", "1")
        assert code == 0
        assert "36/36 cells confirmed" in out

    def test_injected_mismatch_exits_1(self, capsys, monkeypatch):
        def one_off(b, cells, mults, cfg):
            # the first cell of row 0 comes back one too high
            ranks = hf_biproj_row(b, cells, mults, cfg)
            if b == 0:
                ranks[next(iter(ranks))] += 1
            return ranks

        monkeypatch.setattr("fatpoints.oracle.hf_biproj_row", one_off)
        code, out = run(capsys, "verify", "--m", "3", "--s", "2", "--amax", "4",
                        "--bmax", "4", "--trials", "1")
        assert code == 1
        assert "MISMATCH" in out
        assert out.endswith("\n24/25 cells confirmed, 1 mismatches\n")

    def test_exceptional_column_region(self, capsys):
        code, out = run(capsys, "verify", "--m", "5", "--s", "5", "--amax", "16",
                        "--bmax", "5")
        assert code == 0
        assert "102/102 cells confirmed" in out

    def test_peaks_within_the_table_guard(self, monkeypatch):
        # verify holds the grid and its widest oracle row at once; at m 3,
        # s 8 on 100 x 100 cells that peaked at 1240 bytes a cell while the
        # trial loop's kernel copied its matrix, and reads about 860 without
        argv = ["verify", "--m", "3", "--s", "8", "--amax", "99", "--bmax", "99"]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            assert main(argv) == 0  # warm up imports and caches
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < _TABLE_BYTES_PER_CELL * 100 * 100, peak / 10000


def row_off_by_one(row):
    """hf_biproj_row with every rank of row `row` one too low."""
    def patched(b, cells, mults, cfg):
        return {a: rank - (b == row) for a, rank in hf_biproj_row(b, cells, mults, cfg).items()}
    return patched


class TestTransposedCells:
    """Every command reads (a, b) and (b, a) off the row of min(a, b), so they
    get the same value on every seed."""

    SEEDS = ["0", "1", "2", "3"]

    @staticmethod
    def table(capsys, *oracle):
        code, out = run(capsys, "table", "--m", "5", "--s", "5", "--amax", "11", "--bmax",
                        "11", "--oracle-unknown", "--format", "csv", *oracle)
        assert code == 0
        return {(int(r["a"]), int(r["b"])): int(r["value"])
                for r in csv.DictReader(io.StringIO(out))}

    @staticmethod
    def hf(capsys, a, b, *oracle):
        code, out = run(capsys, "hf", "--a", str(a), "--b", str(b), "--m", "5", "--s", "5",
                        "--mode", "oracle", "--format", "json", *oracle)
        assert code == 0
        return json.loads(out)["value"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hf_and_table(self, capsys, seed):
        oracle = ["--trials", "1", "--seed", seed]
        table = self.table(capsys, *oracle)
        assert all(table[a, b] == table[b, a] for a, b in table)
        for a, b in [(6, 9), (9, 6), (7, 8), (8, 7), (11, 6)]:
            assert self.hf(capsys, a, b, *oracle) == table[a, b]

    def test_hf_and_table_read_the_row_of_the_smaller_degree(self, capsys, monkeypatch):
        table = self.table(capsys, "--trials", "1")
        monkeypatch.setattr("fatpoints.oracle.hf_biproj_row", row_off_by_one(6))
        off = self.table(capsys, "--trials", "1")
        assert {cell for cell in table if off[cell] != table[cell]} == {
            (a, b) for a in range(6, 12) for b in range(6, 12) if min(a, b) == 6}
        for a, b in [(9, 6), (6, 9)]:
            assert self.hf(capsys, a, b, "--trials", "1") == table[a, b] - 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_verify(self, capsys, monkeypatch, seed):
        # every cell read off row 2 disagrees, in both orientations
        monkeypatch.setattr("fatpoints.oracle.hf_biproj_row", row_off_by_one(2))
        code, out = run(capsys, "verify", "--m", "3", "--s", "2", "--amax", "4", "--bmax",
                        "4", "--trials", "1", "--seed", seed)
        assert code == 1
        mismatched = {tuple(int(word[2:].rstrip(":")) for word in line.split()[1:3])
                      for line in out.splitlines() if line.startswith("MISMATCH")}
        assert mismatched == {(2, 2), (3, 2), (4, 2), (2, 3), (2, 4)}
        assert out.endswith("\n20/25 cells confirmed, 5 mismatches\n")


class TestDefects:
    def test_triple_point_scan(self, capsys):
        code, out = run(capsys, "defects", "--m", "3", "--s", "5", "--amax", "10",
                        "--bmax", "4")
        assert code == 0
        listed = {(int(line.split()[0][2:]), int(line.split()[1][2:]))
                  for line in out.strip().split("\n")}
        assert listed == {(5, 4), (9, 2), (6, 3), (7, 3)}
        assert "defect=1" in out

    def test_family_hit(self, capsys):
        code, out = run(capsys, "defects", "--m", "4", "--s", "9", "--amax", "14",
                        "--bmax", "5", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert {(r["a"], r["b"]) for r in records} == {(14, 5)}
        assert records[0]["defect"] == 1

    def test_even_count_is_clean(self, capsys):
        code, out = run(capsys, "defects", "--m", "2", "--s", "2", "--amax", "6",
                        "--bmax", "2")
        assert code == 0
        assert "no defective cells" in out


class TestReduceAndHorace:
    def test_reduce_confirms(self, capsys):
        code, out = run(capsys, "reduce", "--a", "5", "--b", "4", "--m", "3", "--s", "5")
        assert code == 0
        assert "5Q1 + 4Q2" in out
        assert "plane degree: 9" in out
        assert "agree" in out

    def test_reduce_refused_input_prints_nothing(self, capsys):
        code = main(["reduce", "--a", "200000", "--b", "200000", "--m", "5", "--s", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "physical memory" in captured.err

    def test_refused_empty_scheme_prints_nothing(self, capsys, monkeypatch):
        # no points, so no rows: the 10^9 + 1 columns are still refused
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        code = main(["hf", "--a", "1000000000", "--b", "0", "--m", "5", "--s", "0",
                     "--mode", "oracle"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "physical memory" in captured.err

    def test_horace_trace(self, capsys):
        code, out = run(capsys, "horace", "--a", "6", "--b", "4", "--s", "5",
                        "--trials", "1")
        assert code == 0
        assert "chain verified" in out

    def test_reduce_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("fatpoints.cli.check_reduction", lambda *args: False)
        code, out = run(capsys, "reduce", "--a", "5", "--b", "4", "--m", "3", "--s", "5")
        assert code == 1
        assert out == ("plane scheme: 5Q1 + 4Q2 + points [3,3,3,3,3]\n"
                       "plane degree: 9\nMISMATCH between the two models\n")

    def test_horace_failed_chain_exits_1(self, capsys, monkeypatch):
        def failed(*args):
            return dataclasses.replace(verify_chain(*args), ok=False)

        monkeypatch.setattr("fatpoints.cli.verify_chain", failed)
        code, out = run(capsys, "horace", "--a", "6", "--b", "4", "--s", "5",
                        "--trials", "1")
        assert code == 1
        assert out.endswith("\nchain FAILED\n") and "chain verified" not in out

    def test_horace_regime_error(self, capsys):
        code = main(["horace", "--a", "3", "--b", "3", "--s", "2"])
        assert code == 2
        capsys.readouterr()


class TestOversizedPointCount:
    # 10^7 points of multiplicity 5 are 1.5 * 10^8 rows: the first row's
    # matrix is refused from (s, m), before the 80 MB tuple of multiplicities
    # the bidegree matrix leaves out the rows of the point at the origin and
    # the 15 columns it kills (5 on a row b = 0, where each other point keeps
    # only its 5 rows of level 0); reduce refuses by its plane side, every
    # point's rows against the whole box
    @pytest.mark.parametrize("argv, rows, cols", [
        (["hf", "--a", "8", "--b", "7", "--m", "5", "--mode", "oracle"], 149999985, 57),
        (["verify", "--m", "5", "--amax", "8", "--bmax", "7"], 49999995, 4),
        (["reduce", "--a", "8", "--b", "7", "--m", "5"], 150000000, 72),
        (["table", "--m", "5", "--amax", "8", "--bmax", "7", "--oracle-unknown"], 149999985, 48),
    ], ids=["hf", "verify", "reduce", "table"])
    def test_refused_before_the_multiplicities(self, capsys, monkeypatch, argv, rows, cols):
        # the 1 GiB of physical memory the byte-identity corpus pins
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        tracemalloc.start()
        try:
            code = main(argv + ["--s", "10000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        need = 40 * rows * cols / 2**30
        assert captured.err == (f"error: a {rows} x {cols} conditions matrix needs about "
                                f"{need:.1f} GiB to eliminate, more than the 1.0 GiB of "
                                "physical memory\n")

    def test_horace_refused_before_any_scheme(self, capsys, monkeypatch):
        # the general-position plane matrix: 6 rows a triple point, against
        # the 9 x 8 forms of degree 15 that the corners 8Q1 + 7Q2 leave; the
        # s points of the schemes and their support are never made
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        tracemalloc.start()
        try:
            code = main(["horace", "--a", "8", "--b", "7", "--s", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a 600000 x 72 conditions matrix needs about 1.6 GiB "
                                "to eliminate, more than the 1.0 GiB of physical memory\n")


def crlf(text):
    return text.replace("\n", "\r\n")


JSON_CELL = ('{{"a": {}, "b": {}, "m": {}, "s": {}, "value": {}, "source": "{}", '
             '"known": {}, "defective": {}, "defect": {}, "virtual_dim": {}, '
             '"expected_dim": {}}}')
CSV_HEADER_LINE = "a,b,m,s,value,source,known,defective,defect,virtual_dim,expected_dim\n"


def json_cell(row):
    """One JSON record, given as its values in key order."""
    return JSON_CELL.format(*row.split())


def json_cells(*rows):
    return "[" + ", ".join(map(json_cell, rows)) + "]\n"


def text_cell(row):
    return "".join(f"{key} = {value}\n" for key, value in zip(RECORD_KEYS, row.split()))


def csv_cells(*rows):
    """The CSV header and one row per record, each given as its JSON values
    in key order; null is an empty field."""
    return CSV_HEADER_LINE + "".join(
        ",".join("" if value == "null" else value for value in row.split()) + "\n"
        for row in rows)


# below b = 4 every cell of the degree-30 scheme has its full size as value
TABLE_M4_S3_CELLS = [
    f"{a} {b} 4 3 {(a + 1) * (b + 1)} formula true false 0 {(a + 1) * (b + 1) - 30} 0"
    for b in range(4) for a in range(6)
] + [
    "0 4 4 3 5 formula true false 0 -25 0",
    "1 4 4 3 10 formula true false 0 -20 0",
    "2 4 4 3 15 formula true false 0 -15 0",
    "3 4 4 3 20 formula true false 0 -10 0",
    "4 4 4 3 24 formula true true 1 -5 0",
    "5 4 4 3 27 formula true true 3 0 0",
    "0 5 4 3 6 formula true false 0 -24 0",
    "1 5 4 3 12 formula true false 0 -18 0",
    "2 5 4 3 18 formula true false 0 -12 0",
    "3 5 4 3 24 formula true false 0 -6 0",
    "4 5 4 3 27 formula true true 3 0 0",
    "5 5 4 3 29 oracle false true 1 6 6",
]
DEFECTS_M3_S5_CELLS = [
    "9 2 3 5 29 formula true true 1 0 0",
    "6 3 3 5 27 formula true true 1 -2 0",
    "7 3 3 5 29 formula true true 1 2 2",
    "5 4 3 5 29 formula true true 1 0 0",
]

# CSV cases get --format csv appended
CSV_CASES = [
    ("hf --a 5 --b 4 --m 3 --s 5", csv_cells("5 4 3 5 29 formula true true 1 0 0")),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode formula",
     csv_cells("8 7 5 5 null formula false false 0 -3 0")),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode oracle --trials 1",
     csv_cells("8 7 5 5 71 oracle false true 1 -3 0")),
    ("table --m 4 --s 3 --amax 5 --bmax 5 --oracle-unknown --trials 1",
     csv_cells(*TABLE_M4_S3_CELLS)),
    ("defects --m 3 --s 5 --amax 10 --bmax 4", csv_cells(*DEFECTS_M3_S5_CELLS)),
    ("defects --m 2 --s 2 --amax 6 --bmax 2", csv_cells()),
]

# JSON and text cases carry their own --format
RECORD_CASES = [
    ("hf --a 5 --b 4 --m 3 --s 5 --format json",
     json_cell("5 4 3 5 29 formula true true 1 0 0") + "\n"),
    ("hf --a 5 --b 4 --m 3 --s 5 --format text",
     text_cell("5 4 3 5 29 formula true true 1 0 0")),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode formula --format json",
     json_cell("8 7 5 5 null formula false false 0 -3 0") + "\n"),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode formula --format text",
     text_cell("8 7 5 5 unknown formula false false 0 -3 0")),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode oracle --trials 1 --format json",
     json_cell("8 7 5 5 71 oracle false true 1 -3 0") + "\n"),
    ("hf --a 8 --b 7 --m 5 --s 5 --mode oracle --trials 1 --format text",
     text_cell("8 7 5 5 71 oracle false true 1 -3 0")),
    ("table --m 4 --s 3 --amax 5 --bmax 5 --oracle-unknown --trials 1 --format json",
     json_cells(*TABLE_M4_S3_CELLS)),
    ("defects --m 3 --s 5 --amax 10 --bmax 4 --format text",
     "a=9 b=2 value=29 defect=1\na=6 b=3 value=27 defect=1\n"
     "a=7 b=3 value=29 defect=1\na=5 b=4 value=29 defect=1\n"),
    ("defects --m 2 --s 2 --amax 6 --bmax 2 --format text", "no defective cells\n"),
    ("defects --m 3 --s 5 --amax 10 --bmax 4 --format json",
     json_cells(*DEFECTS_M3_S5_CELLS)),
    ("defects --m 2 --s 2 --amax 6 --bmax 2 --format json", "[]\n"),
]
BYTE_CASES = [(argv + " --format csv", crlf(expected)) for argv, expected in CSV_CASES]
BYTE_CASES += RECORD_CASES


class TestCsvBytes:
    """The exact bytes of every record a command prints: CSV, JSON and text."""

    @pytest.mark.parametrize(
        "argv, expected", BYTE_CASES,
        ids=[argv for argv, _ in CSV_CASES] + [argv for argv, _ in RECORD_CASES])
    def test_exact_bytes(self, capsysbinary, argv, expected):
        assert main(argv.split()) == 0
        assert capsysbinary.readouterr().out == expected.encode()


def csv_value(text):
    """A CSV field read back as the JSON value it stands for."""
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    return int(text) if text.lstrip("-").isdigit() else text


class TestRecordContract:
    """A CSV row is its command's JSON object: the same keys in the same order,
    with the same values."""

    @pytest.mark.parametrize("argv", [
        "hf --a 5 --b 4 --m 3 --s 5",
        "hf --a 8 --b 7 --m 5 --s 5 --mode oracle --trials 1",
        "hf --a 8 --b 7 --m 5 --s 5 --mode formula",
        "table --m 5 --s 5 --amax 9 --bmax 8 --mark-defective",
        "table --m 5 --s 5 --amax 9 --bmax 8 --oracle-unknown --trials 1",
        "defects --m 3 --s 5 --amax 10 --bmax 4",
    ])
    def test_csv_rows_are_the_json_records(self, capsys, argv):
        code, out = run(capsys, *argv.split(), "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        got = [list(zip(header, map(csv_value, row))) for row in rows]
        code, out = run(capsys, *argv.split(), "--format", "json")
        assert code == 0
        records = json.loads(out)
        records = [records] if isinstance(records, dict) else records
        assert got and got == [list(record.items()) for record in records]


class TestSeedAndPrime:
    def test_flags_reach_the_oracle_and_the_environment_does_not(self, capsys, monkeypatch):
        # the seed and the prime come from argv alone: the flags reach the
        # OracleConfig, and a FATPOINTS_PRIME in the environment is not read
        argv = ["hf", "--a", "4", "--b", "4", "--m", "5", "--s", "7", "--mode", "oracle",
                "--trials", "1"]
        configs = []

        def kept(cells, pts, cfg):
            configs.append(cfg)
            return hf_uniform_cells(cells, pts, cfg)

        monkeypatch.setattr("fatpoints.cli.hf_uniform_cells", kept)
        code, out = run(capsys, *argv, "--seed", "99", "--prime", "2147483659")
        assert code == 0 and "value = 25" in out
        assert [(cfg.seed, cfg.prime) for cfg in configs] == [(99, 2147483659)]
        code, plain = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("FATPOINTS_PRIME", "not-a-number")
        code, out = run(capsys, *argv)
        assert code == 0 and out == plain
        assert [(cfg.seed, cfg.prime) for cfg in configs[1:]] == [(0, DEFAULT_PRIME)] * 2


CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())
VERIFY_ARGV = ["verify", "--m", "2", "--s", "1", "--amax", "1", "--bmax", "1"]
VERIFY_OPTIONS = ["--m", "--s", "--amax", "--bmax", "--trials", "--seed", "--prime"]
COMMANDS = ["hf", "table", "verify", "defects", "reduce", "horace"]


@contextmanager
def added_arguments(monkeypatch):
    """The arguments added to each parser in the block, by prog, help aside."""
    added = {}
    original = argparse.ArgumentParser.add_argument

    def recording(self, *names, **kwargs):
        if names != ("-h", "--help"):
            added.setdefault(self.prog, []).extend(names)
        return original(self, *names, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "add_argument", recording)
        yield added


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """The parsers registered under `parser`'s subcommands, by name."""
    (action,) = [action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


class TestParserPerCommand:
    def test_a_call_adds_its_own_commands_arguments_only(self, capsys, monkeypatch):
        with added_arguments(monkeypatch) as added:
            assert main(VERIFY_ARGV) == 0
        assert capsys.readouterr().out == "4/4 cells confirmed\n"
        assert added == {"fatpoints verify": VERIFY_OPTIONS}

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fatpoints"] + VERIFY_ARGV)
        with added_arguments(monkeypatch) as added:
            assert main() == 0
        assert capsys.readouterr().out == "4/4 cells confirmed\n"
        assert added == {"fatpoints verify": VERIFY_OPTIONS}

    def test_a_first_token_naming_no_command_adds_every_command(self, capsys, monkeypatch):
        with added_arguments(monkeypatch) as every:
            build_parser()
        assert list(every) == [f"fatpoints {name}" for name in COMMANDS]
        assert every["fatpoints verify"] == VERIFY_OPTIONS
        for argv in (["-h", "verify"], ["bogus"], []):
            with added_arguments(monkeypatch) as added, pytest.raises(SystemExit):
                main(argv)
            capsys.readouterr()
            assert added == every, argv

    @pytest.mark.parametrize("argv", [entry["argv"] for entry in CORPUS["entries"]
                                      if not entry["argparse"]],
                             ids=lambda argv: " ".join(argv))
    def test_command_parser_parses_as_the_whole_parser(self, argv):
        # every corpus command that parses, func included
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_parser_registers_that_command_only(self, command):
        assert list(subcommands(build_parser(command))) == [command]

    def test_the_whole_parser_registers_every_command_in_order(self):
        assert list(subcommands(build_parser())) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_parser_has_the_whole_parsers_usage(self, command):
        assert build_parser(command).format_usage() == build_parser().format_usage()

    def test_a_call_constructs_two_parsers(self, capsys, monkeypatch):
        progs = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(VERIFY_ARGV) == 0
        assert capsys.readouterr().out == "4/4 cells confirmed\n"
        assert progs == ["fatpoints", "fatpoints verify"]
