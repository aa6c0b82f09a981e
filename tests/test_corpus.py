"""Byte-identity corpus: every command of tests/data/cli_corpus.json, replayed
through cli.main in process, must give the recorded SHA-256 of its stdout and
stderr and the recorded exit code.

A change that alters an output updates exactly the entries it alters and
names each of them in CHANGES.md; regenerating the whole file to make a
failure go away defeats the check. `PYTHONPATH=src python tests/test_corpus.py
ARGV...` prints the entry for one command, to paste in.

The replay pins COLUMNS for argparse and pins the physical memory the size
guard compares against, so the refusal messages do not depend on the host.
argparse's help and usage text depends on the Python minor version, so an
entry that argparse ended (with --help or a usage error) has its text
compared only on the version recorded in the file; its exit code is
compared on every version.
"""

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from fatpoints import cli

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
# 1 GiB: the size guard's message names this figure whatever the host has, and
# a refused command never comes near the memory of a small host
PAGES = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv) -> dict:
    """Run one command in process and describe its outputs as a corpus entry."""
    out, err = io.StringIO(), io.StringIO()
    sysconf = os.sysconf
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
         mock.patch("os.sysconf", lambda name: PAGES.get(name) or sysconf(name)), \
         redirect_stdout(out), redirect_stderr(err):
        try:
            code, by_argparse = cli.main(list(argv)), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return {"argv": list(argv), "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue()), "exit": code, "argparse": by_argparse}


RECORD = json.loads(CORPUS.read_text())
ENTRIES = RECORD["entries"]
IDS = [" ".join(entry["argv"]) or "(no arguments)" for entry in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_command_output_is_unchanged(entry):
    got = replay(entry["argv"])
    assert (got["exit"], got["argparse"]) == (entry["exit"], entry["argparse"])
    if entry["argparse"] and PYTHON != RECORD["python"]:
        return  # argparse's wording is not stable across Python versions
    assert (got["stdout"], got["stderr"]) == (entry["stdout"], entry["stderr"])


def test_corpus_has_no_duplicate_command():
    commands = [tuple(entry["argv"]) for entry in ENTRIES]
    assert len(commands) == len(set(commands))


def readme_commands() -> list[list[str]]:
    """The argv of each `fatpoints` line in the fenced block of README's
    "Command line" section, its trailing comment dropped."""
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("fatpoints ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_every_readme_command_is_recorded(argv):
    # a command README shows a user is pinned byte for byte like any other
    assert argv in [entry["argv"] for entry in ENTRIES]


if __name__ == "__main__":
    print(json.dumps(replay(sys.argv[1:])))
