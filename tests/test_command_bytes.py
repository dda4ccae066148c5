"""Every command's output pinned byte for byte.

A group is one or more command lines run through ``cli.main`` in-process.
The exit code, standard output and standard error of its lines are hashed
together and compared with the digest in ``command_bytes.json``, so a
failure names the group whose output changed. The groups are:

- each per-entry command on each corpus entry, with ``--json`` and, as
  ``<command> (text)``, without it; ``verify-all --scope`` is one of them;
- ``avoid`` in each mode and ``mccoy`` once per pair of principal ideals
  (x) and (y), as target and single cover. The covering modes take the pairs
  with x <= y, where the cover often holds the target; the avoidance modes,
  ``ringoid`` and ``davis``, those with x >= y, where the target often
  escapes the prime;
- ``ringoid`` and ``davis`` avoidance of every (x) by two covers (y1) and
  (y2) with y1 < y2, on the entries of at most 4 elements;
- fixed lines, one group each: ``corpus``, every ``--help``, ``ingest`` of
  five files in the working directory, and input and argparse errors.

Lines run in a directory that holds the ingest files, with ``COLUMNS=80``,
since argparse wraps help and usage to the terminal width. The manifest
holds the accepted output; rewrite it only for an intended change of
output, with

    PYTHONPATH=src python tests/test_command_bytes.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from semiringlab.cli import main
from semiringlab.corpus import corpus
from semiringlab.ideals import SIDES

MANIFEST = Path(__file__).resolve().with_name("command_bytes.json")
TEXT = " (text)"

SIZES = {entry.name: entry.structure.size for entry in corpus()}
ENTRIES = list(SIZES)
SMALL = [entry for entry in ENTRIES if SIZES[entry] <= 4]

# per-entry group: its arguments, which the entry follows
COMMANDS = {
    **{name: [name] for name in ("laws", "spec", "packed", "zdiv", "quotient")},
    **{f"ideals --side {side}": ["ideals", "--side", side] for side in SIDES},
    **{f"zdiv --degree-cap {d}": ["zdiv", "--degree-cap", str(d)] for d in range(4)},
    "verify-all --scope": ["verify-all", "--scope"],
}


def _one_cover(avoiding: bool):
    """Target (x) and cover (y) for the pairs with x >= y when ``avoiding``, else x <= y."""
    return lambda n: [(x, (y,)) for x, y in itertools.product(range(n), repeat=2) if (x >= y if avoiding else x <= y)]


def _two_covers(n: int) -> list:
    return [(x, ys) for x in range(n) for ys in itertools.combinations(range(n), 2)]


def _no_flags(ys):
    return ()


def _davis_flags(ys):
    return ("--element", str(ys[0]))


# per sweep: its arguments, its (target, covers) by entry size, the flags
# a line with covers ys needs besides --target and --cover, and its entries
SWEEPS = {
    **{
        f"avoid --mode {mode}": (["avoid", "--mode", mode], _one_cover(False), _no_flags, ENTRIES)
        for mode in ("semiring", "radical", "semiprime")
    },
    "avoid --mode t-semiprime": (["avoid", "--mode", "t-semiprime"], _one_cover(False), lambda ys: ("--t-set", ""), ENTRIES),
    "avoid --mode ringoid": (["avoid", "--mode", "ringoid"], _one_cover(True), _no_flags, ENTRIES),
    "avoid --mode davis": (["avoid", "--mode", "davis"], _one_cover(True), _davis_flags, ENTRIES),
    "mccoy": (["mccoy"], _one_cover(False), _no_flags, ENTRIES),
    "avoid --mode ringoid, two covers": (["avoid", "--mode", "ringoid"], _two_covers, _no_flags, SMALL),
    "avoid --mode davis --element y1, two covers": (["avoid", "--mode", "davis"], _two_covers, _davis_flags, SMALL),
}

_BOOLEAN = '"size": 2, "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1'
INGEST_FILES = {
    "structure.json": '{"name": "boolean", %s, "claims": ["semiring"]}' % _BOOLEAN,
    "semimodule.json": (
        '{"name": "boolean-self", %s, "claims": ["semiring"], '
        '"msize": 2, "madd": [[0, 1], [1, 1]], "mzero": 0, "action": [[0, 0], [0, 1]]}' % _BOOLEAN
    ),
    "failing-claim.json": '{"name": "f2", "size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "claims": ["zerosumfree"]}',
    "broken.json": '{"size": 2, "add": [[0, 1]',
    "short-row.json": '{"name": "short", "size": 2, "add": [[0, 1], [1]], "mul": [[0, 0], [0, 1]]}',
}
SUBCOMMANDS = ("laws", "ideals", "spec", "packed", "avoid", "mccoy", "zdiv", "quotient", "verify-all", "ingest", "corpus")
# fixed group: its command lines, each one group
LINES = {
    "corpus": ["corpus --json", "corpus"],
    "--help": ["--help", *(f"{command} --help" for command in SUBCOMMANDS)],
    "ingest": [f"ingest {name}{flag}" for name in INGEST_FILES for flag in (" --json", "")],
    "input errors": [
        "avoid boolean --target a --cover 0",
        "avoid boolean --target 2 --cover 0",
        "avoid boolean --target 5 --cover a",
        "avoid boolean --mode semiring --element 1 --target 0 --cover 1",
        "avoid missing.json --mode ringoid --t-set 1 --target 0 --cover 1",
        "avoid boolean --mode davis --target 0 --cover 1",
        "verify-all --scope ''",
        "verify-all --scope boolean,nosuch",
        "zdiv boolean --degree-cap -1",
        "zdiv boolean --degree-cap 99",
        "packed bool3-cross",
        "zdiv bool3-cross",
        "quotient bool3-cross",
        "laws missing.json --json",
        "avoid boolean --mode nosuch --target 0 --cover 1",
        "ideals boolean --side middle",
    ],
}

GROUPS = [
    *((group, entry) for group in [*COMMANDS, *(command + TEXT for command in COMMANDS)] for entry in ENTRIES),
    *((group, entry) for group, sweep in SWEEPS.items() for entry in sweep[-1]),
    *((group, line) for group, lines in LINES.items() for line in lines),
]


def _run(argv: list) -> list:
    """The exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _sweep(group: str, entry: str) -> list:
    """The results of a sweep's lines on one entry, line by line."""
    (name, *flags), lines, extra, _ = SWEEPS[group]
    return [
        _run([name, entry, *flags, "--target", str(x), *(a for y in ys for a in ("--cover", str(y))), *extra(ys), "--json"])
        for x, ys in lines(SIZES[entry])
    ]


def command_digest(group: str, subject: str) -> str:
    """sha256 of the exit codes, stdout and stderr of a group's lines, for
    an entry (or, in a fixed group, its one line)."""
    if group in LINES:
        results = _run(shlex.split(subject))
    elif group in SWEEPS:
        results = _sweep(group, subject)
    elif group.endswith(TEXT):
        results = _run([*COMMANDS[group.removesuffix(TEXT)], subject])
    else:
        results = _run([*COMMANDS[group], subject, "--json"])
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def write_ingest_files(directory: Path) -> None:
    for name, text in INGEST_FILES.items():
        (directory / name).write_text(text)


@functools.cache
def _pinned() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lines")
    write_ingest_files(directory)
    return directory


@pytest.mark.parametrize(("group", "subject"), GROUPS)
def test_command_prints_the_pinned_bytes(group, subject, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")
    assert command_digest(group, subject) == _pinned()[group][subject]


if __name__ == "__main__":
    manifest: dict = {}
    with tempfile.TemporaryDirectory() as directory:
        write_ingest_files(Path(directory))
        os.chdir(directory)
        os.environ["COLUMNS"] = "80"
        for group, subject in GROUPS:
            manifest.setdefault(group, {})[subject] = command_digest(group, subject)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
