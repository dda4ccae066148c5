"""The per-entry commands pinned byte for byte on every corpus entry.

Each (command, entry) group runs through ``cli.main`` in-process with
``--json``: a per-entry command once, ``avoid`` in each mode and ``mccoy``
once per pair of principal ideals (x) and (y), as target and single cover.
The covering modes take the pairs with x <= y, where the cover often holds
the target; the avoidance modes, ``ringoid`` and ``davis``, those with
x >= y, where the target often escapes the prime. The exit code, standard
output and standard error of every line of a group are hashed together and
compared with the digest in ``command_bytes.json``, so a failure names the
group whose report changed. The manifest holds the
accepted output; rewrite it only for an intended change of output, with

    PYTHONPATH=src python tests/test_command_bytes.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from semiringlab.cli import main
from semiringlab.corpus import corpus, corpus_entry
from semiringlab.ideals import SIDES

MANIFEST = Path(__file__).with_name("command_bytes.json")

COMMANDS = {
    **{name: [name] for name in ("laws", "spec", "packed", "zdiv", "quotient")},
    **{f"ideals --side {side}": ["ideals", "--side", side] for side in SIDES},
    **{f"zdiv --degree-cap {d}": ["zdiv", "--degree-cap", str(d)] for d in range(4)},
}
# per sweep: its arguments, whether it takes the pairs with x >= y, and the
# flags the pair with cover (y) needs besides --target and --cover
SWEEPS = {
    **{f"avoid --mode {mode}": (["avoid", "--mode", mode], False, lambda y: ()) for mode in ("semiring", "radical", "semiprime")},
    "avoid --mode t-semiprime": (["avoid", "--mode", "t-semiprime"], False, lambda y: ("--t-set", "")),
    "avoid --mode ringoid": (["avoid", "--mode", "ringoid"], True, lambda y: ()),
    "avoid --mode davis": (["avoid", "--mode", "davis"], True, lambda y: ("--element", str(y))),
    "mccoy": (["mccoy"], False, lambda y: ()),
}
ENTRIES = [entry.name for entry in corpus()]


def _run(argv: list) -> list:
    """The exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    return [code, out.getvalue(), err.getvalue()]


def _sweep(command: str, entry: str) -> list:
    """The results of a sweep's lines on one entry, pair by pair."""
    (name, *flags), avoiding, extra = SWEEPS[command]
    n = corpus_entry(entry).structure.size
    return [
        _run([name, entry, *flags, "--target", str(x), "--cover", str(y), *extra(y)])
        for x, y in itertools.product(range(n), repeat=2)
        if (x >= y if avoiding else x <= y)
    ]


def command_digest(command: str, entry: str) -> str:
    """sha256 of the exit codes, stdout and stderr of a group's lines."""
    if command in SWEEPS:
        results = _sweep(command, entry)
    else:
        results = _run([COMMANDS[command][0], entry, *COMMANDS[command][1:]])
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


@functools.cache
def _pinned() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("command", [*COMMANDS, *SWEEPS])
def test_command_prints_the_pinned_bytes(command, entry):
    assert command_digest(command, entry) == _pinned()[command][entry]


if __name__ == "__main__":
    manifest = {command: {entry: command_digest(command, entry) for entry in ENTRIES} for command in [*COMMANDS, *SWEEPS]}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
