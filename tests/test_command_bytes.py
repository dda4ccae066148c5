"""The per-entry commands pinned byte for byte on every corpus entry.

Each (command, entry) group runs once through ``cli.main`` in-process with
``--json``. Its exit code, standard output and standard error are hashed
together and compared with the digest in ``command_bytes.json``, so a
failure names the group whose report changed. The manifest holds the
accepted output; rewrite it only for an intended change of output, with

    PYTHONPATH=src python tests/test_command_bytes.py
"""

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from semiringlab.cli import main
from semiringlab.corpus import corpus
from semiringlab.ideals import SIDES

MANIFEST = Path(__file__).with_name("command_bytes.json")

COMMANDS = {
    **{name: [name] for name in ("laws", "spec", "packed", "zdiv", "quotient")},
    **{f"ideals --side {side}": ["ideals", "--side", side] for side in SIDES},
    **{f"zdiv --degree-cap {d}": ["zdiv", "--degree-cap", str(d)] for d in range(4)},
}
ENTRIES = [entry.name for entry in corpus()]


def command_digest(command: str, entry: str) -> str:
    """sha256 of the exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([COMMANDS[command][0], entry, *COMMANDS[command][1:], "--json"])
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@functools.cache
def _pinned() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("command", COMMANDS)
def test_command_prints_the_pinned_bytes(command, entry):
    assert command_digest(command, entry) == _pinned()[command][entry]


if __name__ == "__main__":
    manifest = {command: {entry: command_digest(command, entry) for entry in ENTRIES} for command in COMMANDS}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
