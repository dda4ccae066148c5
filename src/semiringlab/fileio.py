"""JSON interchange for structures and semimodules.

A structure file is one JSON object with ``name``, ``size``, row-major
``add`` and ``mul`` tables, optional ``zero`` and ``one`` designations, and a
``claims`` list of law names the loader must verify. Semimodule files add
``msize``, ``madd``, ``mzero``, and ``action``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import StructureError
from .tables import (
    CayleyStructure,
    FiniteSemimodule,
    failing_claims,
    require_semimodule,
    verify_designations,
)

MODULE_KEYS = {"msize", "madd", "mzero", "action"}


def structure_to_json(s: CayleyStructure, claims=()) -> dict:
    doc = {
        "name": s.name,
        "size": s.size,
        "add": [list(r) for r in s.add],
        "mul": [list(r) for r in s.mul],
        "claims": sorted(claims),
    }
    if s.zero is not None:
        doc["zero"] = s.zero
    if s.one is not None:
        doc["one"] = s.one
    return doc


def _structure_from_doc(doc: dict) -> CayleyStructure:
    try:
        size, add, mul = doc["size"], doc["add"], doc["mul"]
    except KeyError as exc:
        raise StructureError(f"missing field: {exc}") from exc
    return CayleyStructure(
        size=size,
        add=add,
        mul=mul,
        zero=doc.get("zero"),
        one=doc.get("one"),
        name=str(doc.get("name", "")),
    )


def ingest_doc(doc: dict) -> Union[CayleyStructure, FiniteSemimodule]:
    if not isinstance(doc, dict):
        raise StructureError("top level must be a JSON object")
    s = _structure_from_doc(doc)
    verify_designations(s)
    claims = doc.get("claims", [])
    if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
        raise StructureError("claims must be a list of law names")
    failures = failing_claims(s, claims)
    if failures:
        lines = ", ".join(f"{c} (witness {w})" for c, w in failures)
        raise StructureError(f"claims failed: {lines}")
    if not MODULE_KEYS & doc.keys():
        return s
    missing = MODULE_KEYS - doc.keys()
    if missing:
        raise StructureError(f"semimodule file missing {sorted(missing)}")
    m = FiniteSemimodule(
        semiring=s,
        msize=doc["msize"],
        madd=doc["madd"],
        mzero=doc["mzero"],
        action=doc["action"],
        name=str(doc.get("name", "")),
    )
    require_semimodule(m)
    return m


def ingest(path: Union[str, Path]) -> Union[CayleyStructure, FiniteSemimodule]:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructureError(f"{path}: JSON nested too deeply to read") from exc
    try:
        return ingest_doc(doc)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc
