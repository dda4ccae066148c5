"""Seeded inputs, expected outcomes and correctness gates for the workloads.

Every structure the benchmark feeds the program is built here from plain
tables, so the inputs stay the same when the program's own constructors
change. A seed relabels carriers and draws random contents only where many
documents average out what that does to the work; the mix of documents and
structures, and so the amount of work, is fixed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

WORKLOADS = ("corpus-verify", "generated-suites", "lattice-ladder", "ingest-stream")

# --- tables -----------------------------------------------------------------


def structure(name, add, mul, zero, one):
    return {"name": name, "size": len(add), "add": add, "mul": mul, "zero": zero, "one": one}


def boolean():
    return structure("boolean", [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)


def chain3():
    return structure(
        "chain-3", [[max(a, b) for b in range(3)] for a in range(3)], [[0, 0, 0], [0, 0, 1], [0, 1, 2]], 0, 2
    )


def lattice4():
    join = [[a | b for b in range(4)] for a in range(4)]
    meet = [[a & b for b in range(4)] for a in range(4)]
    return structure("lattice-4", join, meet, 0, 3)


def z4():
    return structure(
        "Z4", [[(a + b) % 4 for b in range(4)] for a in range(4)], [[a * b % 4 for b in range(4)] for a in range(4)], 0, 1
    )


def f2xy():
    """1, x, y over the two-element field with xx = xy = yy = 0; a + bx + cy
    sits at index 4a + 2b + c."""

    def mul(i, j):
        a, b, c = i >> 2 & 1, i >> 1 & 1, i & 1
        d, e, f = j >> 2 & 1, j >> 1 & 1, j & 1
        return (a & d) << 2 | ((a & e) ^ (b & d)) << 1 | ((a & f) ^ (c & d))

    return structure("f2xy", [[i ^ j for j in range(8)] for i in range(8)], [[mul(i, j) for j in range(8)] for i in range(8)], 0, 4)


def saturating(size):
    top = size - 1
    return structure(
        f"saturating-{size}",
        [[min(a + b, top) for b in range(size)] for a in range(size)],
        [[min(a * b, top) for b in range(size)] for a in range(size)],
        0,
        1,
    )


def product(*factors):
    """Direct product; the tuple (x1, ..., xk) sits at its mixed-radix index."""
    out = factors[0]
    for f in factors[1:]:
        n, m = out["size"], f["size"]

        def pair(op, i, j):
            return out[op][i // m][j // m] * m + f[op][i % m][j % m]

        out = structure(
            f"{out['name']}*{f['name']}",
            [[pair("add", i, j) for j in range(n * m)] for i in range(n * m)],
            [[pair("mul", i, j) for j in range(n * m)] for i in range(n * m)],
            out["zero"] * m + f["zero"],
            out["one"] * m + f["one"],
        )
    return out


def relabel(s, rng):
    """An isomorphic copy under a random permutation of the carrier."""
    n = s["size"]
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    copy = dict(s)
    for op in ("add", "mul"):
        t = s[op]
        copy[op] = [[perm[t[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    for label in ("zero", "one"):
        copy[label] = None if s[label] is None else perm[s[label]]
    return copy


# --- reference law checker --------------------------------------------------

LAW_NAMES = (
    "left_distributive",
    "right_distributive",
    "add_associative",
    "add_commutative",
    "add_medial",
    "mul_associative",
    "mul_commutative",
    "has_zero",
    "zero_absorbing",
    "has_one",
    "zerosumfree",
    "entire",
    "complemented",
    "mul_idempotent",
)


def _neutral(t, n):
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            return e
    return None


def _associative(t, n):
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


def _medial(t, n):
    for a in range(n):
        ta = t[a]
        for b in range(n):
            row_ab, tb = t[ta[b]], t[b]
            for c in range(n):
                row_ac, tc = t[ta[c]], t[c]
                for d in range(n):
                    if row_ab[tc[d]] != row_ac[tb[d]]:
                        return False
    return True


def reference_laws(add, mul) -> dict:
    """Every law flag plus the neutral elements, straight from the definitions.

    Kept apart from the program so that a faster law kernel is checked
    against an independent oracle.
    """
    n = len(add)
    rng = range(n)
    z, e = _neutral(add, n), _neutral(mul, n)
    flags = {
        "left_distributive": all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for a in rng for b in rng for c in rng),
        "right_distributive": all(mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]] for a in rng for b in rng for c in rng),
        "add_associative": _associative(add, n),
        "add_commutative": all(add[a][b] == add[b][a] for a in rng for b in rng),
        "add_medial": _medial(add, n),
        "mul_associative": _associative(mul, n),
        "mul_commutative": all(mul[a][b] == mul[b][a] for a in rng for b in rng),
        "has_zero": z is not None,
        "zero_absorbing": z is not None and all(mul[z][x] == z and mul[x][z] == z for x in rng),
        "has_one": e is not None,
        "zerosumfree": z is not None and all(add[a][b] != z or a == b == z for a in rng for b in rng),
        "entire": z is not None and all(mul[a][b] != z or a == z or b == z for a in rng for b in rng),
        "complemented": z is not None
        and e is not None
        and all(
            sum(mul[r][q] == z and mul[q][r] == z and add[r][q] == e and add[q][r] == e for q in rng) == 1 for r in rng
        ),
        "mul_idempotent": all(mul[r][r] == r for r in rng),
    }
    return {"flags": flags, "zero": z, "one": e}


# --- corpus-verify ----------------------------------------------------------


def report_digest(report_text: str) -> str:
    """sha256 of the verify-all report with the seed taken out of ``job``."""
    doc = json.loads(report_text)
    doc["job"].pop("seed", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, indent=2).encode()).hexdigest()


def report_statuses(report_text: str) -> dict:
    return {row["check"]: row["status"] for row in json.loads(report_text)["results"]}


def compare_statuses(got: dict, want: dict, known: dict) -> tuple[list, list]:
    """Check rows that failed or differ from the pinned status. A failing row
    recorded as a known failure is counted but is not unexpected."""
    failures, unexpected = [], []
    for check in sorted(set(got) | set(want)):
        g, w = got.get(check, "missing"), want.get(check, "missing")
        if g == w != "fail":
            continue
        failures.append(check)
        if not (g == "fail" and known.get(check) == "fail"):
            unexpected.append(f"{check}: {g}, expected {w}")
    return failures, unexpected


def check_corpus_verify(ref: dict, out: dict) -> tuple[int, list, list]:
    """Gates: exit code, tallies, the status of every check and the digest."""
    try:
        doc = json.loads(out["report"])
        statuses = report_statuses(out["report"])
        digest = report_digest(out["report"])
    except (ValueError, KeyError, TypeError) as exc:
        return 1, ["report"], [f"unreadable report: {exc!r}"]
    failures, unexpected = compare_statuses(statuses, ref["statuses"], {})
    if out["exit_code"] != ref["exit_code"]:
        unexpected.append(f"exit code {out['exit_code']}, expected {ref['exit_code']}")
    if doc["tallies"] != ref["tallies"]:
        unexpected.append(f"tallies {doc['tallies']}, expected {ref['tallies']}")
    if digest != ref["digest"]:
        unexpected.append(f"report digest {digest[:12]}, expected {ref['digest'][:12]}")
    if unexpected and not failures:
        failures.append("report")
    return max(len(statuses), 1), failures, unexpected


# --- generated-suites -------------------------------------------------------


def generated_pool():
    """Commutative semirings outside the corpus. f2xy*boolean carries the
    known false McCoy violation; lattice-4*chain-3 spends its time on
    per-ideal predicates called from the covering corollaries."""
    return [
        product(f2xy(), boolean()),
        product(lattice4(), chain3()),
        product(z4(), chain3()),
        product(chain3(), chain3()),
        product(boolean(), boolean(), boolean()),
        saturating(11),
        saturating(12),
    ]


SMALL_POOL = ("chain-3*chain-3", "boolean*boolean*boolean", "saturating-11")


def generated_inputs(seed: int, small: bool = False) -> dict:
    """The pool as built. The seed goes to the suites' own sampling
    (``run_entry_suites(entry, seed)``); relabelling the carriers instead
    would change the work per structure by up to 12%."""
    pool = generated_pool()
    if small:
        pool = [s for s in pool if s["name"] in SMALL_POOL]
    return {"seed": seed, "structures": pool}


def check_generated(ref: dict, known: dict, out: dict) -> tuple[int, list, list]:
    """Gate: the status of every check row of every structure."""
    attempted, failures, unexpected = 0, [], []
    for run in out["structures"]:
        if "error" in run:
            attempted += 1
            failures.append(run["name"])
            unexpected.append(f"{run['name']}: {run['error']}")
            continue
        attempted += len(run["rows"])
        f, u = compare_statuses(run["rows"], ref["statuses"][run["name"]], known)
        failures += f
        unexpected += u
    return attempted, failures, unexpected


# --- lattice-ladder ---------------------------------------------------------

LADDER = (12, 13, 14, 15, 16)


def ladder_inputs(seed: int, small: bool = False) -> dict:
    """The saturating tables as built, whatever the seed: relabelling a
    carrier changes the order in which ideal enumeration visits joins, and
    with it the work per rung by up to 10%."""
    return {"structures": [saturating(n) for n in (LADDER[:2] if small else LADDER)]}


def check_ladder(ref: dict, out: dict) -> tuple[int, list, list]:
    """Gates: ideal and prime counts per rung, and every returned mask is an
    ideal (checked by the worker outside its timed region)."""
    failures, unexpected = [], []
    for rung in out["rungs"]:
        size = str(rung["size"])
        problems = []
        if "error" in rung:
            problems.append(rung["error"])
        else:
            if rung["ideals"] != ref["ideals"][size]:
                problems.append(f"{rung['ideals']} ideals, expected {ref['ideals'][size]}")
            if rung["primes"] != ref["primes"][size]:
                problems.append(f"{rung['primes']} primes, expected {ref['primes'][size]}")
            if rung["non_ideals"]:
                problems.append(f"{rung['non_ideals']} returned masks are not ideals")
        if problems:
            failures.append(size)
            unexpected.append(f"saturating-{size}: {'; '.join(problems)}")
    return len(out["rungs"]), failures, unexpected


# --- ingest-stream ----------------------------------------------------------

LAWFUL_BASES = (
    lambda: saturating(16),
    lambda: product(f2xy(), boolean()),
    lambda: product(lattice4(), lattice4()),
    lambda: product(z4(), lattice4()),
    lambda: product(boolean(), boolean(), boolean(), boolean()),
)
RANDOM_SIZES = (3, 5, 8, 12, 16)


def _doc(s, claims=()):
    doc = {"name": s["name"], "size": s["size"], "add": s["add"], "mul": s["mul"], "claims": list(claims)}
    for label in ("zero", "one"):
        if s.get(label) is not None:
            doc[label] = s[label]
    return doc


def _small_valid():
    return _doc(boolean(), ["semiring"])


def _mal_doc(**changes):
    doc = _small_valid()
    doc.update(changes)
    return doc


def _with_cell(value):
    doc = _small_valid()
    doc["add"] = [list(doc["add"][0]), [doc["add"][1][0], value]]
    return doc


def _without(key):
    doc = _small_valid()
    del doc[key]
    return doc


# Malformed documents: each must be refused with StructureError (exit 2).
# The first seven are refused by no check today; they are the known
# failures recorded in BENCHMARK.json and reference.json.
MALFORMED = {
    "add-scalar": lambda rng: _mal_doc(add=5),
    "zero-string": lambda rng: _mal_doc(zero="x"),
    "action-scalar": lambda rng: _mal_doc(msize=1, madd=[[0]], mzero=0, action=5),
    "nested-row": lambda rng: _mal_doc(add=[[0, [1]], [1, 1]]),
    "float-entry": lambda rng: _with_cell(1.7),
    "bool-entry": lambda rng: _with_cell(True),
    "string-size": lambda rng: _mal_doc(size="2"),
    "not-json": lambda rng: '{"size": 2, "add": [[0, 1], [1',
    "top-level-list": lambda rng: [rng.randrange(4)],
    "missing-mul": lambda rng: _without("mul"),
    "short-row": lambda rng: _mal_doc(mul=[[0], [0, 1]]),
    "entry-out-of-range": lambda rng: _with_cell(2 + rng.randrange(5)),
    "empty-carrier": lambda rng: _mal_doc(size=0, add=[], mul=[]),
    "unknown-claim": lambda rng: _mal_doc(claims=["semiring", "noetherian"]),
    "false-claim": lambda rng: _doc(chain3(), ["semiring", ("entire", "mul_idempotent", "complemented")[rng.randrange(3)]]),
    "wrong-zero": lambda rng: _mal_doc(zero=1),
    "module-missing-keys": lambda rng: _mal_doc(msize=1, madd=[[0]]),
}

# One block of documents, in order. A pass repeats the block, so every seed
# sends the same mix: 8 lawful, 6 one-cell mutants, 3 random tables and
# 3 malformed documents in each 20. Lawful and mutant documents scan the
# addition laws in full, so they are the upper 70% of latencies and the
# median falls inside them rather than on the edge between two kinds.
BLOCK = ("lawful", "mutant", "malformed", "lawful", "random", "mutant", "lawful", "lawful", "malformed", "mutant",
         "lawful", "random", "mutant", "lawful", "lawful", "malformed", "mutant", "lawful", "random", "mutant")
BLOCKS = 20


def ingest_inputs(seed: int, workdir: Path, small: bool = False) -> dict:
    """Write the documents to ``workdir`` and return their paths with the
    outcome each one must have."""
    rng = random.Random(seed)
    bases = [make() for make in LAWFUL_BASES]
    base_laws = [reference_laws(b["add"], b["mul"]) for b in bases]
    counts = Counter()
    paths, expected = [], []
    for index, kind in enumerate(BLOCK * (1 if small else BLOCKS)):
        k = counts[kind]
        counts[kind] += 1
        if kind == "malformed":
            label = list(MALFORMED)[k % len(MALFORMED)]
            doc, want = MALFORMED[label](rng), {"outcome": "rejected"}
        elif kind == "random":
            n = RANDOM_SIZES[k % len(RANDOM_SIZES)]
            add, mul = ([[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(2))
            s = structure(f"random-{k}", add, mul, None, None)
            label, doc = kind, _doc(s)
            want = {"outcome": "accepted", **reference_laws(s["add"], s["mul"])}
        else:
            b = k % len(bases)
            s = relabel(bases[b], rng)
            if kind == "lawful":
                label, doc = kind, _doc(s, ["semiring"])
                want = {"outcome": "accepted", "flags": base_laws[b]["flags"], "zero": s["zero"], "one": s["one"]}
            else:
                # A product in the last rows of the multiplication table: the
                # addition laws still scan in full and the others fail late.
                n = s["size"]
                i, j = rng.randrange(n - n // 4, n), rng.randrange(n)
                s["mul"] = [list(row) for row in s["mul"]]
                s["mul"][i][j] = (s["mul"][i][j] + 1 + rng.randrange(n - 1)) % n
                s["zero"] = s["one"] = None
                label, doc = kind, _doc(s)
                want = {"outcome": "accepted", **reference_laws(s["add"], s["mul"])}
        path = workdir / f"doc-{index:04d}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths.append(str(path))
        expected.append({"kind": label, **want})
    return {"paths": paths, "expected": expected}


def check_ingest(known: dict, expected: list, out: dict) -> tuple[int, list, list]:
    """Gate: every document has its expected outcome, except the recorded
    known defects, which must show their recorded behaviour."""
    failures, unexpected = [], []
    for index, (want, got) in enumerate(zip(expected, out["docs"])):
        if got == {key: value for key, value in want.items() if key != "kind"}:
            continue
        failures.append(index)
        seen = f"crashed:{got['error']}" if got["outcome"] == "crashed" else got["outcome"]
        if known.get(want["kind"]) != seen:
            unexpected.append(f"doc {index} ({want['kind']}): {seen}, expected {want['outcome']}")
    if len(out["docs"]) != len(expected):
        unexpected.append(f"{len(out['docs'])} outcomes for {len(expected)} documents")
    return len(expected), failures, unexpected
