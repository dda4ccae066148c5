"""Structure files, corpus integrity, and the command line workbench."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from semiringlab.cli import main
from semiringlab.corpus import (
    boolean_semifield,
    corpus,
    corpus_entry,
    corpus_names,
    cross_product_hemiring,
    saturating,
)
from semiringlab.errors import StructureError
from semiringlab.fileio import ingest, ingest_doc, structure_to_json
from semiringlab.suites import FAIL, PASS, CheckResult
from semiringlab.tables import CayleyStructure, FiniteSemimodule, check_laws, self_action

from helpers import semimodule_to_json


# --- ingest -----------------------------------------------------------------------

def test_boolean_round_trip(tmp_path):
    doc = structure_to_json(boolean_semifield(), claims=["semiring", "entire"])
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    loaded = ingest(path)
    assert isinstance(loaded, CayleyStructure)
    assert loaded.add == boolean_semifield().add
    assert loaded.zero == 0 and loaded.one == 1


def test_false_associativity_claim_rejected(tmp_path):
    doc = structure_to_json(cross_product_hemiring(), claims=["mul_associative"])
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StructureError) as err:
        ingest(path)
    assert "mul_associative" in str(err.value)
    assert "(1, 1, 2)" in str(err.value)  # the minimal witness triple


def test_truncated_file_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "broken", "size": 2')
    with pytest.raises(StructureError) as err:
        ingest(path)
    assert "JSON" in str(err.value)


def test_bad_designation_rejected():
    doc = structure_to_json(boolean_semifield())
    doc["zero"] = 1
    with pytest.raises(StructureError):
        ingest_doc(doc)


def test_semimodule_round_trip(tmp_path):
    m = self_action(boolean_semifield())
    doc = semimodule_to_json(m, claims=["semiring"])
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    loaded = ingest(path)
    assert isinstance(loaded, FiniteSemimodule)
    assert loaded.action == m.action


def test_semimodule_missing_fields(tmp_path):
    m = self_action(boolean_semifield())
    doc = semimodule_to_json(m)
    del doc["action"]
    with pytest.raises(StructureError):
        ingest_doc(doc)


# --- corpus integrity ----------------------------------------------------------------

def test_corpus_has_required_entries():
    names = set(corpus_names())
    assert {
        "boolean",
        "chain-3",
        "saturating-4",
        "bool3-cross",
        "austere-z6",
        "f2xy",
        "bool2",
        "lattice-4",
        "bool-c2",
    } <= names


def test_corpus_claims_verified_at_build():
    for entry in corpus():
        rep = check_laws(entry.structure)
        for claim in entry.claims:
            from semiringlab.tables import claim_holds

            assert claim_holds(entry.structure, claim), (entry.name, claim)


def test_austere_predefinitions_reproduce_the_counterexample():
    from semiringlab.covering import semiring_avoidance
    from semiringlab.ideals import generate_ideal, is_prime, is_subtractive

    entry = corpus_entry("austere-z6")
    s = entry.structure
    target = generate_ideal(s, entry.ideals["I"])
    m1 = generate_ideal(s, entry.ideals["M1"])
    m2 = generate_ideal(s, entry.ideals["M2"])
    assert is_prime(m1)[0] and is_prime(m2)[0]
    assert not is_subtractive(m1)[0] and not is_subtractive(m2)[0]
    assert target.mask & ~(m1.mask | m2.mask) == 0
    report = semiring_avoidance(target, [m1, m2])
    assert report.verdict == "fails" and report.violated_hypothesis == "subtractivity"


def test_chain_documented_as_packed():
    entry = corpus_entry("chain-3")
    assert entry.flags["compactly_packed"] is True


# --- command line ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_laws_json(capsys):
    code, out, _ = run_cli(capsys, "laws", "boolean", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["commutative_semiring"] is True
    assert doc["report_version"] == 1


def test_cli_spec(capsys):
    code, out, _ = run_cli(capsys, "spec", "chain-3", "--json")
    assert code == 0
    assert json.loads(out)["primes"] == [[0, 1]]


def test_cli_austere_avoid_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "avoid",
        "austere-z6",
        "--target",
        "3,4",
        "--cover",
        "3",
        "--cover",
        "4",
        "--mode",
        "semiring",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "fails"
    assert doc["violated_hypothesis"] == "subtractivity"


def test_cli_mccoy_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "mccoy",
        "f2xy",
        "--target",
        "1,2",
        "--cover",
        "2",
        "--cover",
        "1",
        "--cover",
        "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == 2 and doc["efficient"] is True


def test_cli_quotient(capsys):
    code, out, _ = run_cli(capsys, "quotient", "saturating-4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2 and doc["kasch"] and doc["semilocal"]


def test_cli_zdiv_with_slice(capsys):
    code, out, _ = run_cli(capsys, "zdiv", "chain-3", "--degree-cap", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_divisors"] == [0, 1]
    assert doc["slice"]["verdict"] == "holds"


def _boolean_doc(**changes):
    doc = structure_to_json(boolean_semifield(), claims=["semiring"])
    doc.update(changes)
    return json.dumps(doc)


def _boolean_doc_with_cell(value):
    return _boolean_doc(add=[[0, 1], [1, value]])


@pytest.mark.parametrize(
    "text",
    [
        "{",
        _boolean_doc(add=5),
        _boolean_doc(zero="x"),
        _boolean_doc(msize=1, madd=[[0]], mzero=0, action=5),
        _boolean_doc(add=[[0, [1]], [1, 1]]),
        _boolean_doc_with_cell(1.7),
        _boolean_doc_with_cell(True),
        _boolean_doc(size="2"),
        _boolean_doc(claims=5),
        _boolean_doc(claims=None),
        _boolean_doc(claims="semiring"),
        _boolean_doc(claims={"semiring": 1}),
        "[" * 200_000,  # the parser raises RecursionError, not JSONDecodeError
    ],
    ids=[
        "truncated",
        "add-scalar",
        "zero-string",
        "action-scalar",
        "nested-row",
        "float-entry",
        "bool-entry",
        "string-size",
        "claims-int",
        "claims-null",
        "claims-string",
        "claims-object",
        "deep-nesting",
    ],
)
def test_cli_ingest_error_exit_code(capsys, tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "ingest", str(path))
    assert code == 2
    assert "input error" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
VALID_DOCS = (
    structure_to_json(boolean_semifield(), claims=["semiring"]),
    semimodule_to_json(self_action(boolean_semifield()), claims=["semiring"]),
)


@given(st.sampled_from(VALID_DOCS), st.data())
def test_cli_ingest_fuzzed_field_never_crashes(tmp_path_factory, doc, data):
    """A valid document with one field replaced by any JSON value loads or
    is refused as an input error; it never raises out of the CLI."""
    field = data.draw(st.sampled_from(sorted(doc)))
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps({**doc, field: data.draw(json_values)}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["ingest", str(path)]) in (0, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["--target", "1", "--cover", "1", "--mode", "davis", "--element", "9"],
        ["--target", "1", "--cover", "1", "--mode", "t-semiprime", "--t-set", "9"],
        ["--target", "-1", "--cover", "1"],
    ],
    ids=["davis-element", "t-set", "negative-target"],
)
def test_cli_element_arguments_are_range_checked(capsys, argv):
    code, _, err = run_cli(capsys, "avoid", "boolean", *argv)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--mode", "radical", "--t-set", "2", "--element", "5"], "--t-set"),
        (["--mode", "radical", "--element", "5"], "--element"),
        (["--mode", "semiring", "--t-set", ""], "--t-set"),
        (["--mode", "t-semiprime", "--t-set", "2", "--element", "1"], "--element"),
        (["--mode", "davis", "--element", "1", "--t-set", "2"], "--t-set"),
    ],
    ids=["radical-both", "radical-element", "semiring-empty-t-set", "t-semiprime-element", "davis-t-set"],
)
def test_cli_flags_of_another_mode_are_input_errors(capsys, argv, flag):
    """A flag that the chosen mode does not read is refused, not ignored,
    even when the element it names is out of range."""
    code, out, err = run_cli(capsys, "avoid", "chain-3", "--target", "1", "--cover", "1", *argv)
    assert code == 2 and out == ""
    assert "input error" in err and flag in err


@pytest.mark.parametrize("degree_cap,want", [("-1", 2), ("40", 3)])
def test_cli_zdiv_degree_cap_is_bounded(capsys, degree_cap, want):
    code, _, err = run_cli(capsys, "zdiv", "boolean", "--degree-cap", degree_cap)
    assert code == want
    assert ("input error" if want == 2 else "cap exceeded") in err


@pytest.mark.parametrize("command", ["ideals", "spec", "packed", "zdiv", "quotient"])
def test_cli_seventeen_elements_fit_the_ideal_cap(capsys, tmp_path, command):
    s = saturating(16)
    assert s.size == 17
    path = tmp_path / "saturating-17.json"
    path.write_text(json.dumps(structure_to_json(s)))
    code, out, _ = run_cli(capsys, command, str(path), "--json")
    assert code == 0
    assert json.loads(out)["job"]["command"] == command


def test_cli_cap_ideals_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["ideals", "boolean", "--cap-ideals", "40"])


def test_cli_unknown_scope_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--scope", "missing")
    assert code == 2


def test_cli_empty_scope_is_an_input_error(capsys):
    # an empty scope would run no check and report the full run's "scope": null
    for scope in ("", ",", ",,"):
        code, out, err = run_cli(capsys, "verify-all", "--scope", scope, "--json")
        assert code == 2 and out == ""
        assert "names no corpus entry" in err


def test_cli_corpus_listing(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--json")
    assert code == 0
    doc = json.loads(out)
    assert {row["name"] for row in doc["entries"]} >= {"boolean", "austere-z6"}


def test_cli_verify_scope_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--scope", "boolean", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tallies"]["failed"] == 0
    assert doc["tallies"]["checks"] > 0


def test_cli_verify_all_prints_its_report_and_exits_1_on_a_failed_check(capsys, monkeypatch):
    results = [CheckResult("b", FAIL, "broken"), CheckResult("a", PASS)]
    monkeypatch.setattr("semiringlab.cli.verify_all", lambda scope, seed: results)
    code, out, err = run_cli(capsys, "verify-all", "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["tallies"] == {"checks": 2, "passed": 1, "failed": 1, "skipped": 0}
    assert [row["check"] for row in doc["results"]] == ["a", "b"]


@pytest.mark.parametrize("command", ["packed", "zdiv", "quotient"])
def test_cli_one_element_ring_is_refused_for_zero_equal_one(capsys, tmp_path, command):
    s = CayleyStructure(size=1, add=[[0]], mul=[[0]], zero=0, one=0, name="trivial")
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(structure_to_json(s)))
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert "trivial is not a semiring: zero equals one" in err
    assert "fails" not in err


def test_not_a_semiring_names_only_semiring_conditions(capsys):
    code, _, err = run_cli(capsys, "packed", "bool3-cross")
    assert code == 2
    assert "bool3-cross is not a semiring: fails ['has_one', 'mul_associative']" in err
    for law in ("complemented", "entire", "mul_idempotent"):
        assert law not in err


def test_cli_timing_reports_the_analysis_context_on_stderr_only(capsys):
    argv = ("verify-all", "--scope", "boolean,chain-3", "--json")
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, timed, err = run_cli(capsys, *argv, "--timing")
    assert code == 0
    assert timed == plain
    assert re.fullmatch(
        r"elapsed: \d+\.\d\ds; analysis: \d+ contexts, \d+ facts computed, \d+ reads reused\n", err
    )
