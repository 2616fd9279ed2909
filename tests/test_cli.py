import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import spanforge
from spanforge import cli
from spanforge.cli import _build_parser, main
from spanforge.docs import (
    Document,
    decode_braiding,
    decode_module,
    decode_mon_functor,
    decode_nat_trans,
    encode_functor,
    encode_mon_functor,
    encode_nat_trans,
    parse,
    serialize,
)
from spanforge.fincat import (
    Budget,
    identity_functor,
    identity_nat_trans,
    terminal_category,
)
from spanforge.monoidal import check_braided_functor, identity_mon_functor

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name):
    return DATA / name


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_good_inputs(capsys):
    code, out, _ = run(capsys, "validate", data("terminal_category.json"),
                       data("z2_cocycle_monoidal.json"),
                       data("z3_bicharacter_braiding.json"))
    assert code == 0
    assert "ok" in out


def test_validate_broken_category_exits_one(capsys):
    code, out, _ = run(capsys, "validate", data("broken_category.json"))
    assert code == 1
    assert "associativity" in out


def test_validate_a_strict_tensor_not_associative_on_objects_exits_one(capsys):
    # Light's test finds a non-associative triple, and the lexicographic scan
    # then gives the witnesses and order of the full component scan
    code, out, err = run(capsys, "--report", "structured", "validate",
                         data("nonassoc_strict_monoidal.json"))
    assert (code, err) == (1, "")
    assert [(v["law"], v["witness"], v["detail"])
            for v in parse(out).payload["violations"]] == [
        ("associator-component", [1, 1, 1], "endpoints 2 -> 2, expected 2 -> 1"),
        ("associator-component", [1, 2, 1], "endpoints 2 -> 2, expected 2 -> 1")]


def test_validate_a_strict_tensor_breaking_identities_exits_one(capsys):
    # id⊗id = 1 on BZ/3: the strict pentagon is scanned through
    # _scan_pentagon, which reads a strict structure's components off its
    # tensor, with the witness and detail of oracles.reference_check_monoidal
    code, out, err = run(capsys, "--report", "structured", "validate",
                         data("strict_identity_breaking_monoidal.json"))
    assert (code, err) == (1, "")
    assert [(v["witness"], v["detail"]) for v in parse(out).payload["violations"]
            if v["law"] == "pentagon"][0] == ([0, 0, 0, 0], "paths 2 vs 0")


def test_validate_malformed_exits_two(capsys):
    code, _, err = run(capsys, "validate", data("malformed_dangling.json"))
    assert code == 2
    assert "dangling" in err


def test_validate_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", data("no_such_file.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_center_of_s3(capsys):
    code, out, _ = run(capsys, "--report", "structured",
                       "center", data("s3_discrete_monoidal.json"))
    assert code == 0
    doc = parse(out)
    assert doc.payload["summary"]["object_count"] == 1
    assert doc.payload["ok"] is True


def test_center_of_broken_monoidal_exits_one(capsys):
    code, out, _ = run(capsys, "center", data("broken_monoidal.json"))
    assert code == 1
    assert "pentagon" in out


def test_mueger_radical(capsys):
    code, out, _ = run(capsys, "--report", "structured",
                       "mueger", data("z3_bicharacter_braiding.json"))
    assert code == 0
    doc = parse(out)
    assert doc.payload["summary"]["transparent_objects"] == [0]
    assert doc.payload["summary"]["symmetric"] is True


def test_fiber_product_and_comma(capsys):
    code, out, _ = run(capsys, "--report", "structured", "fiber-product",
                       data("arrow_identity_functor.json"),
                       data("arrow_identity_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 2
    code, out, _ = run(capsys, "--report", "structured", "comma",
                       data("arrow_identity_functor.json"),
                       data("arrow_identity_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 3
    code, out, _ = run(capsys, "--report", "structured", "--orientation",
                       "reverse", "comma",
                       data("arrow_identity_functor.json"),
                       data("arrow_identity_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["orientation"] == "reverse"


@pytest.mark.parametrize("flags", [[], ["--report", "structured"]])
@pytest.mark.parametrize("command", ["fiber-product", "comma"])
def test_a_lawless_category_under_a_lawful_functor_is_an_input_violation(
        capsys, command, flags):
    # the identity functor of a unital, non-associative category passes
    # check_functor, so only the input category checks can see the fault;
    # both feet and the target are that one category, checked once
    feet = [data("nonassoc_identity_functor.json")] * 2
    code, out, err = run(capsys, *flags, command, *feet)
    assert (code, err) == (1, "")
    if flags:
        violations = parse(out).payload["violations"]
        assert [(v["subject"], v["law"], v["witness"]) for v in violations] == [
            ("input-left-source", "associativity", [1, 1, 1]),
            ("input-left-source", "associativity", [1, 2, 1])]
    else:
        assert out == (
            f"{command}: violations found\n"
            "  input-left-source: associativity at (1, 1, 1): "
            "1∘(1∘1) = 1 but (1∘1)∘1 = 2\n"
            "  input-left-source: associativity at (1, 2, 1): "
            "1∘(2∘1) = 1 but (1∘2)∘1 = 2\n")


MODULE_ACTION_VIOLATIONS = [
    ("mult-associativity", (0, 0, 1), "paths 3 vs 2"),
    ("mult-associativity", (0, 1, 1), "paths 3 vs 2"),
    ("mult-associativity", (1, 0, 1), "paths 2 vs 3"),
    ("mult-associativity", (1, 1, 1), "paths 3 vs 2"),
    ("left-unit-coherence", (1,), "path 3 vs 2")]


def identity_functor_document(tmp_path, module):
    """A functor document, written to tmp_path, of the identity functor of
    the carrier of the module document at path module."""
    carrier = decode_module(parse(module.read_text()).payload, Budget()).carrier
    path = tmp_path / "identity.json"
    path.write_text(serialize(Document(
        "functor", encode_functor(identity_functor(carrier)))))
    return path


# the files each command reads, and the subject of the action check, when
# every module is broken_module.json's
MODULE_ACTION_CALLS = {
    "build-span": (["broken_module_identity_functor.json"], "input-source-action"),
    "laxator": (["broken_module_identity_functor.json"] * 2,
                "input-left-source-action"),
    "laxator-coherence": (["broken_module_identity_functor.json"] * 3,
                          "input-first-source-action"),
    "module-structures": (["broken_module.json"] * 2 + ["identity"],
                          "input-dom-action"),
    "normalize-check": (["broken_module.json"], "input"),
}


@pytest.mark.parametrize("flags", [[], ["--report", "structured"]])
@pytest.mark.parametrize("command", sorted(MODULE_ACTION_CALLS))
def test_a_non_monoidal_action_under_a_module_functor_is_an_input_violation(
        capsys, tmp_path, command, flags):
    # the identity module functor of broken_module.json passes
    # check_module_functor, so only the module checks can see that its
    # action is not monoidal; every end is one module, checked once
    names, subject = MODULE_ACTION_CALLS[command]
    identity = identity_functor_document(tmp_path, data("broken_module.json"))
    argv = [identity if name == "identity" else data(name) for name in names]
    code, out, err = run(capsys, *flags, command, *argv)
    assert (code, err) == (1, "")
    if flags:
        violations = parse(out).payload["violations"]
        assert [(v["subject"], v["law"], tuple(v["witness"]), v["detail"])
                for v in violations] == [
            (subject, *entry) for entry in MODULE_ACTION_VIOLATIONS]
    else:
        assert out == f"{command}: violations found\n" + "".join(
            f"  {subject}: {law} at ({', '.join(map(str, witness))}): {detail}\n"
            for law, witness, detail in MODULE_ACTION_VIOLATIONS)


@pytest.mark.parametrize("command", ["module-structures", "normalize-check"])
def test_a_non_monoidal_acting_structure_is_an_input_violation(
        capsys, tmp_path, command):
    # swap_action_module.json with an ill-typed left unitor component in its
    # acting structure: the acting check reports it, and the action, read
    # against that structure, is not checked
    tree = json.loads(data("swap_action_module.json").read_text())
    tree["payload"]["acting"]["left_unitor"][1] = 0
    module = tmp_path / "module.json"
    module.write_text(json.dumps(tree))
    identity = identity_functor_document(tmp_path, module)
    argv = [module, module, identity] if command == "module-structures" else [module]
    code, out, err = run(capsys, "--report", "structured", command, *argv)
    assert (code, err) == (1, "")
    subject = "input-dom-acting" if command == "module-structures" else "input-acting"
    assert [(v["subject"], v["law"], v["witness"])
            for v in parse(out).payload["violations"]] == [
        (subject, "left-unitor-component", [1])]


@pytest.mark.parametrize("name", ["arrow_identity_functor.json",
                                  "broken_functor.json",
                                  "disc2_swap_functor.json"])
def test_fiber_product_and_comma_on_lawless_feet_never_raise(capsys, tmp_path, name):
    # delete one composition entry from either category of the functor and
    # feed the mutant as either foot: each run exits 1 or 2
    fixture = data(name)
    tree = json.loads(fixture.read_text())
    codes = []
    for side in ("source", "target"):
        for k in range(len(tree["payload"][side]["composition"])):
            mutant_tree = json.loads(fixture.read_text())
            del mutant_tree["payload"][side]["composition"][k]
            mutant = tmp_path / f"{side}-{k}.json"
            mutant.write_text(json.dumps(mutant_tree))
            for feet in ((mutant, fixture), (fixture, mutant)):
                for command in (["fiber-product"], ["comma"],
                                ["--orientation", "reverse", "comma"]):
                    code, _, err = run(capsys, *command, *feet)
                    assert code in (1, 2), (side, k, command, code)
                    assert code == 1 or err.startswith("error:")
                    codes.append(code)
    assert len(codes) == 6 * (len(tree["payload"]["source"]["composition"])
                              + len(tree["payload"]["target"]["composition"]))

def test_end_command(capsys):
    code, out, _ = run(capsys, "--report", "structured", "end",
                       data("walking_arrow.json"))
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 3


def test_centralizer_z1(capsys):
    code, out, _ = run(capsys, "--report", "structured", "centralizer", "z1",
                       data("toric_identity_mon_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 4


def test_centralizer_z2(capsys):
    code, out, _ = run(capsys, "--report", "structured", "centralizer", "z2",
                       data("disc_z2_identity_mon_functor.json"),
                       data("discrete_z2_braiding.json"),
                       data("discrete_z2_braiding.json"))
    assert code == 0
    assert parse(out).payload["summary"]["transparent_objects"] == [0, 1]


def test_intertwiner_z1(capsys):
    code, out, _ = run(capsys, "--report", "structured", "intertwiner", "z1",
                       data("disc_z2_identity_mon_functor.json"),
                       data("disc_z2_identity_mon_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 2


def test_braiding_over_a_lawless_unitor_exits_one(capsys, tmp_path):
    # change one entry of a unitor of the monoidal structure under the
    # braiding: mueger and validate law-check that structure first
    fixture = data("z3_bicharacter_braiding.json")
    monoidal = json.loads(fixture.read_text())["payload"]["monoidal"]
    mutants = 0
    for table in ("left_unitor", "right_unitor"):
        for x, old in enumerate(monoidal[table]):
            for new in range(len(monoidal["base"]["morphisms"])):
                if new == old:
                    continue
                tree = json.loads(fixture.read_text())
                tree["payload"]["monoidal"][table][x] = new
                mutant = tmp_path / f"{table}-{x}-{new}.json"
                mutant.write_text(json.dumps(tree))
                mutants += 1
                for command in ("mueger", "validate"):
                    code, out, _ = run(capsys, "--report", "structured",
                                       command, mutant)
                    assert code == 1, (table, x, new, command, code)
                    subjects = {v["subject"] for v in parse(out).payload["violations"]}
                    assert subjects and all(s.endswith("-monoidal") for s in subjects)
    assert mutants == 48


@pytest.mark.parametrize("scalar", [6, 8])
def test_z2_commands_law_check_their_braidings(capsys, tmp_path, scalar):
    # another scalar on the braiding component at (1, 1) breaks both
    # hexagons over a lawful monoidal structure
    fixture = data("z3_bicharacter_braiding.json")
    tree = json.loads(fixture.read_text())
    tree["payload"]["components"][1][1] = scalar
    braiding = tmp_path / "braiding.json"
    braiding.write_text(json.dumps(tree))
    ms = decode_braiding(parse(fixture.read_text()).payload).on
    ident = tmp_path / "identity.json"
    ident.write_text(serialize(Document(
        "mon_functor", encode_mon_functor(identity_mon_functor(ms)))))
    for command in (["centralizer", "z2", ident, braiding, braiding],
                    ["intertwiner", "z2", ident, ident, braiding, braiding]):
        code, out, _ = run(capsys, "--report", "structured", *command)
        assert code == 1, (command[0], code)
        violations = parse(out).payload["violations"]
        assert {v["subject"] for v in violations} == {"braiding-source",
                                                     "braiding-target"}
        assert {v["law"] for v in violations} == {"hexagon-forward",
                                                 "hexagon-reverse"}


@pytest.mark.parametrize("name", ["disc_z2_identity_mon_functor.json",
                                  "toric_identity_mon_functor.json"])
def test_mon_functor_on_lawless_source_base_exits_one(capsys, tmp_path, name):
    # delete one composition entry from the source base: every command that
    # takes the mon_functor reports the base law it breaks
    fixture = data(name)
    entries = len(json.loads(fixture.read_text())
                  ["payload"]["source"]["base"]["composition"])
    assert entries > 0
    for k in range(entries):
        tree = json.loads(fixture.read_text())
        del tree["payload"]["source"]["base"]["composition"][k]
        mutant = tmp_path / f"source-{k}.json"
        mutant.write_text(json.dumps(tree))
        for command in (["validate", mutant], ["centralizer", "z1", mutant],
                        ["intertwiner", "z1", mutant, mutant]):
            code, out, _ = run(capsys, "--report", "structured", *command)
            assert code == 1, (k, command[0], code)
            laws = [v["law"] for v in parse(out).payload["violations"]]
            assert laws and all(law.startswith("base-") for law in laws), laws


def test_build_span_and_wrong_kind(capsys):
    code, out, _ = run(capsys, "--report", "structured", "build-span",
                       data("arrow_identity_module_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["apex_objects"] == 3
    code, _, err = run(capsys, "build-span", data("terminal_category.json"))
    assert code == 2
    assert "kind" in err


def test_build_two_span(capsys):
    code, out, _ = run(capsys, "--report", "structured", "build-2span",
                       data("arrow_const0_to_id_module_nattrans.json"))
    assert code == 0
    assert parse(out).payload["ok"] is True


def test_laxator_profile(capsys):
    code, out, _ = run(capsys, "--report", "structured", "laxator",
                       data("disc2_into_arrow_module_functor.json"),
                       data("arrow_into_bz2_module_functor.json"))
    assert code == 0
    summary = parse(out).payload["summary"]
    assert summary["essentially_surjective"] is False
    assert "missed_object" in summary


def test_laxator_mismatched_modules_exits_two(capsys):
    code, _, err = run(capsys, "laxator",
                       data("arrow_identity_module_functor.json"),
                       data("disc2_into_arrow_module_functor.json"))
    assert code == 2


def test_laxator_coherence_cli(capsys):
    code, out, _ = run(capsys, "--report", "structured", "laxator-coherence",
                       data("disc2_into_arrow_module_functor.json"),
                       data("arrow_to_terminal_module_functor.json"),
                       data("terminal_identity_module_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["cell_is_identity"] is True


def test_module_structures_cli(capsys):
    code, out, _ = run(capsys, "--report", "structured", "module-structures",
                       data("swap_action_module.json"),
                       data("swap_action_module.json"),
                       data("disc2_swap_functor.json"))
    assert code == 0
    assert parse(out).payload["summary"]["structure_count"] == 1


def test_normalize_check_cli(capsys):
    code, out, _ = run(capsys, "--report", "structured", "normalize-check",
                       data("arrow_trivial_module.json"))
    assert code == 0
    assert parse(out).payload["summary"]["bijective_on_objects"] is True


def test_central_check_z2_cli(capsys):
    code, out, _ = run(capsys, "--report", "structured", "central-check", "z2",
                       data("discrete_z2_braiding.json"),
                       data("discrete_z2_braiding.json"),
                       data("discrete_z2_braiding.json"),
                       data("disc_z2_mueger_action.json"),
                       data("disc_z2_mueger_action.json"),
                       data("disc_z2_identity_mon_functor.json"),
                       data("disc_z2_psi.json"))
    assert code == 0
    summary = parse(out).payload["summary"]
    assert summary["fiber_objects"] == 2
    assert summary["induced_exists"] is True


# base braiding, two actions, the candidate and psi over the grading module
# of test_central, whose action lands in the Drinfeld center of toric Z/2
CENTRAL_Z1 = ["discrete_z2_braiding.json", "toric_z2_grading_action.json",
              "toric_z2_grading_action.json", "toric_identity_mon_functor.json",
              "toric_z2_psi.json"]
# base braiding, two carrier braidings, two actions, the candidate and psi
CENTRAL_Z2 = ["discrete_z2_braiding.json", "discrete_z2_braiding.json",
              "discrete_z2_braiding.json", "disc_z2_mueger_action.json",
              "disc_z2_mueger_action.json", "disc_z2_identity_mon_functor.json",
              "disc_z2_psi.json"]


@pytest.mark.parametrize("psi, code, laws", [
    ("toric_z2_psi.json", 0, []),
    ("toric_z2_psi_bad.json", 1, ["induced-mult"]),
])
def test_central_check_z1_cli(capsys, psi, code, laws):
    got, out, _ = run(capsys, "--report", "structured", "central-check", "z1",
                      *map(data, CENTRAL_Z1[:4] + [psi]))
    assert got == code
    payload = parse(out).payload
    assert [v["law"] for v in payload["violations"]] == laws
    assert payload["summary"]["fiber_objects"] == 8
    assert payload["summary"]["induced_exists"] is (code == 0)


# the unit module over the terminal base on skeletal S3 with Z/2 scalars, and
# the identity candidate with its multiplicativity cell at (1, 2) twisted by
# the non-trivial scalar; the Drinfeld center lies over the unit object
CENTRAL_S3 = ["terminal_braiding.json", "s3_z2_unit_action.json",
              "s3_z2_unit_action.json", "s3_z2_twisted_mon_functor.json",
              "s3_z2_unit_psi.json"]
S3_ASSOCIATIVITY_FAILURES = [
    ((1, 1, 2), 4, 5), ((1, 1, 4), 8, 9), ((1, 2, 1), 11, 10),
    ((1, 2, 2), 3, 2), ((1, 2, 3), 1, 0), ((1, 2, 4), 7, 6), ((1, 2, 5), 5, 4),
    ((1, 3, 1), 8, 9), ((1, 4, 5), 8, 9), ((1, 5, 3), 8, 9), ((2, 1, 2), 10, 11),
    ((2, 3, 2), 9, 8), ((3, 1, 2), 0, 1), ((3, 5, 2), 9, 8), ((4, 1, 2), 6, 7),
    ((4, 2, 2), 9, 8), ((5, 1, 2), 2, 3), ((5, 4, 2), 9, 8)]


def test_central_check_z1_checks_the_candidate(capsys):
    # no half-braiding reads the twisted cell, so push, pull, the fiber and
    # the induced functor could be built as for the identity, and a check of
    # those alone printed "central-check: ok" with exit 0; the candidate
    # fails its own check, so it is reported alone and nothing is built
    code, out, _ = run(capsys, "central-check", "z1", *map(data, CENTRAL_S3))
    assert code == 1
    assert out.splitlines() == [
        "central-check: violations found",
        "  induced_exists = False",
        *(f"  central: candidate-mult-associativity at ({x}, {y}, {z}): "
          f"paths {lhs} vs {rhs}"
          for (x, y, z), lhs, rhs in S3_ASSOCIATIVITY_FAILURES)]
    code, out, _ = run(capsys, "validate", data(CENTRAL_S3[3]))
    assert code == 1 and "mult-associativity at (1, 1, 2)" in out



def test_central_check_z1_reports_a_candidate_a_lift_reads(capsys, tmp_path):
    # the grading candidate with its multiplicativity cell at (0, 0) set to
    # the other automorphism: the lifts into the centralizer read that cell,
    # and building them from it raised "associator pair is not an apex
    # morphism" (exit 2); the candidate is now reported alone
    files = [data(name) for name in CENTRAL_Z1]
    tree = json.loads(files[3].read_text())
    tree["payload"]["mult"][0][0] = 1
    files[3] = tmp_path / "candidate.json"
    files[3].write_text(json.dumps(tree))
    code, out, err = run(capsys, "central-check", "z1", *files)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "central-check: violations found",
        "  induced_exists = False",
        "  central: candidate-mult-associativity at (0, 0, 1): paths 3 vs 2",
        "  central: candidate-mult-associativity at (0, 1, 1): paths 0 vs 1",
        "  central: candidate-mult-associativity at (1, 0, 0): paths 2 vs 3",
        "  central: candidate-mult-associativity at (1, 1, 0): paths 1 vs 0",
        "  central: candidate-left-unit-coherence at (0): path 1 vs 0",
        "  central: candidate-right-unit-coherence at (0): path 1 vs 0"]

# the z3-pairing setup of test_central over the terminal base, with an
# identity candidate whose morphism map sends the scalar 1 at the unit to
# the scalar 2, so that it is not a functor
CENTRAL_Z2_MUTANT = ["terminal_braiding.json", "z3_bicharacter_braiding.json",
                     "z3_bicharacter_braiding.json", "z3_pairing_unit_action.json",
                     "z3_pairing_unit_action.json",
                     "z3_pairing_mutant_mon_functor.json", "z3_pairing_unit_psi.json"]


def test_central_check_z2_reports_a_failing_candidate_alone(capsys):
    # building the braided centralizer functors from this candidate raised
    # "fiber product: the composite of morphisms 1 and 1 is not a morphism"
    # (exit 2); the candidate's check is now reported alone, as over a
    # braided base
    files = [data(name) for name in CENTRAL_Z2_MUTANT]
    code, out, err = run(capsys, "--report", "structured", "central-check",
                         "z2", *files)
    assert (code, err) == (1, "")
    braiding = decode_braiding(parse(files[1].read_text()).payload)
    candidate = decode_mon_functor(parse(files[5].read_text()).payload)
    own = check_braided_functor(candidate, braiding, braiding).violations
    assert own and [v["law"] for v in parse(out).payload["violations"]] \
        == ["candidate-" + v.law for v in own]


def _drop_first_composite(tree, *path):
    for key in path:
        tree = tree[key]
    del tree["base"]["composition"][0]


def _misdirect_first_braiding(tree):
    # the component at (0, 1) becomes the identity of the unit: wrong endpoints
    tree["components"][0][1] = 0


@pytest.mark.parametrize("variant, position, mutate, subject", [
    ("z1", 0, lambda t: _drop_first_composite(t, "monoidal"), "base-monoidal"),
    ("z1", 0, _misdirect_first_braiding, "base"),
    ("z1", 3, lambda t: _drop_first_composite(t, "source"), "candidate-source"),
    ("z1", 3, lambda t: _drop_first_composite(t, "target"), "candidate-target"),
    ("z2", 0, lambda t: _drop_first_composite(t, "monoidal"), "base-monoidal"),
    ("z2", 1, _misdirect_first_braiding, "carrier-left"),
    ("z2", 2, lambda t: _drop_first_composite(t, "monoidal"),
     "carrier-right-monoidal"),
    ("z2", 2, _misdirect_first_braiding, "carrier-right"),
])
def test_central_check_law_checks_its_inputs_first(capsys, tmp_path, variant,
                                                   position, mutate, subject):
    # a lawless input is reported under its own subject before any center
    # is built from it
    files = [data(name) for name in
             (CENTRAL_Z1 if variant == "z1" else CENTRAL_Z2)]
    tree = json.loads(files[position].read_text())
    mutate(tree["payload"])
    files[position] = tmp_path / "mutant.json"
    files[position].write_text(json.dumps(tree))
    code, out, _ = run(capsys, "--report", "structured", "central-check",
                       variant, *files)
    assert code == 1
    subjects = {v["subject"] for v in parse(out).payload["violations"]}
    assert subjects == {subject}


@pytest.mark.parametrize("variant, short", [
    ("z2", "psi"), ("z1", "psi_h"), ("z2", "psi_h"), ("z1", "phi"),
    ("z2", "phi"),
])
def test_central_check_rejects_short_comparisons(capsys, tmp_path, variant,
                                                 short):
    # a one-component nat_trans is too short for psi, psi_h and phi; the
    # document schema ties its component count to its declared source, so
    # its declared functors cannot be the ones its position requires
    files = [data(name) for name in
             (CENTRAL_Z1 if variant == "z1" else CENTRAL_Z2)]
    g = decode_mon_functor(parse(files[-2].read_text()).payload)
    # the second candidate is the first, phi the identity transformation
    files += files[-2:] + [tmp_path / "phi.json"]
    files[-1].write_text(serialize(Document("nat_trans", encode_nat_trans(
        identity_nat_trans(g.underlying)))))
    position = {"psi": len(files) - 4, "psi_h": -2, "phi": -1}[short]
    files[position] = tmp_path / "short.json"
    files[position].write_text(serialize(Document("nat_trans", encode_nat_trans(
        identity_nat_trans(identity_functor(terminal_category()))))))
    if short == "psi":
        files = files[:-3]
    code, out, err = run(capsys, "central-check", variant, *files)
    assert code == 2
    assert err.startswith(f"error: {short} does not run from the ")
    assert out == ""


def test_central_check_reads_the_declared_functors(capsys, tmp_path):
    # each comparison document names its source and target functors; one
    # with an object misplaced is refused though its components are those
    # of a passing setup
    def misplaced(fun):
        objects = fun.object_map
        return replace(fun, object_map=(objects[1], objects[0]) + objects[2:])

    files = [data(name) for name in CENTRAL_Z1]
    g = decode_mon_functor(parse(files[-2].read_text()).payload)
    psi = decode_nat_trans(parse(files[-1].read_text()).payload)
    phi = identity_nat_trans(g.underlying)
    files += files[-2:] + [tmp_path / "phi.json"]
    files[-1].write_text(serialize(Document("nat_trans", encode_nat_trans(phi))))
    code, _, err = run(capsys, "central-check", "z1", *files)
    assert code == 0, err
    cases = [(-1, replace(phi, source=misplaced(phi.source)),
              "error: phi does not run from the first candidate"),
             (4, replace(psi, target=misplaced(psi.target)),
              "error: psi does not run from the candidate"),
             (-2, replace(psi, source=misplaced(psi.source)),
              "error: psi_h does not run from the candidate")]
    for position, nat, message in cases:
        argv = list(files)
        argv[position] = tmp_path / "mutant.json"
        argv[position].write_text(
            serialize(Document("nat_trans", encode_nat_trans(nat))))
        code, out, err = run(capsys, "central-check", "z1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(message)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_flags_accepted_after_subcommand(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "center", data("s3_discrete_monoidal.json"),
                       "--report", "structured", "--out", out_path)
    assert code == 0
    assert parse(out).payload["summary"]["object_count"] == 1
    assert out_path.exists()
    code, out, _ = run(capsys, "comma", data("arrow_identity_functor.json"),
                       data("arrow_identity_functor.json"),
                       "--orientation", "reverse", "--report", "structured")
    assert code == 0
    assert parse(out).payload["summary"]["orientation"] == "reverse"


def test_structured_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "--report", "structured", "center",
                      data("z2_trivial_monoidal.json"))
    _, second, _ = run(capsys, "--report", "structured", "center",
                      data("z2_trivial_monoidal.json"))
    assert first == second
    parse(first)  # the report is itself a valid document


def test_out_writes_structured_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "--out", out_path, "center",
                     data("z2_trivial_monoidal.json"))
    assert code == 0
    doc = parse(out_path.read_text())
    assert doc.kind == "report"
    assert doc.payload["command"] == "center"


def test_no_output_file_on_structural_error(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "--out", out_path, "center",
                     data("malformed_dangling.json"))
    assert code == 2
    assert not out_path.exists()


def test_out_written_even_on_violation(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "--out", out_path, "center",
                     data("broken_monoidal.json"))
    assert code == 1
    assert parse(out_path.read_text()).payload["ok"] is False


def test_stdin_convention(capsys, monkeypatch):
    import io
    text = data("terminal_category.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0


def test_budget_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "--cap", "1", "end", data("walking_arrow.json"))
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("SPANFORGE_CAP", "1")
    code, _, err = run(capsys, "end", data("walking_arrow.json"))
    assert code == 2
    monkeypatch.delenv("SPANFORGE_CAP")
    code, _, _ = run(capsys, "end", data("walking_arrow.json"))
    assert code == 0


def test_non_integer_cap_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SPANFORGE_CAP", "abc")
    code, _, err = run(capsys, "validate", data("walking_arrow.json"))
    assert code == 2
    assert err.startswith("error:") and "SPANFORGE_CAP" in err


def test_module_on_lawless_carrier_exits_two(capsys, tmp_path):
    tree = json.loads(data("arrow_trivial_module.json").read_text())
    composition = tree["payload"]["carrier"]["composition"]
    assert composition[2][0] == 2
    composition[2][0] = 1
    mutant = tmp_path / "lawless_carrier_module.json"
    mutant.write_text(json.dumps(tree))
    code, _, err = run(capsys, "validate", mutant)
    assert code == 2
    assert err.startswith("error:") and "carrier is not a category" in err


def assert_clean_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


UNREADABLE = {
    "undecodable": b"\xff\xfe",
    "deeply-nested": b"[" * 200_000 + b"]" * 200_000,
    "huge-integer": b'{"format": 1, "kind": "category", "payload": '
                    + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_exits_two(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE[name])
    assert_clean_error(*run(capsys, "validate", path))


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_two_before_printing(capsys, tmp_path, target):
    out_path = tmp_path / "missing" / "r.json" if target == "missing-dir" else tmp_path
    code, out, err = run(capsys, "--out", out_path, "validate",
                         data("terminal_category.json"))
    assert_clean_error(code, out, err)
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert list(tmp_path.iterdir()) == []


def test_readme_lists_every_subcommand():
    # the subcommands of the parser are exactly the `spanforge <subcommand>`
    # lines of the README's CLI block
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    cli_block = next(b for b in blocks if b.startswith("spanforge "))
    documented = {line.split()[1] for line in cli_block.splitlines()
                  if line.startswith("spanforge ")}
    parsers = [a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert len(parsers) == 1
    assert set(parsers[0].choices) == documented
    assert len(documented) == 15


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _exit_matrix_calls():
    # the acceptance suite's exit-code matrix in both report modes, human by
    # default so that a default left behind by an earlier call shows: 90 calls
    from test_acceptance import EXIT_MATRIX

    return [[*flags,
             *(str(data(a)) if a.endswith(".json") else a for a in argv)]
            for flags in ([], ["--report", "structured"])
            for _, cases in EXIT_MATRIX for _, argv in sorted(cases.items())]


# sha256 of [argv, exit code, stdout, stderr] for every EXIT_MATRIX call in
# both report modes, run from tests/data on bare file names; computed while
# the CLI still law-checked every output it built, so the digest pins that
# dropping those checks changed no byte of any report
EXIT_MATRIX_DIGEST = \
    "70bc1fdb5f021dd51dee9e4eb2dfc5568500181b74294449bc7ef63fc2ad9a2c"


def test_exit_matrix_outputs_match_the_pinned_digest(capsys, monkeypatch):
    from test_acceptance import EXIT_MATRIX

    monkeypatch.chdir(DATA)
    rows = [[argv, *run(capsys, *argv)]
            for flags in ([], ["--report", "structured"])
            for _, cases in EXIT_MATRIX
            for argv in ([*flags, *case] for _, case in sorted(cases.items()))]
    assert len(rows) == 90
    blob = json.dumps(rows, ensure_ascii=False, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == EXIT_MATRIX_DIGEST


def _outputs(capsys, calls):
    return {tuple(argv): run(capsys, *argv) for argv in calls}


def test_repeated_calls_share_no_state(capsys):
    # main builds its parser once per process; running the matrix again, in
    # reverse order, must give every call the same code, stdout and stderr
    calls = _exit_matrix_calls()
    first = _outputs(capsys, calls)
    assert len(first) == 90
    assert _outputs(capsys, calls[::-1]) == first


def _usage_outputs(capsys, parse):
    """Exit status, stdout and stderr of parse(argv) on -h, on every
    subcommand's -h and on one argparse usage error per kind."""
    subcommands = next(a.choices for a in _build_parser.__wrapped__()._actions
                       if isinstance(a, argparse._SubParsersAction))
    argvs = [["-h"], *([name, "-h"] for name in subcommands),
             ["no-such-command"],
             ["--report", "bogus", "validate", "doc.json"],
             ["center"]]
    outputs = []
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outputs.append((argv, exc.value.code, *capsys.readouterr()))
    return outputs


def test_help_and_usage_errors_match_a_fresh_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _outputs(capsys, _exit_matrix_calls())
    fresh = _usage_outputs(
        capsys, lambda argv: _build_parser.__wrapped__().parse_args(argv))
    assert [code for _, code, _, _ in fresh] == [0] * 16 + [2] * 3
    assert _usage_outputs(capsys, main) == fresh


def test_importing_the_cli_builds_no_parser():
    src = pathlib.Path(spanforge.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c", "import spanforge.cli as cli; "
         "print(cli._build_parser.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert probe.stdout == "0\n"


def test_reports_are_serialized_only_when_written(capsys, monkeypatch,
                                                 tmp_path):
    written = []
    real = cli.serialize

    def counted(doc):
        written.append(doc.kind)
        return real(doc)

    monkeypatch.setattr(cli, "serialize", counted)
    for flags, count in ((["--report", "human"], 0),
                         (["--report", "structured"], 1),
                         (["--out", "-"], 1),
                         (["--out", tmp_path / "report.json"], 1)):
        written.clear()
        code, _, _ = run(capsys, *flags, "center",
                         data("z2_trivial_monoidal.json"))
        assert (code, written) == (0, ["report"] * count), flags
