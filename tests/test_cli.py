import json
import pathlib

import pytest

from spanforge.cli import main
from spanforge.docs import parse

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
