import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import forged_deep_certificate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdlfix import hierarchy, semantics
from pdlfix.cli import main
from pdlfix.generators import derive_seed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_classify_worked_example(capsys):
    code, doc = run_json(capsys, "classify", "--var", "X", "p & [a](q | (r & X))")
    assert code == 0
    assert doc["status"] == "classified"
    assert doc["kind"] == "Pi"
    assert doc["level"] == 2
    assert doc["pairs"] == [
        {"phi": "false", "psi": "p", "alpha": None},
        {"phi": "q", "psi": "r", "alpha": "a"},
    ]


def test_classify_x_free(capsys):
    code, doc = run_json(capsys, "classify", "--var", "X", "p")
    assert code == 0
    assert doc["status"] == "x-free"


def test_classify_not_in_class(capsys):
    code, doc = run_json(capsys, "classify", "--var", "X", "[X?]p")
    assert code == 2
    assert doc["status"] == "not-in-class"


def test_classify_strict_rejects_commuted_layers(capsys):
    code, doc = run_json(capsys, "classify", "--var", "X", "(q & X) | p")
    assert code == 0
    code, doc = run_json(capsys, "classify", "--var", "X", "--strict", "(q & X) | p")
    assert code == 2
    assert doc["status"] == "not-in-class"


def test_classify_parse_error_has_position(capsys):
    code, doc = run_json(capsys, "classify", "--var", "X", "p & (")
    assert code == 2
    assert "line 1" in doc["message"]


def test_solve_prints_the_worked_example_solution(capsys):
    code, out = run(capsys, "solve", "--var", "X", "p & [a](q | (r & X))")
    assert code == 0
    assert out.strip() == "[(true? ; a ; (~q)?)*]([true?]p & [true? ; a ; (~q)?]r)"


def test_solve_bare_unknown(capsys):
    code, out = run(capsys, "solve", "--var", "X", "X")
    assert code == 0
    assert out.strip() == "[true?*][true?]true"


def test_solve_not_in_class_exits_2(capsys):
    code, _ = run(capsys, "solve", "--var", "X", "[X?]p")
    assert code == 2


def test_solve_with_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, doc = run_json(capsys, "solve", "--var", "X", "--certify", str(cert_path),
                         "p & [a](q | (r & X))")
    assert code == 0
    assert doc["certificateGroups"] == [["E4"], ["E1", "E3"], ["E1", "E5"], ["E3"], ["E7"]]
    code, doc = run_json(capsys, "verify-cert", str(cert_path))
    assert code == 0
    assert doc["ok"] is True


def test_formula_from_file(tmp_path, capsys):
    path = tmp_path / "phi.txt"
    path.write_text("p & [a](q | (r & X))")
    code, out = run(capsys, "solve", "--var", "X", f"@{path}")
    assert code == 0
    assert out.startswith("[(true? ; a ; (~q)?)*]")


def test_check_counterexample_exits_1(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "worlds": ["w0"], "programs": {},
        "valuation": {"p": ["w0"], "q": ["w0"]},
    }))
    code, doc = run_json(capsys, "check", "--var", "X",
                         "--equation", "p & (q | X)", "--candidate", "~p & q",
                         "--model", str(model))
    assert code == 1
    assert doc["counterexampleWorld"] == "w0"


def test_check_random_suite_passes(capsys):
    code, doc = run_json(capsys, "check", "--var", "X",
                         "--equation", "p & (q | X)", "--candidate", "<p?*><p?>q",
                         "--random", "200", "--seed", "5")
    assert code == 0
    assert doc["checked"] == 200


def test_check_random_models_follow_first_occurrence_of_program_names(capsys, monkeypatch):
    # b occurs before a, and the seeded models are drawn in that order.  The
    # counterexample has one world and no edge, so its programs cannot show
    # the order: the drawn models' parameters do.
    drawn = counting(monkeypatch, semantics, "random_model")
    code, doc = run_json(capsys, "check", "--var", "X", "--equation", "[b](p | <a>X)",
                         "--candidate", "p", "--random", "20", "--worlds", "2", "--seed", "4")
    assert code == 1
    assert doc == {
        "passed": False, "x": "X", "equation": "[b](p | <a>X)", "candidate": "p",
        "instantiated": "[b](p | <a>p)", "counterexampleWorld": "w0",
        "model": {"worlds": ["w0"], "programs": {"a": [], "b": []},
                  "valuation": {"X": [], "p": []}},
        "checked": 1, "seed": 4,
    }
    assert [params.prog_names for (params,) in drawn] == [("b", "a")]


def test_a_check_counterexample_replays_from_its_seed_and_index(capsys):
    # The failing model is the one drawn from derive_seed(seed, checked - 1),
    # whatever models came before it; the document gives its world count.
    for seed in range(8):
        code, doc = run_json(capsys, "check", "--var", "X", "--equation",
                             "[a](p | <b>X) & (q | X)", "--candidate", "p",
                             "--random", "50", "--seed", str(seed))
        assert code == 1
        model = semantics.random_model(semantics.ModelGenParams(
            world_count=len(doc["model"]["worlds"]), atom_names=("p", "q"), var_names=("X",),
            prog_names=("a", "b"), seed=derive_seed(seed, doc["checked"] - 1)))
        assert semantics.model_to_json(model) == doc["model"]


def test_check_candidate_with_unknown_exits_2(capsys):
    code, _ = run(capsys, "check", "--var", "X", "--equation", "p & (q | X)",
                  "--candidate", "p & X", "--random", "3")
    assert code == 2


def test_check_malformed_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _ = run(capsys, "check", "--var", "X", "--equation", "p | X",
                  "--candidate", "true", "--model", str(bad))
    assert code == 2
    bad.write_text(json.dumps({"worlds": ["w0"], "programs": [1]}))
    code, doc = run_json(capsys, "check", "--var", "X", "--equation", "p | X",
                         "--candidate", "true", "--model", str(bad))
    assert code == 2
    assert doc["status"] == "error"
    assert doc["message"].startswith("malformed model document")


def test_check_model_with_a_list_as_world_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": [["w0"]], "valuation": {"p": [["w0"]]}}))
    code, doc = run_json(capsys, "check", "--var", "X", "--equation", "p | X",
                         "--candidate", "true", "--model", str(bad))
    assert code == 2
    assert doc["status"] == "error"
    assert doc["message"] == ("malformed model document: "
                              "a world name must be a string or an integer, got ['w0']")


def test_fuzz_rules_scope(capsys):
    code, doc = run_json(capsys, "fuzz", "--scope", "rules", "--trials", "10",
                         "--models-per-trial", "4", "--seed", "3")
    assert code == 0
    assert doc["failures"] == 0
    assert doc["checks"] > 0


def test_fuzz_solutions_scope(capsys):
    code, doc = run_json(capsys, "fuzz", "--scope", "solutions", "--trials", "12",
                         "--models-per-trial", "4", "--seed", "3")
    assert code == 0
    assert doc["failures"] == 0
    assert list(doc) == ["command", "scope", "seed", "trials", "checks", "failures",
                         "firstCounterexample", "wallTime"]


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls.  The CLI
    imports what a command uses when the command runs, so wrap a name in the
    module that defines it, not in ``pdlfix.cli``."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_check_draws_no_model_after_the_first_counterexample(capsys, monkeypatch):
    drawn = counting(monkeypatch, semantics, "random_model")
    code, doc = run_json(capsys, "check", "--var", "X", "--equation", "p & (q | X)",
                         "--candidate", "<(~p)?*><(~p)?>q", "--random", "100000")
    assert code == 1
    assert doc["checked"] == 1
    assert len(drawn) == 1


def test_solve_certify_classifies_once(tmp_path, capsys, monkeypatch):
    matches = counting(monkeypatch, hierarchy, "_match_pi")
    code, doc = run_json(capsys, "solve", "--certify", str(tmp_path / "c.json"),
                         "--var", "X", "<a>(p & (q | X))")
    assert code == 0
    assert doc["decomposition"]["kind"] == "Sigma"
    assert len(matches) == 2  # Pi fails, Sigma matches


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_a_not_in_class_input_is_matched_once_per_side(capsys, monkeypatch, command):
    matches = counting(monkeypatch, hierarchy, "_match_pi")
    code, doc = run_json(capsys, command, "--var", "X", "X & X")
    assert code == 2
    assert doc["status"] == "not-in-class"
    assert "both operands of layer 1 contain X" in doc["detail"]
    assert len(matches) == 2  # the reasons come from the same two matches


@pytest.mark.parametrize("argv, key, count", [
    (["check", "--var", "X", "--equation", "p & (q | X)", "--candidate", "<p?*><p?>q",
      "--random", "20"], "checked", 20),
    (["fuzz", "--scope", "solutions", "--trials", "8", "--models-per-trial", "5"], "checks", 40),
], ids=["check", "fuzz"])
def test_passing_runs_build_no_equation_report(capsys, monkeypatch, argv, key, count):
    reports = counting(monkeypatch, semantics, "check_solution_on")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc[key] == count
    assert reports == []


def test_a_refuted_check_builds_one_equation_report(capsys, monkeypatch):
    # The control for the test above: the wrapper does see the CLI's calls.
    reports = counting(monkeypatch, semantics, "check_solution_on")
    code, doc = run_json(capsys, "check", "--var", "X", "--equation", "p & (q | X)",
                         "--candidate", "<(~p)?*><(~p)?>q", "--random", "20")
    assert code == 1
    assert doc["checked"] == 1
    assert len(reports) == 1


def test_fuzz_too_many_pairs_for_the_stack_exits_2(capsys):
    # The nested form of a few hundred pairs outgrows the recursion limit.
    code, doc = run_json(capsys, "fuzz", "--scope", "solutions", "--trials", "8",
                         "--models-per-trial", "1", "--max-pairs", "400", "--seed", "0")
    assert code == 2
    assert doc["status"] == "error"
    assert "--max-pairs" in doc["message"]


def test_fuzz_is_reproducible(capsys):
    _, first = run_json(capsys, "fuzz", "--scope", "solutions", "--trials", "8",
                        "--models-per-trial", "3", "--seed", "21")
    _, second = run_json(capsys, "fuzz", "--scope", "solutions", "--trials", "8",
                         "--models-per-trial", "3", "--seed", "21")
    first.pop("wallTime")
    second.pop("wallTime")
    assert first == second


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("PDLFIX_SEED", "77")
    code, doc = run_json(capsys, "fuzz", "--scope", "rules", "--trials", "2",
                         "--models-per-trial", "2", "--seed", "3")
    assert code == 0
    assert doc["seed"] == 77


def test_verify_cert_rejects_tampering(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "solve", "--var", "X", "--certify", str(cert_path),
                  "p & [a](q | (r & X))")
    assert code == 0
    doc = json.loads(cert_path.read_text())
    doc["steps"][3]["bindings"]["phi"] = "false"
    cert_path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify-cert", str(cert_path))
    assert code == 1
    assert report["failedStep"] == 3


def test_verify_cert_rejects_a_binding_the_rule_does_not_have(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "solve", "--var", "X", "--certify", str(cert_path),
                  "p & [a](q | (r & X))")
    assert code == 0
    doc = json.loads(cert_path.read_text())
    doc["steps"][0]["bindings"]["zzz"] = "p"
    cert_path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify-cert", str(cert_path))
    assert code == 1
    assert (report["ok"], report["failedStep"]) == (False, 0)
    assert report["reason"] == "E4 has no metavariable 'zzz'"


@pytest.mark.parametrize("equation, target", [
    ("p | X", "p | true & [(~p)?*][(~p)?]true"),
    ("(q & X) | p", "p | q & [(~p)?*][(~p)?]q"),
])
def test_certificate_targets_stated_in_discrepancies_section_5(tmp_path, capsys, equation, target):
    cert_path = tmp_path / "c.json"
    code, _ = run(capsys, "solve", "--var", "X", "--certify", str(cert_path), equation)
    assert code == 0
    assert json.loads(cert_path.read_text())["to"] == target
    notes = Path(__file__).resolve().parent.parent / "DISCREPANCIES.md"
    assert f'"to": "{target}"' in notes.read_text()


def test_verify_cert_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _ = run(capsys, "verify-cert", str(bad))
    assert code == 2
    bad.write_text(json.dumps({"from": "p", "to": "p", "steps": [
        {"rule": "E5", "direction": "LR", "path": [], "bindings": [], "group": 1}]}))
    code, doc = run_json(capsys, "verify-cert", str(bad))
    assert code == 2
    assert doc["status"] == "error"
    assert doc["message"].startswith("malformed certificate document")


def test_verify_cert_names_a_file_that_is_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    message = (f"malformed certificate file {bad}: "
               "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")
    code, out = run(capsys, "verify-cert", str(bad))
    assert (code, out) == (2, f"error: {message}\n")
    code, doc = run_json(capsys, "verify-cert", str(bad))
    assert (code, doc) == (2, {"status": "error", "message": message})


def test_verify_cert_rejects_a_deep_forged_certificate_at_its_step(tmp_path, capsys):
    # The last step does not apply to the formula, too deep to print: a
    # mismatch to report, not an internal error.
    cert_path = tmp_path / "forged.json"
    cert_path.write_text(json.dumps(forged_deep_certificate()))
    code, report = run_json(capsys, "verify-cert", str(cert_path))
    assert code == 1
    assert (report["ok"], report["failedStep"]) == (False, 500)
    assert report["reason"].startswith("E5 RL does not apply at []")


@pytest.mark.parametrize("edit", [
    lambda step: step.update(path=[i + 0.9 for i in step["path"]], group=step["group"] + 0.5),
    lambda step: step.update(group=True),
    lambda step: step.update(path="".join(map(str, step["path"]))),
], ids=["floats", "group-bool", "path-string"])
def test_verify_cert_rejects_paths_and_groups_that_are_not_integers(tmp_path, capsys, edit):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "solve", "--var", "X", "--certify", str(cert_path),
                  "p & [a](q | (r & X))")
    assert code == 0
    doc = json.loads(cert_path.read_text())
    for step in doc["steps"]:
        edit(step)
    cert_path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify-cert", str(cert_path))
    assert code == 2
    assert report["status"] == "error"
    assert report["message"].startswith("malformed certificate document: ")
    assert "must be" in report["message"] and "integer" in report["message"]


def test_usage_error_exits_2(capsys):
    assert main(["classify"]) == 2  # missing --var and formula


def test_lowercase_var_rejected(capsys):
    code, _ = run(capsys, "classify", "--var", "x", "p & q")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    pytest.param("p & É", "variable name must be an uppercase identifier: 'É' (line 1, column 5)",
                 id="variable"),
    pytest.param("p²", "atom name must be a lowercase identifier (not a keyword): 'p²'"
                 " (line 1, column 1)", id="atom"),
])
@pytest.mark.parametrize("command", ["classify", "solve", "check"])
def test_invalid_identifier_exits_2_with_one_document(capsys, command, text, message):
    argv = {
        "classify": ["classify", "--var", "X", text],
        "solve": ["solve", "--var", "X", text],
        "check": ["check", "--var", "X", "--equation", text, "--candidate", "p",
                  "--random", "2"],
    }[command]
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"status": "error", "message": message}
    assert "Traceback" not in captured.err


def test_var_must_be_a_name_a_variable_can_have(capsys):
    code = main(["classify", "--var", "É", "p & X", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {
        "status": "error",
        "message": "argument --var: variable name must be an uppercase identifier: 'É'",
    }


@pytest.mark.parametrize("json_mode", [True, False], ids=["json", "human"])
def test_unexpected_exception_exits_3_without_traceback(capsys, monkeypatch, json_mode):
    from pdlfix import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    code = main(["classify", "--var", "X", "p & X"] + (["--json"] if json_mode else []))
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err
    if json_mode:
        assert json.loads(captured.out) == {"status": "internal-error",
                                            "message": "RuntimeError: boom"}
    else:
        assert captured.out == "internal error: RuntimeError: boom\n"


def test_uncertifiable_strategy_exits_3(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "solve", "--var", "X", "--strategy", "literal",
                  "--certify", str(cert_path), "p & (q | X)")
    assert code == 3


def test_unwritable_certificate_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "cert.json"
    code, doc = run_json(capsys, "solve", "--var", "X", "--certify", str(path), "p & (q | X)")
    assert code == 2
    assert doc["status"] == "error"
    assert "No such file or directory" in doc["message"]


def test_json_mode_emits_exactly_one_document(capsys):
    code, out = run(capsys, "classify", "--var", "X", "--json", "p & [a](q | (r & X))")
    assert code == 0
    json.loads(out)  # a single well-formed document


@pytest.mark.parametrize("module", ["pdlfix", "pdlfix.cli"])
def test_module_entry_points_run_the_command(module, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", module, "classify", "--var", "X", "--json",
                          "p & [a](q | (r & X))"], cwd=tmp_path, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["status"] == "classified"  # exactly one document


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("argv", [
    ["classify", "--var", "X", "p & (q | X)"],
    ["check", "--json", "--var", "X", "--equation", "p & (q | X)", "--candidate", "p",
     "--random", "5"],
], ids=["classify", "check-counterexample"])
def test_a_failed_write_to_stdout_is_one_line_on_stderr_and_exit_3(argv, tmp_path):
    # Every write to /dev/full fails.  Exit 1 is kept for a counterexample
    # that was reported, so a lost report exits 3, with no traceback and no
    # second document.  stdout is buffered, as it is by default, so the write
    # fails at the flush, and the interpreter's own flush at exit must not
    # fail again.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "pdlfix", *argv], cwd=tmp_path, stdout=full,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(env, PYTHONPATH=path), timeout=60)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("error: cannot write output: "), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["top", "command"])
def test_help_on_a_full_unbuffered_stdout_exits_3(argv, tmp_path):
    # Unbuffered, argparse's own write of the help fails, not main's flush;
    # argparse would drop that error and exit 0 with nothing written.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "pdlfix", *argv], cwd=tmp_path, stdout=full,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1"),
                             timeout=60)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("error: cannot write output: "), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("argv", [
    ["classify", "--var", "X", "p & (q | X)"],
    ["classify", "--json", "--var", "X", "p & (q | X)"],
], ids=["text", "json"])
def test_an_interrupted_run_is_one_line_on_stderr_and_exit_130(argv, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("pdlfix.cli.cmd_classify", interrupted)
    assert main(argv) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: interrupted\n")


def test_a_document_lost_to_a_failed_write_is_not_followed_by_another(capsys, monkeypatch):
    # A stdout whose first write fails and whose later writes would succeed:
    # the lost document is reported on stderr, and no internal-error document
    # follows it.
    class FailsOnce(io.StringIO):
        failed = False

        def write(self, text):
            if not self.failed:
                self.failed = True
                raise OSError(28, "No space left on device")
            return super().write(text)

    out = FailsOnce()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["classify", "--json", "--var", "X", "p & (q | X)"]) == 3
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")


def test_a_run_started_with_stdout_closed_exits_as_it_would_with_it_open(tmp_path):
    # Python then has no sys.stdout and drops what is printed: nothing fails.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(["sh", "-c", '"$0" -m pdlfix classify --var X "p & (q | X)" >&-',
                          sys.executable], cwd=tmp_path, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (run.returncode, run.stderr) == (0, "")


# Prints the modules a fresh interpreter loaded, after running the command
# given as arguments (none: only ``import pdlfix``).
_LOADED = """import json, sys
import pdlfix
code = 0
if sys.argv[1:]:
    from pdlfix.cli import main
    code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""
_CLASSIFY_MODULES = {"pdlfix", "pdlfix.cli", "pdlfix.syntax", "pdlfix.textio",
                     "pdlfix.hierarchy"}


@pytest.mark.parametrize("argv, loaded", [
    ([], {"pdlfix"}),
    (["classify", "--json", "--var", "X", "p & [a](q | (r & X))"], _CLASSIFY_MODULES),
    (["solve", "--json", "--certify", "new.json", "--var", "X", "p & [a](q | (r & X))"],
     _CLASSIFY_MODULES | {"pdlfix.synthesis", "pdlfix.certify"}),
    (["verify-cert", "--json", "cert.json"],
     {"pdlfix", "pdlfix.cli", "pdlfix.syntax", "pdlfix.textio", "pdlfix.certify"}),
    (["check", "--json", "--var", "X", "--equation", "p & (q | X)", "--candidate",
      "<p?*><p?>q", "--random", "20"],
     {"pdlfix", "pdlfix.cli", "pdlfix.syntax", "pdlfix.textio", "pdlfix.semantics",
      "pdlfix.generators"}),
], ids=["import", "classify", "solve", "verify-cert", "check"])
def test_a_cold_run_loads_only_the_modules_its_command_uses(argv, loaded, tmp_path, capsys):
    assert main(["solve", "--certify", str(tmp_path / "cert.json"), "--var", "X",
                 "p & [a](q | (r & X))"]) == 0
    capsys.readouterr()
    run = _fresh_interpreter(["-c", _LOADED, *argv], tmp_path)
    assert run.returncode == 0, run.stderr
    if argv:
        json.loads(run.stdout)  # exactly one document
    modules = set(json.loads(run.stderr.splitlines()[-1]))
    assert {m for m in modules if m.startswith("pdlfix")} == loaded
    # The frozen classes record their dataclass fields only when asked, so no
    # command pays for importing dataclasses and the inspect module it loads.
    # check draws one-block models, which _sha3 hashes, so no run loads
    # hashlib and the OpenSSL library behind it.
    assert not modules & {"dataclasses", "inspect", "hashlib", "_hashlib"}


def _fresh_interpreter(args, cwd):
    """Run a child interpreter on ``src`` with ``-S``, so that ``site``
    imports nothing that pdlfix would otherwise be charged for."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-S", *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)


def test_dataclass_surface_works_when_first_asked_after_import(tmp_path):
    script = """import sys
import pdlfix.certify
from pdlfix.certify import RewriteStep
from pdlfix.syntax import Atom, Or
assert "dataclasses" not in sys.modules
if sys.version_info >= (3, 13):
    import copy
    assert copy.replace(Atom("p"), name="q") == Atom("q")
import dataclasses
assert [f.name for f in dataclasses.fields(Atom)] == ["name"]
step = RewriteStep("E1", "LR", (0,), {"phi": Atom("p")})
moved = dataclasses.replace(step, path=(1, 0))
assert moved == RewriteStep("E1", "LR", (1, 0), {"phi": Atom("p")}), moved
assert dataclasses.is_dataclass(Or) and dataclasses.fields(Or(Atom("p"), Atom("q")))
print("ok")
"""
    run = _fresh_interpreter(["-c", script], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


CHECK_RANDOM = ["check", "--var", "X", "--equation", "p", "--candidate", "p", "--random", "3"]


@pytest.mark.parametrize("argv, flag, minimum", [
    (CHECK_RANDOM + ["--worlds", "0"], "--worlds", 1),
    (["fuzz", "--trials", "0"], "--trials", 1),
    (["fuzz", "--models-per-trial", "0"], "--models-per-trial", 1),
    (["fuzz", "--max-pairs", "0"], "--max-pairs", 1),
    (["fuzz", "--depth", "-1"], "--depth", 0),
    (CHECK_RANDOM[:-1] + ["0"], "--random", 1),
])
def test_numeric_flag_below_its_minimum_exits_2(capsys, argv, flag, minimum):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"pdlfix {argv[0]}: error: argument {flag}: must be at least "
                      f"{minimum}, got {int(argv[-1])}"]


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
    (["classify", "p"], "the following arguments are required: --var"),
    (["solve", "--var", "X"], "the following arguments are required: formula"),
    (["check", "--var", "X", "--equation", "p", "--candidate", "p"],
     "one of the arguments --model --random is required"),
])
def test_usage_error_under_json_is_one_document(capsys, argv, message):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"status": "error", "message": message}
    assert f"error: {message}" in captured.err
    code = main(argv)
    human = capsys.readouterr()
    assert code == 2
    assert human.out == ""
    assert human.err == captured.err


DEEP = "[a](p | " * 400 + "X" + ")" * 400
# A run of stars nests as deep with no parentheses.
DEEP_STARS = "[a" + "*" * 3000 + "]X"


@pytest.mark.parametrize("command", ["solve", "classify", "check", "verify-cert"])
def test_deep_input_exits_2_with_one_document(tmp_path, capsys, command):
    for text in (DEEP, DEEP_STARS):
        deep = tmp_path / "deep.txt"
        deep.write_text(text)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"from": "p", "to": "p", "steps": [
            {"rule": "E5", "direction": "LR", "path": [], "bindings": {"phi": text}, "group": 1}]}))
        argv = {
            "solve": ["solve", "--var", "X", f"@{deep}"],
            "classify": ["classify", "--var", "X", f"@{deep}"],
            "check": ["check", "--var", "X", "--equation", f"@{deep}", "--candidate", "p",
                      "--random", "2"],
            "verify-cert": ["verify-cert", str(cert)],
        }[command]
        code = main(argv + ["--json"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["status"] == "error"
        assert "input nested too deeply (line 1, column " in doc["message"]
        assert "Traceback" not in captured.err


def _contract_files(tmp_path):
    """Formula and model files, most of them bad, and a path to no file."""
    contents = {
        "formula.txt": b"p & (q | X)",
        "model.json": json.dumps({"worlds": ["w0", "w1"], "programs": {"a": [["w0", "w1"]]},
                                  "valuation": {"p": ["w0"], "q": ["w1"]}}).encode(),
        "malformed.json": b"{]",
        "list.json": b"[1, 2]",
        "scalar.json": b"3",
        "non-utf8.txt": b"p & \xff\xfe",
        "world-list.json": json.dumps({"worlds": [["w0"]], "valuation": {"p": [["w0"]]}}).encode(),
        "model-list.json": json.dumps({"worlds": ["w0"], "programs": [1]}).encode(),
    }
    for name, data in contents.items():
        (tmp_path / name).write_bytes(data)
    return [str(tmp_path / name) for name in contents] + [str(tmp_path / "missing.json")]


@st.composite
def _cli_argv(draw, files, cert):
    def option(name):  # the full name or a prefix argparse completes
        return draw(st.sampled_from([name, name[:max(3, len(name) - 2)]]))

    def number():
        return str(draw(st.integers(-1, 3)))

    def maybe(*parts):
        return list(parts) if draw(st.booleans()) else []

    # Half the draws are well-formed, so that the commands also run to the end.
    good = ["p & [a](q | (r & X))", "<a>(p & (q | X))", "p & (q | X)", "X", "p",
            "<(~p)?*><(~p)?>q", "~p & q", f"@{files[0]}"]
    formula = st.one_of(st.sampled_from(good), st.sampled_from(
        ["[X?]p", "p & (", "p & X", ""] + [f"@{path}" for path in files[1:]]))
    command = draw(st.sampled_from(["classify", "solve", "check", "fuzz"]))
    if command == "classify":
        argv = ["classify", option("--var"), "X", *maybe("--strict"), draw(formula)]
    elif command == "solve":
        argv = ["solve", option("--var"), "X", option("--certify"), cert,
                *maybe("--strategy", draw(st.sampled_from(["duality", "literal"]))),
                draw(formula)]
    elif command == "check":
        models = draw(st.sampled_from([[option("--random"), number()], [option("--random"), "9"],
                                       ["--model", draw(st.sampled_from(files))], []]))
        candidate = st.one_of(st.sampled_from(["<(~p)?*><(~p)?>q", "<p?*><p?>q", "true"]),
                              formula)
        argv = ["check", option("--var"), "X", "--equation", draw(formula),
                "--candidate", draw(candidate), *models, *maybe(option("--worlds"), number()),
                *maybe("--seed", number())]
    else:
        argv = ["fuzz", option("--trials"), number(), option("--models-per-trial"), number(),
                *maybe("--scope", draw(st.sampled_from(["rules", "solutions", "both"]))),
                *maybe(option("--max-pairs"), number()), *maybe(option("--depth"), number()),
                *maybe("--seed", number())]
    return argv + maybe(option("--json"))


def _assert_contract(argv, code, out, err):
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if any(arg.startswith("--js") for arg in argv):
        doc = json.loads(out)  # exactly one document
        if code == 1:
            assert doc.get("passed") is False or doc.get("failures", 0) > 0
    elif code == 1:
        assert out.startswith("counterexample after ") or (
            argv[0] == "fuzz" and "failures: 0 " not in out)


def test_exit_code_contract_holds_for_drawn_argv(tmp_path, capsys):
    files = _contract_files(tmp_path)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_cli_argv(files, str(tmp_path / "cert.json")))
    def contract(argv):
        code = main(argv)
        captured = capsys.readouterr()
        _assert_contract(argv, code, captured.out, captured.err)

    contract()


def test_exit_code_contract_holds_for_drawn_argv_through_python_m(tmp_path):
    # The same property as a user runs the command, in a fresh interpreter,
    # where the interpreter's own start-up and exit are part of the run.
    # Each draw costs an interpreter, so the sample is small.
    files = _contract_files(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(_cli_argv(files, str(tmp_path / "cert.json")))
    def contract(argv):
        run = subprocess.run([sys.executable, "-m", "pdlfix", *argv], cwd=tmp_path,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), timeout=60)
        _assert_contract(argv, run.returncode, run.stdout, run.stderr)

    contract()


# Values of every JSON type.  A certificate document is an object whose "from"
# and "to" are strings and whose "steps" is a list of objects; a step's "rule"
# and "direction" are strings, its "path" a list of integers, its "bindings"
# an object of strings and its "group" an integer (a bool is no integer).
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(-2, 2),
                          st.text("pX&|[]<>;?*~ae0", max_size=4))
_JSON = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(st.text("abz", max_size=2), inner, max_size=2)),
    max_leaves=4)
_WRONG_TYPE = {
    "from": lambda v: type(v) is not str,
    "to": lambda v: type(v) is not str,
    "steps": lambda v: type(v) is not list,
    "rule": lambda v: type(v) is not str,
    "direction": lambda v: type(v) is not str,
    "path": lambda v: type(v) is not list or any(type(i) is not int for i in v),
    "bindings": lambda v: type(v) is not dict or any(type(t) is not str for t in v.values()),
    "group": lambda v: type(v) is not int,
}


@st.composite
def _malformed_certificate(draw, doc):
    """``doc`` as a list or a scalar, or with one field of the document or of
    one of its steps given a value of a wrong type."""
    field = draw(st.sampled_from(["list", "scalar", *_WRONG_TYPE]))
    if field == "list":
        return draw(st.lists(st.one_of(_JSON, st.just(doc)), max_size=2))
    if field == "scalar":
        return draw(_JSON_SCALARS)
    doc = json.loads(json.dumps(doc))
    target = doc if field in doc else draw(st.sampled_from(doc["steps"]))
    target[field] = draw(_JSON.filter(_WRONG_TYPE[field]))
    return doc


def _swap_closers(doc, step, name, bracket, paren):
    """``doc`` with the ``bracket``-th ']' and the ``paren``-th ')' of one
    binding text swapped, so that two groups of different kinds cross."""
    doc = json.loads(json.dumps(doc))
    text = list(doc["steps"][step]["bindings"][name])
    i = [k for k, c in enumerate(text) if c == "]"][bracket]
    j = [k for k, c in enumerate(text) if c == ")"][paren]
    text[i], text[j] = text[j], text[i]
    doc["steps"][step]["bindings"][name] = "".join(text)
    return doc


@st.composite
def _crossed_certificate(draw, doc):
    step, name, text = draw(st.sampled_from([
        (i, name, text) for i, item in enumerate(doc["steps"])
        for name, text in item["bindings"].items() if "]" in text and ")" in text]))
    return _swap_closers(doc, step, name, draw(st.integers(0, text.count("]") - 1)),
                         draw(st.integers(0, text.count(")") - 1)))


def test_exit_code_contract_holds_for_drawn_certificates(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["solve", "--var", "X", "--certify", str(cert), "p & [a](q | (r & X))"]) == 0
    capsys.readouterr()
    good = json.loads(cert.read_text())

    def rejected(doc, json_mode):
        """The message of the error, exit 2, that verify-cert gives for ``doc``."""
        cert.write_text(json.dumps(doc))
        code = main(["verify-cert", str(cert), *(["--json"] if json_mode else [])])
        captured = capsys.readouterr()
        assert code == 2, doc
        assert "Traceback" not in captured.err
        if json_mode:
            report = json.loads(captured.out)  # exactly one document
            assert report["status"] == "error"
            return report["message"]
        assert captured.out.startswith("error: ")
        return captured.out.removeprefix("error: ").rstrip("\n")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_malformed_certificate(good), st.booleans())
    @example(dict(good, steps={}), True)  # found by the property: read as no steps, exit 1
    @example(dict(good, steps=""), False)
    def contract(doc, json_mode):
        assert rejected(doc, json_mode).startswith("malformed certificate document")

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(_crossed_certificate(good), st.booleans())
    # "[true?]p & [true? ; a ; (~q]?)r": the box's group ends at a ')'.
    @example(_swap_closers(good, 0, "phi", 1, 0), True)
    def crossed(doc, json_mode):
        message = rejected(doc, json_mode)
        assert re.fullmatch(r"malformed certificate document: .* \(line \d+, column \d+\)",
                            message), message

    contract()
    crossed()


def test_seeded_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    # A differential digest of the commands, to keep when their code is
    # rewritten: exit code and stdout (wall times masked) of each run, with
    # and without --json, and the bytes of every certificate written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PDLFIX_SEED", raising=False)
    digest = hashlib.sha256()

    def record(*argv):
        for mode in ((), ("--json",)):
            code = main([*argv, *mode])
            out = capsys.readouterr().out
            out = re.sub(r'"wallTime": [-+.0-9e]+', '"wallTime": 0', out)
            out = re.sub(r"\([-+.0-9e]+s\)", "(0s)", out)
            digest.update(f"{argv} {mode} {code}\n{out}\n".encode())

    for phi in ("p & [a](q | (r & X))", "(q & X) | p", "[X?]p"):
        record("classify", "--var", "X", phi)
    for name, phi in (("worked", "p & [a](q | (r & X))"), ("or", "p | X"),
                      ("sigma", "<a>(p & (q | X))")):
        record("solve", "--var", "X", "--certify", f"{name}.json", phi)
        digest.update(Path(f"{name}.json").read_bytes())
    text = Path("worked.json").read_text()
    # No spaces around ';' and '&', and a space after every '[' (in JSON too).
    Path("respelled.json").write_text(text.replace(" ; ", ";").replace(" & ", "&").replace("[", "[ "))
    tampered = json.loads(text)
    tampered["steps"][3]["bindings"]["phi"] = "false"
    for name, edited in (("tampered", tampered), ("malformed", dict(tampered, steps={}))):
        Path(f"{name}.json").write_text(json.dumps(edited))
    Path("garbled.json").write_text("not json")
    for name in ("worked", "or", "sigma", "respelled", "tampered", "malformed", "garbled"):
        record("verify-cert", f"{name}.json")
    record("check", "--var", "X", "--equation", "p & (q | X)", "--candidate", "<p?*><p?>q",
           "--random", "50")
    record("check", "--var", "X", "--equation", "[b](p | <a>X)", "--candidate", "p",
           "--random", "20", "--worlds", "2", "--seed", "4")
    record("fuzz", "--scope", "both", "--trials", "8")
    assert digest.hexdigest() == "7c55c76401c28b95a551048e1724da6fb7457880595a297442da79d6b2a6365d"
