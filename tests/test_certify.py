import hashlib
import json
import random
import re
from dataclasses import replace
from sys import getrecursionlimit

import pytest
from conftest import forged_deep_certificate

from pdlfix.certify import (
    BadPathError,
    Certificate,
    CertifyError,
    FMeta,
    GenerationError,
    MismatchError,
    RewriteRule,
    RewriteStep,
    RULES,
    _COMPILED,
    apply_rule,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    generate_certificate,
    grouped_rule_ids,
    match_rule,
    rewrite_at,
    subterm_at,
    validate_rules,
)
from pdlfix.generators import derive_seed, random_decomposition
from pdlfix.hierarchy import classify, to_nested_form
from pdlfix.semantics import ModelGenParams, equivalent_on, random_model
from pdlfix.synthesis import solve, solve_pi, solve_sigma
from pdlfix.syntax import And, Atom, Box, Diamond, Or, Var, substitute, subterms
from pdlfix.textio import parse_formula, parse_program, print_formula

EXAMPLE = "p & [a](q | (r & X))"
CASES = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]


def example_certificate():
    phi = parse_formula(EXAMPLE)
    result = classify(phi, "X")
    sol = solve(phi, "X")
    return phi, sol, generate_certificate(sol, padding=result.padding)


def test_match_e1_box_pair():
    bindings = match_rule(parse_formula("[a][b]p"), "E1", "LR", ())
    assert bindings == {"alpha": parse_program("a"), "beta": parse_program("b"),
                        "phi": parse_formula("p")}


def test_match_e3_factoring():
    bindings = match_rule(parse_formula("[a]p & [a]q"), "E3", "RL", ())
    assert bindings == {"alpha": parse_program("a"), "phi": parse_formula("p"),
                        "psi": parse_formula("q")}


def test_e3_needs_equal_programs():
    assert match_rule(parse_formula("[a]p & [b]q"), "E3", "RL", ()) is None


def test_e1_does_not_match_diamonds():
    assert match_rule(parse_formula("<a>p"), "E1", "LR", ()) is None


def test_match_at_bad_path_is_an_error():
    with pytest.raises(BadPathError):
        match_rule(parse_formula("p & q"), "E1", "LR", (0, 0, 0))


@pytest.mark.parametrize("rule_id, direction, message", [
    ("E1", "XX", "direction must be LR or RL: 'XX'"),
    ("E1", "lr", "direction must be LR or RL: 'lr'"),
    ("E99", "LR", "unknown rule id 'E99'"),
    ("E99", "XX", "unknown rule id 'E99'"),
])
def test_an_unknown_rule_or_direction_is_refused_before_compiling(rule_id, direction, message):
    # The texts are RewriteStep's own, and no pair is compiled for the key.
    phi = parse_formula("[a ; b]p")
    with pytest.raises(ValueError) as made:
        RewriteStep(rule=rule_id, direction=direction, path=(), bindings={})
    assert str(made.value) == message
    for call in (lambda: match_rule(phi, rule_id, direction, ()),
                 lambda: rewrite_at(phi, rule_id, direction, ())):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError and str(err.value) == message
    assert (rule_id, direction) not in _COMPILED
    assert match_rule(phi, "E1", "RL", ()) is not None


def test_apply_e4_unfolds_the_star():
    state, _ = rewrite_at(parse_formula("[a*]p"), "E4", "LR", ())
    assert state == parse_formula("p & [a][a*]p")


def test_apply_e2_folds_a_test():
    state, _ = rewrite_at(parse_formula("<p?>q"), "E2", "RL", ())
    assert state == parse_formula("p & q")


def test_apply_e5_under_a_box():
    state, _ = rewrite_at(parse_formula("[a][true?]p"), "E5", "LR", (1,))
    assert state == parse_formula("[a]p")


def test_apply_e7_reads_the_test_polarity():
    state, _ = rewrite_at(parse_formula("[(~q)?](r & s)"), "E7", "RL", ())
    assert state == parse_formula("q | (r & s)")
    state, _ = rewrite_at(parse_formula("[q?]r"), "E7", "RL", ())
    assert state == parse_formula("~q | r")


def test_rewrite_inside_a_test_program():
    state, _ = rewrite_at(parse_formula("<([true?]p)?>q"), "E5", "LR", (0, 0))
    assert state == parse_formula("<p?>q")


def test_replay_validates_stored_bindings():
    phi = parse_formula("[a][b]p")
    step = RewriteStep("E1", "LR", (), bindings={
        "alpha": parse_program("a"), "beta": parse_program("b"), "phi": parse_formula("q")})
    with pytest.raises(MismatchError):
        apply_rule(phi, step)


def test_empty_certificate_passes_when_endpoints_agree():
    phi = parse_formula("p & q")
    assert check_certificate(Certificate(source=phi, target=phi, steps=())).ok
    assert not check_certificate(Certificate(source=phi, target=Atom("p"), steps=())).ok


def test_worked_example_certificate():
    phi, sol, cert = example_certificate()
    assert grouped_rule_ids(cert) == [["E4"], ["E1", "E3"], ["E1", "E5"], ["E3"], ["E7"]]
    report = check_certificate(cert)
    assert report.ok
    assert cert.target == substitute(phi, "X", sol.formula)
    assert cert.source == sol.formula


def test_level_zero_certificate():
    phi = parse_formula("p | (q & X)")
    result = classify(phi, "X")
    sol = solve(phi, "X")
    cert = generate_certificate(sol, padding=result.padding)
    ids = [step.rule for step in cert.steps]
    assert ids[0] == "E4"
    assert "E7" in ids
    assert check_certificate(cert).ok
    assert cert.target == substitute(phi, "X", sol.formula)


def test_single_odd_pair_has_exactly_one_root_unfold():
    rng = random.Random(0)
    for trial in range(20):
        d = random_decomposition(rng, kind="Pi", leading=True, max_pairs=1)
        cert = generate_certificate(solve_pi(d))
        unfolds = [s for s in cert.steps if s.rule == "E4"]
        assert len(unfolds) == 1
        assert unfolds[0].path == ()
        assert unfolds[0] is cert.steps[0]


def test_completeness_on_class():
    rng = random.Random(99)
    cases = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]
    for trial in range(100):
        kind, leading = cases[trial % 4]
        d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=3)
        sol = solve_pi(d) if kind == "Pi" else solve_sigma(d)
        cert = generate_certificate(sol)
        report = check_certificate(cert)
        assert report.ok, report.reason
        assert cert.target == substitute(to_nested_form(d), "X", sol.formula)


def test_completeness_beyond_the_default_pair_bound():
    rng = random.Random(2718)
    for trial in range(40):
        d = random_decomposition(rng, max_pairs=5, depth=3)
        sol = solve_pi(d) if d.kind == "Pi" else solve_sigma(d)
        cert = generate_certificate(sol)
        assert check_certificate(cert).ok


def test_tampered_rule_or_direction_fails():
    _phi, _sol, cert = example_certificate()
    swaps = {"E1": "E6", "E3": "E8", "E4": "E9", "E5": "E10", "E7": "E2", "AA": "AO"}
    for i, step in enumerate(cert.steps):
        flipped = replace(step, direction="RL" if step.direction == "LR" else "LR")
        broken = Certificate(cert.source, cert.target,
                             cert.steps[:i] + (flipped,) + cert.steps[i + 1:])
        assert not check_certificate(broken).ok
        swapped = replace(step, rule=swaps[step.rule])
        broken = Certificate(cert.source, cert.target,
                             cert.steps[:i] + (swapped,) + cert.steps[i + 1:])
        assert not check_certificate(broken).ok


def test_certificate_endpoints_are_semantically_equivalent():
    rng = random.Random(55)
    for trial in range(20):
        d = random_decomposition(rng, max_pairs=2)
        sol = solve_pi(d) if d.kind == "Pi" else solve_sigma(d)
        cert = generate_certificate(sol)
        for k in range(3):
            m = random_model(ModelGenParams(world_count=3, seed=derive_seed(trial, k)))
            assert equivalent_on(m, cert.source, cert.target) is None


def test_sigma_certificates_use_the_dual_rules():
    phi = parse_formula("p & (q | X)")
    sol = solve(phi, "X")
    cert = generate_certificate(sol, padding=classify(phi, "X").padding)
    used = {step.rule for step in cert.steps}
    assert used <= {"E9", "E6", "E8", "E2", "E10", "AO"}
    assert check_certificate(cert).ok


def test_certificates_for_classified_inputs():
    # Padding and commutation in all their combinations, both hierarchy
    # sides; targets may keep padded true-conjuncts but always replay and
    # always mean the instantiated equation.
    cases = [
        "p & [a](q | (r & X))",
        "[a](p | (q & X))",
        "[a][b]X",
        "X",
        "p & X",
        "p | X",
        "X & q",
        "(q & X) | p",
        "p & (q | X)",
        "<a>(p & (q | X))",
        "<a>X",
        "<a>(p & X)",
        # pads buried at inner levels, forcing mid-chain drops
        "p & [a][b](q | (r & X))",
        "[a](p | (q & [b][c](s | X)))",
        "<a><b>(p & (q | X))",
        "[a*](p | (q & X))",
        "[(s? ; a)*; b](p | (q & X))",
    ]
    for text in cases:
        phi = parse_formula(text)
        result = classify(phi, "X")
        sol = solve(phi, "X")
        cert = generate_certificate(sol, padding=result.padding)
        assert check_certificate(cert).ok, text
        instantiated = substitute(phi, "X", sol.formula)
        for seed in range(5):
            m = random_model(ModelGenParams(world_count=3, atom_names=("p", "q", "r", "s"),
                                            prog_names=("a", "b", "c"), seed=seed))
            assert equivalent_on(m, cert.target, instantiated) is None, text


def test_literal_sigma_solutions_are_not_certifiable():
    sol = solve(parse_formula("p & (q | X)"), "X", strategy="literal")
    with pytest.raises(GenerationError):
        generate_certificate(sol)


def test_xfree_solution_yields_the_empty_certificate():
    sol = solve(parse_formula("p & q"), "X")
    cert = generate_certificate(sol)
    assert cert.steps == ()
    assert check_certificate(cert).ok


def test_tampered_binding_fails_at_that_step():
    _phi, _sol, cert = example_certificate()
    state = cert.source
    for i, step in enumerate(cert.steps):
        name = sorted(step.bindings)[0]
        value = step.bindings[name]
        bad_value = Seq_or_And(value)
        bad = replace(step, bindings={**step.bindings, name: bad_value})
        tampered = Certificate(cert.source, cert.target, cert.steps[:i] + (bad,) + cert.steps[i + 1:])
        report = check_certificate(tampered)
        assert not report.ok
        assert report.failed_step == i
        found = print_formula(subterm_at(state, step.path))
        assert report.reason.endswith(f", found {clip(found)}")
        state = apply_rule(state, step)


def test_a_binding_that_is_no_metavariable_of_the_rule_fails_at_that_step():
    _phi, _sol, cert = example_certificate()
    for i, step in enumerate(cert.steps):
        bad = replace(step, bindings={**step.bindings, "zzz": parse_formula("p"),
                                      "aaa": parse_formula("q")})
        tampered = Certificate(cert.source, cert.target, cert.steps[:i] + (bad,) + cert.steps[i + 1:])
        report = check_certificate(tampered)
        assert not report.ok
        assert report.failed_step == i
        assert report.reason == f"{step.rule} has no metavariable 'aaa'"


def clip(text):
    return text if len(text) <= 120 else text[:117] + "..."


def test_mismatch_names_both_subterms_cut_to_120_characters():
    long_atom = "p" + "q" * 150
    phi = parse_formula(f"[a][b]{long_atom}")
    step = RewriteStep("E1", "LR", (), bindings={
        "alpha": parse_program("a"), "beta": parse_program("c"), "phi": parse_formula(long_atom)})
    with pytest.raises(MismatchError) as err:
        apply_rule(phi, step)
    want = f"[a][c]{long_atom}"[:117] + "..."
    found = f"[a][b]{long_atom}"[:117] + "..."
    assert str(err.value) == (f"E1 LR does not apply at []: bound pattern differs from the "
                              f"subterm: expected {want}, found {found}")


def Seq_or_And(value):
    from pdlfix.syntax import Formula, Seq

    if isinstance(value, Formula):
        return And(value, value)
    return Seq(value, value)


def test_tampered_path_fails_at_that_step():
    _phi, _sol, cert = example_certificate()
    for i, step in enumerate(cert.steps):
        bad = replace(step, path=step.path + (5,))
        tampered = Certificate(cert.source, cert.target, cert.steps[:i] + (bad,) + cert.steps[i + 1:])
        report = check_certificate(tampered)
        assert not report.ok
        assert report.failed_step == i


def test_certificate_json_round_trip():
    _phi, _sol, cert = example_certificate()
    doc = certificate_to_json(cert)
    assert doc["steps"][0]["rule"] == "E4"
    back = certificate_from_json(doc)
    assert back == cert
    assert check_certificate(back).ok


# SHA-256 of json.dumps(certificate_to_json(cert), indent=2): the bytes the
# certificate writer has produced since the format was introduced.
CERTIFICATE_DIGESTS = {
    "example": "a2e36c44091d47aed280b53e226e67a3a1441e1487d69016e75c5c6d1057476a",
    ("Pi", False): "095d82216d233215faf4f4b82abce921d17f76f0996d40cd12a30430d666222e",
    ("Pi", True): "15c3f39f8402f04017303180167b02f2610d893be35f5f82ce87b91c5b8ee6b8",
    ("Sigma", False): "450768d31aaaf500d9f1709bbf7c9b2cb586b8843a6b66d0a927fcd400013340",
    ("Sigma", True): "2a92a197e109b8db8e960afdb354b48743197ce83c6401dacea8d74672329dfd",
}


def pinned_certificates():
    yield "example", example_certificate()[2]
    for kind, leading in CASES:
        d = random_decomposition(random.Random(5), kind=kind, leading=leading, max_pairs=3, depth=2)
        assert d.n == 3
        phi = to_nested_form(d)
        yield (kind, leading), generate_certificate(solve(phi, d.x), padding=classify(phi, d.x).padding)


def test_certificate_text_is_pinned_and_round_trips():
    for key, cert in pinned_certificates():
        doc = certificate_to_json(cert)
        text = json.dumps(doc, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[key], key
        back = certificate_from_json(json.loads(text))
        assert back == cert
        assert certificate_to_json(back) == doc
        assert check_certificate(back).ok


def test_equal_binding_texts_read_back_as_equal_terms():
    for _key, cert in pinned_certificates():
        doc = certificate_to_json(cert)
        back = certificate_from_json(doc)
        seen = {}
        shared = 0
        for item, step in zip(doc["steps"], back.steps):
            for name, text in item["bindings"].items():
                key = (name in ("alpha", "beta"), text)
                if key in seen:
                    assert step.bindings[name] == seen[key]
                    shared += 1
                seen[key] = step.bindings[name]
        assert shared > 0
        # Nothing is cached across documents.
        again = certificate_from_json(doc)
        assert again.source is not back.source
        first = {id(node) for term in terms_of(back) for node in subterms(term)}
        assert not any(id(node) in first for term in terms_of(again) for node in subterms(term))


def test_each_binding_of_a_canonical_document_is_what_its_steps_match_finds(monkeypatch):
    # Only "from" is parsed.  Every binding is a node of the formula at its
    # step, the one the match there finds, or for E7 read right to left the
    # negation of the test's formula.  The target is the formula the steps
    # end at, which the cursor's last move, to the root, returns.
    from pdlfix import certify
    from pdlfix.syntax import negate

    for cert in seeded_certificates():
        doc = certificate_to_json(cert)
        parsed, subjects = [], []
        parse, move = certify._parse, certify._Cursor.move
        monkeypatch.setattr(certify, "_parse", lambda text, *rest: parsed.append(text) or parse(text, *rest))
        monkeypatch.setattr(certify._Cursor, "move", lambda self, path: subjects.append(move(self, path))
                            or subjects[-1])
        back = certificate_from_json(doc)
        monkeypatch.undo()
        assert back == cert
        assert parsed == [doc["from"]]
        assert back.target == parse_formula(doc["to"])
        assert len(subjects) == len(back.steps) + 1 and subjects[-1] is back.target
        for subject, step in zip(subjects, back.steps):
            nodes = {id(node) for node in subterms(subject)}
            for name, value in step.bindings.items():
                if (step.rule, step.direction, name) == ("E7", "RL", "phi"):
                    assert subject.prog.cond == negate(value)
                else:
                    assert id(value) in nodes, (step, name)


def read_counting_parses(monkeypatch, doc):
    """The certificate ``doc`` reads to, and the texts the read parsed."""
    from pdlfix import certify

    parsed, parse = [], certify._parse
    monkeypatch.setattr(certify, "_parse", lambda text, *rest: parsed.append(text) or parse(text, *rest))
    back = certificate_from_json(doc)
    monkeypatch.undo()
    return back, parsed


def test_a_target_respelled_with_spaces_is_taken_without_a_parse(monkeypatch):
    cert = example_certificate()[2]
    doc = certificate_to_json(cert)
    doc["to"] = "  " + doc["to"].replace(" ", "  ").replace("[", "[ ") + " "
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == [doc["from"]]
    assert back == cert and check_certificate(back).ok


def test_a_target_naming_another_formula_is_parsed_and_fails_replay(monkeypatch, tmp_path, capsys):
    from pdlfix.cli import main

    doc = certificate_to_json(example_certificate()[2])
    doc["to"] = doc["from"]
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == [doc["from"], doc["from"]]
    report = check_certificate(back)
    assert (report.ok, report.failed_step) == (False, None)
    assert report.reason == "replay finished but the final formula differs from the target"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-cert", "--json", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_a_document_with_a_step_not_taken_parses_only_that_steps_texts(monkeypatch):
    # Step 2's texts, between parentheses, are parsed and the step replayed
    # under them; the cursor goes on, so the later steps and "to" are taken.
    cert = example_certificate()[2]
    doc = certificate_to_json(cert)
    wrapped = {name: f"({text})" for name, text in doc["steps"][2]["bindings"].items()}
    doc["steps"][2]["bindings"] = wrapped
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == [doc["from"], *wrapped.values()]
    assert back == cert and check_certificate(back).ok


@pytest.fixture(scope="module")
def deep_document():
    """The document of the certificate of ``[a](p | `` nested 24 deep: 1,271
    steps, each binding thousands of characters long."""
    phi = parse_formula("[a](p | " * 24 + "X" + ")" * 24)
    return certificate_to_json(generate_certificate(solve(phi, "X"), padding=classify(phi, "X").padding))


def with_step_10_wrapped(doc, **edits):
    """``doc`` with step 10's binding texts between parentheses, then
    ``edits`` made to those bindings."""
    doc = json.loads(json.dumps(doc))
    item = doc["steps"][10]
    item["bindings"] = {name: f"({text})" for name, text in item["bindings"].items()} | edits
    return doc


def test_a_deep_document_with_one_step_respelled_parses_only_that_steps_texts(monkeypatch, deep_document):
    # The cursor goes on past step 10, so no later text is parsed: the read
    # takes as long as that of the canonical document, not seconds.
    from pdlfix.certify import _read

    doc = with_step_10_wrapped(deep_document)
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == [doc["from"], *doc["steps"][10]["bindings"].values()]
    assert certificate_to_json(back) == deep_document
    for report in (check_certificate(back), _read(doc)[1]):
        assert (report.ok, report.steps_applied, report.failed_step) == (True, 1271, None)


def test_a_deep_document_with_one_text_naming_another_term_fails_at_that_step(monkeypatch, deep_document):
    # The failure is reported, and the cursor goes on by the step's match, so
    # the later texts are still taken.
    from pdlfix.certify import _read

    subterm = "[a ; (~p)? ; a ; (~p)? ; a ; (~p)? ; a ; (~p)? ; a ; (~p)? ; a ; (~p)? ; a ; (~p)? ; "
    reason = ("AA LR does not apply at [1, 1, 1, 1, 1, 1, 1, 1, 1]: bound pattern differs from the "
              f"subterm: expected (q & {subterm}a ; (~p)? ; a ; (~p)? ; a ;..., "
              f"found ({subterm}a ; (~p)? ; a ; (~p)? ; a ; (~p...")
    doc = with_step_10_wrapped(deep_document, phi="(q)")
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == [doc["from"], *doc["steps"][10]["bindings"].values()]
    for report in (check_certificate(back), _read(doc)[1]):
        assert (report.ok, report.steps_applied, report.failed_step) == (False, 10, 10)
        assert report.reason == reason


def test_a_deep_document_reports_an_extra_name_before_a_bad_path(deep_document):
    # A path that leaves the term gives the cursor nothing to follow, so the
    # reader parses every later text, which takes seconds at this size: the
    # steps after step 10 are dropped.
    from pdlfix.certify import _read

    doc = with_step_10_wrapped(deep_document, zzz="(p)")
    doc["steps"][10]["path"].append(9)
    del doc["steps"][11:]
    cert, report = _read(doc)
    assert (report.ok, report.failed_step, report.reason) == (False, 10, "AA has no metavariable 'zzz'")
    assert check_certificate(cert) == report
    step = cert.steps[10]
    bad_path = replace(step, bindings={name: step.bindings[name] for name in ("phi", "psi", "chi")})
    report = check_certificate(replace(cert, steps=(*cert.steps[:10], bad_path)))
    assert (report.failed_step, report.reason) == (10, "no child 9 at depth 9 of And")


def test_verify_cert_runs_each_steps_compiled_match_once(monkeypatch, tmp_path, capsys):
    # Reading and replaying are one pass: a canonical document's steps are
    # each matched once, in order.
    from pdlfix import certify
    from pdlfix.cli import main

    cert = example_certificate()[2]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_json(cert)))
    compiled, matched = certify._compiled, []

    def counting(rule_id, direction):
        match, make = compiled(rule_id, direction)
        return (lambda subject: matched.append((rule_id, direction)) or match(subject)), make

    monkeypatch.setattr(certify, "_compiled", counting)
    assert main(["verify-cert", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stepsApplied"] == len(cert.steps)
    assert matched == [(step.rule, step.direction) for step in cert.steps]


@pytest.mark.parametrize("json_mode", [False, True], ids=["human", "json"])
def test_a_malformed_later_step_is_reported_before_an_earlier_replay_failure(tmp_path, capsys, json_mode):
    from pdlfix.cli import main

    doc = certificate_to_json(example_certificate()[2])
    doc["steps"][2]["bindings"]["phi"] = "false"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-cert", "--json", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["failedStep"] == 2
    doc["steps"][5]["path"] = "1"
    path.write_text(json.dumps(doc))
    message = "malformed certificate document: path must be a list of integers, not '1'"
    assert main(["verify-cert", str(path), *(["--json"] if json_mode else [])]) == 2
    out = capsys.readouterr().out
    if json_mode:
        assert json.loads(out) == {"status": "error", "message": message}
    else:
        assert out == f"error: {message}\n"


def test_a_target_too_deep_to_print_is_parsed(monkeypatch):
    # Every step is taken, but the formula they end at is too deep for the
    # printer, so "to" is compared by a parse.
    doc = forged_deep_certificate()
    doc["steps"].pop()
    back, parsed = read_counting_parses(monkeypatch, doc)
    assert parsed == ["[a*]p", "p"] and back.target == parse_formula("p")
    assert check_certificate(back).reason == "replay finished but the final formula differs from the target"


def terms_of(cert):
    """The source, the target and every binding of ``cert``."""
    yield cert.source
    yield cert.target
    for step in cert.steps:
        yield from step.bindings.values()


def seeded_certificates():
    """Certificates of seeded decompositions with up to 1-4 pairs, both
    hierarchies, leading or not."""
    for trial in range(32):
        kind, leading = CASES[trial % 4]
        rng = random.Random(derive_seed(41, trial))
        d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=1 + trial // 4 % 4)
        phi = to_nested_form(d)
        yield generate_certificate(solve(phi, d.x), padding=classify(phi, d.x).padding)


def test_terms_read_by_shared_subterm_equal_a_fresh_parse():
    for cert in seeded_certificates():
        doc = certificate_to_json(cert)
        back = certificate_from_json(doc)
        assert back == cert
        assert back.source == parse_formula(doc["from"])
        assert back.target == parse_formula(doc["to"])
        for item, step in zip(doc["steps"], back.steps):
            for name, text in item["bindings"].items():
                parse = parse_program if name in ("alpha", "beta") else parse_formula
                assert step.bindings[name] == parse(text)


def test_a_binding_inside_the_source_reads_back_as_that_subterm():
    # Within one document a binding text and the same text between
    # parentheses in "from" are one object.
    doc = certificate_to_json(example_certificate()[2])
    back = certificate_from_json(doc)
    found = 0
    for item, step in zip(doc["steps"], back.steps):
        for name, text in item["bindings"].items():
            if f"({text})" in doc["from"]:
                assert any(node is step.bindings[name] for node in subterms(back.source)), text
                found += 1
    assert found >= 2


def test_equal_bracketed_programs_in_one_document_read_back_equal():
    # A program that several bindings spell between brackets reads back as
    # one term each time.
    across = 0
    for cert in seeded_certificates():
        back = certificate_from_json(certificate_to_json(cert))
        first = {}
        for i, step in enumerate(back.steps):
            for term in step.bindings.values():
                for node in subterms(term):
                    if type(node) is Box or type(node) is Diamond:
                        held, where = first.setdefault(node.prog, (node.prog, i))
                        assert held == node.prog, (i, node.prog)
                        across += where != i
    assert across > 5000


def test_tampered_group_shared_with_another_step_fails_at_that_step():
    # Step 0 binds phi to a text that other steps hold as a parenthesized
    # group; editing that group in one step must fail exactly there.
    doc = certificate_to_json(example_certificate()[2])
    shared = doc["steps"][0]["bindings"]["phi"]
    group = f"({shared})"
    edited = 0
    for i, item in enumerate(doc["steps"]):
        for name, text in item["bindings"].items():
            if group not in text:
                continue
            bad = json.loads(json.dumps(doc))
            bad["steps"][i]["bindings"][name] = text.replace(group, f"({shared} & q)", 1)
            report = check_certificate(certificate_from_json(bad))
            assert not report.ok
            assert report.failed_step == i, (i, name)
            edited += 1
    assert edited >= 3


DEEP = r"^malformed certificate document: input nested too deeply \(line \d+, column \d+\)$"


def respelled(doc, spell):
    """``doc`` with ``spell`` applied to ``from``, ``to`` and every binding."""
    doc = json.loads(json.dumps(doc))
    doc["from"], doc["to"] = spell(doc["from"]), spell(doc["to"])
    for item in doc["steps"]:
        item["bindings"] = {name: spell(text) for name, text in item["bindings"].items()}
    return doc


@pytest.mark.parametrize("spell, parsed", [
    # The same tokens as the canonical text: taken from the match.
    (lambda text: text.replace(" ; ", ";").replace(" & ", "&").replace("[", "[ "), False),
    # Other tokens: parsed, to an equal term.
    (lambda text: text.replace(" u ", " ∪ "), True),
    (lambda text: f"({text})", True),
], ids=["whitespace", "union-sign", "parens"])
def test_a_respelled_document_reads_back_equal_and_verifies(monkeypatch, spell, parsed):
    from pdlfix import certify

    phi = parse_formula("p & [a u b](q | (r & X))")
    union = generate_certificate(solve(phi, "X"), padding=classify(phi, "X").padding)
    for cert in [union, *(cert for _key, cert in pinned_certificates())]:
        original = certificate_to_json(cert)
        doc = respelled(original, spell)
        texts = []
        parse = certify._parse
        monkeypatch.setattr(certify, "_parse", lambda text, *rest: texts.append(text) or parse(text, *rest))
        back = certificate_from_json(doc)
        monkeypatch.undo()
        assert back == cert
        assert check_certificate(back).ok
        assert (len(texts) > 2) == (parsed and doc != original)


def test_a_malformed_binding_is_reported_before_a_malformed_from():
    doc = certificate_to_json(example_certificate()[2])
    doc["from"] = "p &"
    with pytest.raises(ValueError, match=r"found 'end of input' \(line 1, column 4\)$"):
        certificate_from_json(doc)
    doc["steps"][2]["bindings"]["phi"] = "q $"
    with pytest.raises(ValueError) as err:
        certificate_from_json(doc)
    assert str(err.value) == "malformed certificate document: unknown token '$' (line 1, column 3)"


def test_a_step_with_a_bad_path_reads_and_fails_replay_there():
    cert = example_certificate()[2]
    doc = certificate_to_json(cert)
    doc["steps"][2]["path"].append(9)
    back = certificate_from_json(doc)
    assert [step.bindings for step in back.steps] == [step.bindings for step in cert.steps]
    report = check_certificate(back)
    assert not report.ok and report.failed_step == 2


def test_a_binding_too_deep_to_print_is_parsed_and_fails_as_too_deep():
    # 500 unfoldings of [a*]p build a formula deeper than the printer can
    # recurse, and E5 read right to left binds all of it.  Its text is read
    # by the parser instead, which gives up on it too.
    n = 500
    steps = [{"rule": "E4", "direction": "LR", "path": [1, 1] * i,
              "bindings": {"alpha": "a", "phi": "p"}} for i in range(n)]
    deep = "p & [a](" * (n - 1) + "p & [a][a*]p" + ")" * (n - 1)
    steps.append({"rule": "E5", "direction": "RL", "path": [], "bindings": {"phi": deep}})
    with pytest.raises(ValueError, match=DEEP):
        certificate_from_json({"from": "[a*]p", "to": "p", "steps": steps})


def test_a_mismatch_on_a_subterm_too_deep_to_print_fails_at_that_step():
    report = check_certificate(certificate_from_json(forged_deep_certificate()))
    assert (report.ok, report.steps_applied, report.failed_step) == (False, 500, 500)
    assert report.reason.startswith("E5 RL does not apply at []: bound pattern differs"), report.reason
    assert report.reason.endswith("expected p, found a term too deep to print")


def document(*bindings, source="p", target="p"):
    """A certificate document with one E1 step per binding dict, read in order."""
    return {"from": source, "to": target, "steps": [
        {"rule": "E1", "direction": "LR", "path": [], "bindings": b} for b in bindings]}


@pytest.mark.parametrize("doc", [
    # "(a)" is read as a program group, then needed as an atom, and back.
    document({"alpha": "(a) ; b"}, {"phi": "(a) & p"}, {"beta": "(a)*"}, source="[(a)](a)"),
    # "(p)" is a test's formula, then a program, then a formula.
    document({"phi": "[(p)?]q"}, {"alpha": "(p) u (p)?"}, {"psi": "(p) | ((p))"},
             target="<(p)>(p)"),
])
def test_a_group_held_in_one_sort_reads_back_in_the_other(doc):
    back = certificate_from_json(doc)
    assert back.source == parse_formula(doc["from"])
    assert back.target == parse_formula(doc["to"])
    for item, step in zip(doc["steps"], back.steps):
        for name, text in item["bindings"].items():
            parse = parse_program if name in ("alpha", "beta") else parse_formula
            assert step.bindings[name] == parse(text), text


# Each edited text follows one whose groups the memo holds, so it is first read
# with those groups left out.  The messages and positions are those of a read
# of every token.
@pytest.mark.parametrize("first, edited, message", [
    ({"alpha": "(a ; b)*"}, {"phi": "[c]p & (a ; b)"}, "expected ')', found ';' (line 1, column 11)"),
    ({"phi": "(p & q) | r"}, {"psi": "[a](p & q) r"}, "unexpected trailing input 'r' (line 1, column 12)"),
    ({"phi": "(p & q) | r"}, {"psi": "[a]\n(p & q)\n  r"}, "unexpected trailing input 'r' (line 3, column 3)"),
    ({"phi": "(p & q) | r"}, {"psi": "<a>(p & q)\n& $"}, "unknown token '$' (line 2, column 3)"),
    ({"phi": "(p & q) | r"}, {"psi": "(p & q) & (p & q) & 1p"}, "unknown token '1' (line 1, column 21)"),
    ({"phi": "(p & q) | r"}, {"psi": "(p & q) & q²"},
     "atom name must be a lowercase identifier (not a keyword): 'q²' (line 1, column 11)"),
    ({"phi": "(p & q) | r"}, {"psi": "(p & q) & (r & &) | (q $)"},
     "unknown token '$' (line 1, column 24)"),
])
def test_an_edited_text_fails_as_a_full_read_does(first, edited, message):
    with pytest.raises(ValueError) as err:
        certificate_from_json(document(first, edited))
    assert str(err.value) == f"malformed certificate document: {message}"


@pytest.mark.parametrize("value", [3, None, 2.5, True, ["p"], {"p": "q"}])
def test_a_binding_that_is_not_a_string_fails_as_the_tokenizer_does(value):
    # The message is the one ``re`` gives, which differs between Pythons.
    with pytest.raises(TypeError) as plain:
        re.compile(r"\S").findall(value)
    with pytest.raises(ValueError) as err:
        certificate_from_json(document({"phi": "(p & q) | r"}, {"psi": value}))
    assert str(err.value) == f"malformed certificate document: {plain.value}"


def test_groups_left_out_cannot_stack_past_the_recursion_limit():
    # Each binding is the one before it in a group under limit/5 boxes, so
    # the term grows by limit/5 with each: seven are too deep to read.
    k = getrecursionlimit() // 5
    texts, inner = [], "X"
    for _ in range(7):
        inner = "[a]" * k + "\n <b>(" + inner + ")"
        texts.append(inner)
    with pytest.raises(ValueError, match=DEEP):
        certificate_from_json(document(*({"phi": text} for text in texts)))
    # Four levels stay within the limit and read whole.
    back = certificate_from_json(document(*({"phi": text} for text in texts[:4])))
    node, height = back.steps[3].bindings["phi"], 1
    while type(node) is not Var:
        node, height = node.body, height + 1
    assert height == 4 * (k + 1) + 1


def test_a_redone_read_forgets_the_groups_the_first_read_stored():
    # Texts built against a memo shared by one document's texts: "g" read
    # alone, then inside a deeper text that also holds "(a)" as a program.
    # Each text is read on its own, and the deep one is too deep.
    k = getrecursionlimit() // 5
    g = "[a]" * (3 * k) + "X"
    edited = "<c>([b]" + "[a]" * (2 * k) + "(" + g + ")) & (a)"
    with pytest.raises(ValueError, match=DEEP):
        certificate_from_json(document({"alpha": "(a)*"}, {"phi": g}, {"psi": edited}))


def test_a_read_too_tall_after_a_held_bracket_group_is_placed_as_a_paren_read_places_it():
    # The text above with a box after it, which repeats a box of "g": it is
    # too deep as well.
    k = getrecursionlimit() // 5
    g = "[a]" * (3 * k) + "X"
    edited = "<c>([b]" + "[a]" * (2 * k) + "(" + g + ")) & (a) & [a]p"
    with pytest.raises(ValueError, match=DEEP):
        certificate_from_json(document({"alpha": "(a)*"}, {"phi": g}, {"psi": edited}))


def test_malformed_certificate_rejected():
    with pytest.raises(ValueError, match="malformed"):
        certificate_from_json({"from": "p"})
    with pytest.raises(ValueError, match="malformed"):
        certificate_from_json({"from": "p", "to": "p", "steps": [
            {"rule": "E5", "direction": "LR", "path": [], "bindings": []}]})
    with pytest.raises(ValueError):
        certificate_from_json({"from": "p", "to": "q", "steps": [{"rule": "E99",
                               "direction": "LR", "path": [], "bindings": {}}]})


# Each edit spells every step's path or group as JSON that is not integers.
# ``int()`` would read all of them, and the edited certificate would verify.
@pytest.mark.parametrize("edit, message", [
    (lambda step: step.update(path=[i + 0.9 for i in step["path"]]),
     "path must be a list of integers, not [1.9, 0.9]"),
    (lambda step: step.update(path="".join(map(str, step["path"]))),
     "path must be a list of integers, not ''"),
    (lambda step: step.update(path=[i == 1 for i in step["path"]]),
     "path must be a list of integers, not [True, False]"),
    (lambda step: step.update(path={str(i): i for i in step["path"]}),
     "path must be a list of integers, not {}"),
    (lambda step: step.update(group=step["group"] + 0.5), "group must be an integer, not 1.5"),
    (lambda step: step.update(group=step["group"] == 1), "group must be an integer, not True"),
    (lambda step: step.update(group=str(step["group"])), "group must be an integer, not '1'"),
], ids=["path-floats", "path-string", "path-bools", "path-object",
        "group-float", "group-bool", "group-string"])
def test_a_path_or_group_that_is_not_json_integers_is_malformed(edit, message):
    doc = certificate_to_json(example_certificate()[2])
    assert check_certificate(certificate_from_json(doc)).ok
    for step in doc["steps"]:
        edit(step)
    with pytest.raises(ValueError) as err:
        certificate_from_json(doc)
    assert str(err.value) == f"malformed certificate document: {message}"


def test_validate_rules_finds_no_counterexamples():
    report = validate_rules(trials=30, models_per_trial=8, seed=4)
    for rule_id, entry in report.items():
        assert entry.counterexamples == 0, f"{rule_id}: {entry.first_failure}"


def test_rules_hold_with_variable_instantiations():
    # Variables read from the valuation like atoms, so the negation-free
    # rules accept variable-containing bindings; E8 with psi := X is the
    # canonical case.
    from pdlfix.certify import _instantiate

    rule = RULES["E8"]
    bindings = {"alpha": parse_program("a"), "phi": parse_formula("p"),
                "psi": parse_formula("X")}
    lhs = _instantiate(rule.lhs, bindings)
    rhs = _instantiate(rule.rhs, bindings)
    for seed in range(30):
        m = random_model(ModelGenParams(world_count=4, var_names=("X",), seed=seed))
        assert equivalent_on(m, lhs, rhs) is None


def test_validate_rules_flags_a_corrupted_rule():
    bogus = {"EX": RewriteRule("EX", Or(FMeta("phi"), FMeta("psi")),
                               And(FMeta("phi"), FMeta("psi")))}
    report = validate_rules(trials=20, models_per_trial=5, seed=4, rules=bogus)
    assert report["EX"].counterexamples > 0
    assert report["EX"].first_failure is not None


def test_the_false_test_variant_of_e10_is_refuted():
    # DISCREPANCIES.md item 2: a diamond over false? is constantly false, so
    # the false?-test rendering of the identity drop is unsound.
    from pdlfix.syntax import Bot, Diamond, Test

    variant = {"E10f": RewriteRule("E10f", Diamond(Test(Bot()), FMeta("phi")), FMeta("phi"))}
    report = validate_rules(trials=20, models_per_trial=5, seed=1, rules=variant)
    assert report["E10f"].counterexamples > 0


def test_a_script_off_target_raises_generation_error(monkeypatch):
    from pdlfix import certify
    from pdlfix.syntax import AtomicProg, Box

    sol = solve(parse_formula(EXAMPLE), "X")
    # A script that fails on its way: the tampered lambda has no star to unfold.
    with pytest.raises(GenerationError, match="scripted derivation failed"):
        generate_certificate(replace(sol, formula=Box(AtomicProg("a"), sol.formula)))
    # A script that runs to its end somewhere other than phi(lambda).
    monkeypatch.setattr(certify, "_derivation", lambda d, drops: iter(()))
    with pytest.raises(GenerationError, match="scripted derivation ended at"):
        generate_certificate(sol)
