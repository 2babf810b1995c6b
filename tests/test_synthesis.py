import hashlib
import json
import random

import pytest

from pdlfix.certify import certificate_to_json, generate_certificate
from pdlfix.generators import derive_seed, random_decomposition
from pdlfix.hierarchy import classify, to_nested_form
from pdlfix.semantics import (
    KripkeModel,
    ModelGenParams,
    check_solution_on,
    equivalent_on,
    random_model,
)
from pdlfix.synthesis import NotInClass, odot, solve, solve_pi, solve_sigma, tested_chain
from pdlfix.syntax import (
    And,
    Box,
    Diamond,
    Or,
    Seq,
    Star,
    Test,
    Top,
    equal_modulo_assoc,
    is_x_free,
    negate,
)
from pdlfix.textio import parse_formula, parse_program, print_formula

PAPER_LAMBDA1 = "[(true? ; a ; (~q)?)*]([true?]p & [true? ; a ; (~q)?]r)"


def decomposition_of(text, x="X"):
    return classify(parse_formula(text), x).decomposition


def test_odot_singleton():
    assert odot([parse_program("a")]) == parse_program("a")


def test_odot_right_associates():
    assert odot([parse_program(t) for t in "abc"]) == parse_program("a ; (b ; c)")


def test_odot_empty_chain_is_identity_test():
    assert odot([]) == Test(Top())


def test_tested_chain_worked_example():
    d = decomposition_of("p & [a](q | (r & X))")
    assert tested_chain(d, 1, 2) == parse_program("true? ; a ; (~q)?")


def test_tested_chain_single_odd_pair():
    d = decomposition_of("[a](p | (q & X))")
    assert tested_chain(d, 1, 1) == parse_program("a ; (~p)?")


def test_tested_chain_even_head_is_a_bare_test():
    d = decomposition_of("p | (q & X)")
    assert tested_chain(d, 1, 1) == parse_program("(~p)?")


def test_tested_chain_bounds():
    d = decomposition_of("p | (q & X)")
    with pytest.raises(IndexError):
        tested_chain(d, 1, 2)


def test_worked_example_solution_exactly():
    sol = solve(parse_formula("p & [a](q | (r & X))"), "X")
    assert sol.schema == "lambda1"
    assert equal_modulo_assoc(sol.formula, parse_formula(PAPER_LAMBDA1))
    assert print_formula(sol.formula) == PAPER_LAMBDA1


def test_level_zero_solution_equals_the_propositional_fixpoint():
    sol = solve(parse_formula("p | (q & X)"), "X")
    assert print_formula(sol.formula) == "[(~p)?*][(~p)?]q"
    for seed in range(40):
        m = random_model(ModelGenParams(world_count=1 + seed % 5, seed=seed))
        assert equivalent_on(m, sol.formula, parse_formula("p | q")) is None


def test_level_one_solution_solves_its_equation():
    phi = parse_formula("[a](p | (q & X))")
    sol = solve(phi, "X")
    assert print_formula(sol.formula) == "[(a ; (~p)?)*][a ; (~p)?]q"
    for seed in range(40):
        m = random_model(ModelGenParams(world_count=1 + seed % 5, seed=seed))
        assert check_solution_on(m, "X", phi, sol.formula).passed


def test_sigma_duality_solution():
    sol = solve(parse_formula("p & (q | X)"), "X")
    assert sol.schema == "lambda3"
    assert sol.strategy == "duality"
    assert print_formula(sol.formula) == "<p?*><p?>q"
    for seed in range(40):
        m = random_model(ModelGenParams(world_count=1 + seed % 5, seed=seed))
        assert equivalent_on(m, sol.formula, parse_formula("p & q")) is None


def test_sigma_literal_schema_is_refuted_by_the_one_world_probe():
    probe = parse_formula("p & (q | X)")
    lit = solve(probe, "X", strategy="literal")
    assert print_formula(lit.formula) == "<(~p)?*><(~p)?>q"
    m = KripkeModel(worlds=("w0",), relations={},
                    valuation={"p": frozenset({"w0"}), "q": frozenset({"w0"})})
    report = check_solution_on(m, "X", probe, lit.formula)
    assert not report.passed
    assert report.counterexample_world == "w0"


def test_sigma_leading_diamond_duality_is_negated_lambda2():
    phi = parse_formula("<a>(p & (q | X))")
    sol = solve(phi, "X")
    assert sol.schema == "lambda4"
    mu = solve(negate(phi), "X")
    assert mu.schema == "lambda2"
    assert sol.formula == negate(mu.formula)


def test_bare_unknown_solves_to_a_tautology():
    sol = solve(parse_formula("X"), "X")
    assert print_formula(sol.formula) == "[true?*][true?]true"
    for seed in range(20):
        m = random_model(ModelGenParams(world_count=1 + seed % 4, seed=seed))
        assert equivalent_on(m, sol.formula, Top()) is None


def test_x_free_shortcut():
    phi = parse_formula("p & q")
    sol = solve(phi, "X")
    assert sol.schema == "xfree"
    assert sol.formula == phi


def test_not_in_class_is_an_error_not_a_guess():
    with pytest.raises(NotInClass):
        solve(parse_formula("[X?]p"), "X")
    with pytest.raises(NotInClass):
        solve(parse_formula("<a>X | [a]X"), "X")


def test_schema_dispatch_table():
    cases = [
        ("p | (q & X)", "lambda1"),
        ("[a](p | (q & X))", "lambda2"),
        ("p & (q | X)", "lambda3"),
        ("<a>(p & (q | X))", "lambda4"),
    ]
    for text, schema in cases:
        assert solve(parse_formula(text), "X").schema == schema


def test_kind_mismatch_rejected():
    pi = decomposition_of("p | (q & X)")
    sigma = decomposition_of("p & (q | X)")
    with pytest.raises(ValueError):
        solve_pi(sigma)
    with pytest.raises(ValueError):
        solve_sigma(pi)


def test_duality_coherence():
    rng = random.Random(13)
    for trial in range(40):
        d = random_decomposition(rng, kind="Sigma")
        from dataclasses import replace

        sol = solve_sigma(d, strategy="duality")
        mu = solve_pi(replace(d, kind="Pi"))
        assert negate(sol.formula) == mu.formula


def test_solutions_are_always_x_free():
    rng = random.Random(3)
    for trial in range(60):
        d = random_decomposition(rng)
        sol = solve_pi(d) if d.kind == "Pi" else solve_sigma(d)
        assert is_x_free(sol.formula, "X")


def test_fixed_point_property_across_all_four_cases():
    rng = random.Random(2024)
    cases = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]
    for trial in range(80):
        kind, leading = cases[trial % 4]
        d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=3)
        phi_x = to_nested_form(d)
        sol = solve_pi(d) if kind == "Pi" else solve_sigma(d)
        for k in range(5):
            m = random_model(
                ModelGenParams(world_count=1 + k % 5, var_names=("X",), seed=derive_seed(trial, k))
            )
            report = check_solution_on(m, "X", phi_x, sol.formula)
            assert report.passed, (
                f"schema {sol.schema} failed on {print_formula(phi_x)} "
                f"at {report.counterexample_world}"
            )


def test_level_zero_lambda_matches_phi_or_psi():
    from pdlfix.syntax import Or

    rng = random.Random(11)
    for trial in range(40):
        d = random_decomposition(rng, kind="Pi", leading=False, max_pairs=1)
        sol = solve_pi(d)
        target = Or(d.pairs[0].phi, d.pairs[0].psi)
        for k in range(5):
            m = random_model(ModelGenParams(world_count=1 + k % 4, seed=derive_seed(trial, k)))
            assert equivalent_on(m, sol.formula, target) is None


def test_foreign_variables_in_components_void_the_guarantee():
    # DISCREPANCIES.md item 4: negation fixes variables, so a component
    # containing one makes the synthesized guard the wrong test.
    phi = parse_formula("Y | (p & X)")
    sol = solve(phi, "X")
    m = KripkeModel(worlds=("w0",), relations={}, valuation={"Y": frozenset({"w0"})})
    assert not check_solution_on(m, "X", phi, sol.formula).passed


def test_solution_json():
    sol = solve(parse_formula("p & [a](q | (r & X))"), "X")
    doc = sol.to_json()
    assert doc["schema"] == "lambda1"
    assert doc["lambda"] == PAPER_LAMBDA1
    assert doc["decomposition"]["kind"] == "Pi"


# SHA-256 over the text of lambda and the certificate document of each of
# the 300 decompositions of ``shared_cases``, one per line: the bytes that
# solve and solve --certify print.
LAMBDA_AND_CERTIFICATE_DIGEST = "3271dd839f7e06a22f5cf5d2b2bcb6353d79a43d246916844e7ba4fce4a7dd06"


def shared_cases():
    """300 seeded decompositions with 1-6 pairs, both hierarchies, leading or
    not; the solution of each, and its certificate."""
    for trial in range(300):
        kind, leading = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)][trial % 4]
        rng = random.Random(derive_seed(53, trial))
        d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=1 + trial // 4 % 6)
        phi = to_nested_form(d)
        sol = solve(phi, d.x)
        yield sol, generate_certificate(sol, padding=classify(phi, d.x).padding)


def chain_parts(program):
    """The parts of a chain that ``odot`` made, first to last."""
    parts = []
    while type(program) is Seq:
        parts.append(program.first)
        program = program.second
    return parts + [program]


def spine(formula, cls):
    """The operands of a right-nested chain of ``cls``."""
    operands = []
    while type(formula) is cls:
        operands.append(formula.left)
        formula = formula.right
    return operands + [formula]


def test_lambda_shares_its_tested_parts_and_prints_as_before():
    lines, shapes = [], set()
    for sol, cert in shared_cases():
        lines += [print_formula(sol.formula), json.dumps(certificate_to_json(cert))]
        d = sol.decomposition
        shapes.add((d.kind, d.leading_modality, d.n))
        pi = d.kind == "Pi"
        lam = sol.formula
        assert type(lam) is (Box if pi else Diamond) and type(lam.prog) is Star
        terms = spine(lam.body, And if pi else Or)
        assert len(terms) == d.n
        chains = [chain_parts(term.prog) for term in terms]
        # The star's body is the last term's chain, the same object.
        assert lam.prog.body is terms[-1].prog
        tests = {}  # pair index -> the ids of its test in every chain
        for j, parts in enumerate(chains):
            at = 0
            for k, pair in enumerate(d.pairs[: j + 1]):
                at += pair.alpha is not None
                assert parts[at] == Test(negate(pair.phi))
                tests.setdefault(k, set()).add(id(parts[at]))
                at += 1
            assert at == len(parts)
        assert all(len(ids) == 1 for ids in tests.values()), tests
    assert shapes >= {(kind, leading, n) for kind in ("Pi", "Sigma") for leading in (False, True)
                      for n in range(1, 7)}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LAMBDA_AND_CERTIFICATE_DIGEST
