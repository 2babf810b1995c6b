import hashlib
import random

import pytest

import pdlfix.hierarchy
from pdlfix.generators import TermGen, derive_seed, random_decomposition
from pdlfix.hierarchy import (
    ClassifyResult,
    Decomposition,
    Pair,
    XFree,
    classify,
    classify_pi,
    classify_sigma,
    decomposition_from_json,
    decomposition_to_json,
    diagnose,
    reconstruct,
    to_chain_form,
    to_nested_form,
)
from pdlfix.semantics import ModelGenParams, equivalent_on, random_model
from pdlfix.syntax import Bot, Top, Var, negate
from pdlfix.textio import parse_formula, parse_program, print_formula


def classified(text, x="X", **kw):
    result = classify(parse_formula(text), x, **kw)
    assert isinstance(result, ClassifyResult), f"{text} did not classify"
    return result


def test_worked_example_components():
    result = classified("p & [a](q | (r & X))")
    d = result.decomposition
    assert d.kind == "Pi"
    assert d.level == 2
    assert d.n == 2
    assert not d.leading_modality
    assert d.pairs[0] == Pair(Bot(), parse_formula("p"), None)
    assert d.pairs[1] == Pair(parse_formula("q"), parse_formula("r"), parse_program("a"))
    assert [p.index for p in result.padding if p.phi_padded] == [1]
    assert not any(p.psi_padded for p in result.padding)


def test_level_one_box():
    result = classified("[a](p | (q & X))")
    d = result.decomposition
    assert (d.kind, d.level, d.n, d.leading_modality) == ("Pi", 1, 1, True)
    assert d.pairs[0] == Pair(parse_formula("p"), parse_formula("q"), parse_program("a"))


def test_unknown_inside_a_program_is_not_in_class():
    assert classify(parse_formula("[X?]p"), "X") is None
    assert classify(parse_formula("[(X? ; a)*]p & q | (r & X)"), "X") is None


def test_bare_unknown_pads_both_slots():
    result = classified("X")
    d = result.decomposition
    assert (d.kind, d.level, d.n, d.leading_modality) == ("Pi", 0, 1, False)
    assert d.pairs[0] == Pair(Bot(), Top(), None)
    pad = result.padding[0]
    assert pad.phi_padded and pad.psi_padded


def test_stacked_boxes_classify_through_full_padding():
    result = classified("[a][b]X")
    d = result.decomposition
    assert (d.kind, d.level, d.n) == ("Pi", 3, 2)
    assert d.pairs[0].alpha == parse_program("a")
    assert d.pairs[1].alpha == parse_program("b")


def test_sigma_base_case_stores_negated_components():
    result = classified("p & (q | X)")
    d = result.decomposition
    assert (d.kind, d.level, d.n, d.leading_modality) == ("Sigma", 0, 1, False)
    assert d.pairs[0].phi == parse_formula("~p")
    assert d.pairs[0].psi == parse_formula("~q")


def test_sigma_with_leading_diamond():
    result = classified("<a>(p & (q | X))")
    d = result.decomposition
    assert (d.kind, d.level, d.n, d.leading_modality) == ("Sigma", 1, 1, True)
    assert d.pairs[0] == Pair(parse_formula("~p"), parse_formula("~q"), parse_program("a"))


def test_pi_shape_is_not_sigma():
    assert classify_sigma(parse_formula("p | (q & X)"), "X") is None


def test_x_free_tag():
    outcome = classify(parse_formula("p & q"), "X")
    assert isinstance(outcome, XFree)


def test_multiple_occurrences_rejected():
    assert classify(parse_formula("X & X"), "X") is None
    assert classify(parse_formula("[a](X | (q & X))"), "X") is None


def test_commutation_accepted_and_recorded():
    result = classified("(q & X) | p")
    pad = result.padding[0]
    assert pad.or_commuted and not pad.and_commuted
    assert result.decomposition.pairs[0].phi == parse_formula("p")

    result = classified("X & q")
    assert result.padding[0].and_commuted


def test_strict_mode_rejects_commutation():
    assert classify_pi(parse_formula("(q & X) | p"), "X", strict=True) is None
    assert classify_pi(parse_formula("p | (q & X)"), "X", strict=True) is not None


@pytest.mark.parametrize("text, strict, reason", [
    ("[X?]p", False,
     "as Pi: X occurs inside the leading program; "
     "as Sigma (after negating): layer 1 must bottom out at X or a box, found <X?>~p"),
    ("X | X", False,
     "as Pi: both operands of layer 1 contain X; "
     "as Sigma (after negating): both operands of layer 1 contain X"),
    ("p | q", False,
     "as Pi: neither operand of layer 1 contains X; "
     "as Sigma (after negating): neither operand of layer 1 contains X"),
    ("p & <a>[b]X", False,
     "as Pi: layer 1 must bottom out at X or a box, found <a>[b]X; "
     "as Sigma (after negating): layer 2 must bottom out at X or a box, found <b>X"),
    ("(q & X) | p", True,
     "as Pi: layer 1 is commuted and strict mode is on; "
     "as Sigma (after negating): layer 1 is commuted and strict mode is on"),
    ("[a](p | [X?]X)", False,
     "as Pi: X occurs inside the program guarding layer 2; "
     "as Sigma (after negating): layer 1 must bottom out at X or a box, found <a>(~p & <X?>X)"),
    ("p & [a](q | (r & X))", False, "the formula classifies as Pi"),
    ("p & <a>X", False, "the formula classifies as Sigma"),
])
def test_diagnose_names_the_failed_layer(text, strict, reason):
    assert diagnose(parse_formula(text), "X", strict=strict) == reason


def test_seeded_diagnoses_are_pinned():
    # 900 seeded inputs: Pi and Sigma nested forms, which classify, and depth-3
    # formulas over X and Y, most of which do not; strict on every other one.
    # About 180 of the reasons print a formula ("found ..."), so the digest
    # pins the text that a failed layer match makes only when it is read.
    digest = hashlib.sha256()
    for i in range(900):
        rng = random.Random(derive_seed(24, i))
        if i % 3 < 2:
            phi = to_nested_form(random_decomposition(rng, kind=("Pi", "Sigma")[i % 3]))
        else:
            phi = TermGen(rng, ("X", "Y")).formula(3)
        digest.update(f"{diagnose(phi, 'X', strict=i % 2 == 0)}\n".encode())
    assert digest.hexdigest() == "4378a0e3dda8b5f94e64b2f4d1b2b54aa598bd29177970367cc281a32ed4e36f"


def test_a_sigma_classification_prints_nothing(monkeypatch):
    printed = []
    original = pdlfix.hierarchy.print_formula
    monkeypatch.setattr(pdlfix.hierarchy, "print_formula",
                        lambda phi: printed.append(phi) or original(phi))
    phi = parse_formula("p | <a>(q & (r | X))")  # its Pi match fails at a diamond
    assert classify(phi, "X").decomposition.kind == "Sigma"
    assert classify_sigma(phi, "X") is not None and classify_pi(phi, "X") is None
    assert printed == []
    assert diagnose(parse_formula("<a>X | <b>X"), "X") == (
        "as Pi: both operands of layer 1 contain X; "
        "as Sigma (after negating): both operands of layer 1 contain X")
    assert printed == []
    assert diagnose(parse_formula("p & <a>[b]X"), "X").endswith("found <b>X")
    assert len(printed) == 2  # once a side: the text is made when it is read


def test_right_associated_disjunction_chains_are_exact_shapes():
    # phi_1 must be one operand of the layer: p | (q | (r & X)) has its
    # unknown nested under a second disjunction and is out of class.
    assert classify(parse_formula("p | (q | (r & X))"), "X") is None
    assert classify(parse_formula("(p | q) | (r & X)"), "X") is not None


def test_nested_form_of_worked_example():
    d = classified("p & [a](q | (r & X))").decomposition
    assert to_nested_form(d) == parse_formula("false | (p & [a](q | (r & X)))")


def test_chain_form_of_level_one():
    d = classified("[a](p | (q & X))").decomposition
    assert to_chain_form(d) == parse_formula("[a ; (~p)?]<q?>X")


def test_chain_form_of_worked_example():
    d = classified("p & [a](q | (r & X))").decomposition
    assert to_chain_form(d) == parse_formula("[true?]<p?>[a ; (~q)?]<r?>X")


def test_reconstruct_replays_padding_exactly():
    for text in [
        "p & [a](q | (r & X))",
        "X",
        "X & q",
        "(q & X) | p",
        "[a][b]X",
        "p | X",
        "<a>(p & (q | X))",
        "p & (q | X)",
    ]:
        phi = parse_formula(text)
        result = classify(phi, "X")
        assert isinstance(result, ClassifyResult)
        assert reconstruct(result) == phi, text


@pytest.mark.parametrize("keep", [slice(0, 0), slice(1, None)], ids=["no-records", "first-missing"])
def test_reconstruct_writes_a_pair_without_a_record_in_full(keep):
    result = classified("p & [a](q | (r & X))")
    short = ClassifyResult(result.decomposition, result.padding[keep])
    assert reconstruct(short) == parse_formula("false | p & [a](q | r & X)")


def test_sigma_duality_mirrors_pi():
    rng = random.Random(31)
    for trial in range(60):
        d = random_decomposition(rng, kind="Pi")
        phi = to_nested_form(d)
        pi = classify_pi(phi, "X")
        sigma = classify_sigma(negate(phi), "X")
        assert pi is not None and sigma is not None
        assert sigma.decomposition.pairs == pi.decomposition.pairs
        assert sigma.decomposition.leading_modality == pi.decomposition.leading_modality


def test_classification_recovers_random_decompositions():
    rng = random.Random(8)
    for trial in range(150):
        d = random_decomposition(rng, max_pairs=3)
        result = classify(to_nested_form(d), "X")
        assert isinstance(result, ClassifyResult)
        assert result.decomposition == d


def test_chain_form_is_equivalent_to_nested_form():
    rng = random.Random(77)
    for trial in range(60):
        d = random_decomposition(rng, max_pairs=3)
        nested, chain = to_nested_form(d), to_chain_form(d)
        for k in range(4):
            m = random_model(
                ModelGenParams(world_count=1 + k, var_names=("X",), seed=derive_seed(trial, k))
            )
            assert equivalent_on(m, nested, chain) is None


def test_unknown_occurs_exactly_once_in_classified_formulas():
    rng = random.Random(4)
    for trial in range(80):
        d = random_decomposition(rng, max_pairs=3)
        text = print_formula(to_nested_form(d))
        assert text.count("X") == 1


def test_decomposition_validation():
    with pytest.raises(ValueError, match="alpha_1"):
        Decomposition(kind="Pi", x="X", pairs=(Pair(Bot(), Top(), parse_program("a")),),
                      leading_modality=False)
    with pytest.raises(ValueError, match="alpha_2"):
        Decomposition(kind="Pi", x="X",
                      pairs=(Pair(Bot(), Top(), None), Pair(Bot(), Top(), None)),
                      leading_modality=False)
    with pytest.raises(ValueError, match="X-free"):
        Decomposition(kind="Pi", x="X", pairs=(Pair(Var("X"), Top(), None),),
                      leading_modality=False)


def test_decomposition_json_round_trip():
    result = classified("p & [a](q | (r & X))")
    doc = decomposition_to_json(result)
    assert doc["kind"] == "Pi"
    assert doc["pairs"][0] == {"phi": "false", "psi": "p", "alpha": None}
    assert doc["pairs"][1] == {"phi": "q", "psi": "r", "alpha": "a"}
    back = decomposition_from_json(doc)
    assert back.decomposition == result.decomposition
    assert back.padding == result.padding
