import dataclasses

import pytest
from conftest import formulas
from hypothesis import assume, given, settings

from pdlfix.syntax import (
    And,
    Atom,
    AtomicProg,
    Bot,
    Box,
    Diamond,
    NegAtom,
    Or,
    Seq,
    Star,
    Test,
    Top,
    Var,
    CHILD_FIELDS,
    Formula,
    Program,
    children,
    equal_modulo_assoc,
    iff,
    implies,
    is_x_free,
    negate,
    program_variables,
    rebuild,
    substitute,
    subterms,
    variables,
)
from pdlfix.textio import parse_formula, parse_program


def test_negate_atom_flips_polarity():
    assert negate(Atom("p")) == NegAtom("p")
    assert negate(NegAtom("p")) == Atom("p")


def test_negate_fixes_variables():
    assert negate(Var("X")) == Var("X")


def test_negate_constants():
    assert negate(Top()) == Bot()
    assert negate(Bot()) == Top()


def test_negate_swaps_duals_and_keeps_programs():
    phi = parse_formula("<a>(p | X)")
    assert negate(phi) == parse_formula("[a](~p & X)")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(formulas)
def test_negate_is_an_involution(phi):
    assert negate(negate(phi)) == phi


def test_substitute_whole_formula():
    assert substitute(Var("X"), "X", parse_formula("p & q")) == parse_formula("p & q")


def test_substitute_worked_example():
    phi = parse_formula("p & [a](q | (r & X))")
    lam = parse_formula("s | q")
    assert substitute(phi, "X", lam) == parse_formula("p & [a](q | (r & (s | q)))")


def test_substitute_reaches_into_tests():
    phi = parse_formula("[(X & p)? ; a]q")
    out = substitute(phi, "X", Atom("r"))
    assert out == parse_formula("[(r & p)? ; a]q")


def test_substitute_no_occurrence_is_identity():
    phi = parse_formula("p & [a]q")
    assert substitute(phi, "X", Bot()) == phi


@settings(max_examples=150, derandomize=True, deadline=None)
@given(formulas, formulas)
def test_substitution_variable_bound(phi, psi):
    out = substitute(phi, "X", psi)
    assert variables(out) <= (variables(phi) - {"X"}) | variables(psi)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(formulas, formulas)
def test_substitution_into_x_free_formula_is_identity(phi, psi):
    assume(is_x_free(phi, "X"))
    assert substitute(phi, "X", psi) == phi


def _x_inside_some_program(phi, x):
    if isinstance(phi, (Box, Diamond)):
        return x in program_variables(phi.prog) or _x_inside_some_program(phi.body, x)
    if isinstance(phi, (And, Or)):
        return _x_inside_some_program(phi.left, x) or _x_inside_some_program(phi.right, x)
    return False


@settings(max_examples=150, derandomize=True, deadline=None)
@given(formulas, formulas)
def test_negate_commutes_with_substitution(phi, lam):
    # Negation fixes programs, so the law needs X outside all test programs —
    # which is exactly what hierarchy membership guarantees.
    assume(not _x_inside_some_program(phi, "X"))
    left = negate(substitute(phi, "X", lam))
    right = substitute(negate(phi), "X", negate(lam))
    assert left == right


def test_commutation_fails_when_x_sits_inside_a_test():
    phi = parse_formula("[X?]p")
    lam = Atom("q")
    assert negate(substitute(phi, "X", lam)) != substitute(negate(phi), "X", negate(lam))


def test_variables_of_plain_formula_is_empty():
    assert variables(parse_formula("p | ~q")) == frozenset()


def test_variables_sees_through_modalities_and_tests():
    assert variables(parse_formula("[a](q | (r & X))")) == {"X"}
    assert program_variables(parse_program("(X & p)? ; a")) == {"X"}


def test_is_x_free():
    assert is_x_free(parse_formula("p & q"), "X")
    assert not is_x_free(Var("X"), "X")
    assert not is_x_free(parse_formula("[(X?)*]p"), "X")


def test_equal_modulo_assoc_on_conjunctions():
    left = And(And(Atom("p"), Atom("q")), Atom("r"))
    right = And(Atom("p"), And(Atom("q"), Atom("r")))
    assert equal_modulo_assoc(left, right)


def test_equal_modulo_assoc_is_not_commutative():
    assert not equal_modulo_assoc(parse_formula("p & q"), parse_formula("q & p"))


def test_equal_modulo_assoc_program_chains():
    left = parse_formula("[a;(b;c)]p")
    right = parse_formula("[(a;b);c]p")
    assert equal_modulo_assoc(left, right)
    assert left != right


@settings(max_examples=100, derandomize=True, deadline=None)
@given(formulas)
def test_equal_modulo_assoc_is_reflexive(phi):
    assert equal_modulo_assoc(phi, phi)


def test_implies_definition():
    assert implies(Atom("p"), Atom("q")) == parse_formula("~p | q")
    assert implies(Var("X"), Atom("p")) == parse_formula("X | p")


def test_iff_is_the_standard_biconditional():
    assert iff(Atom("p"), Atom("p")) == parse_formula("(~p | p) & (~p | p)")


def test_name_validation():
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Var("x")
    with pytest.raises(ValueError):
        AtomicProg("true")
    with pytest.raises(ValueError):
        Atom("")


def test_child_fields_name_every_term_field():
    for cls, fields in CHILD_FIELDS.items():
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert fields == (() if names in ((), ("name",)) else names), cls
    assert set(CHILD_FIELDS) == set(Formula.__subclasses__()) | set(Program.__subclasses__())


def _pre_order(term):
    yield term
    for kid in children(term):
        yield from _pre_order(kid)


def test_subterms_walk_left_to_right_and_rebuild_inverts_children():
    phi = parse_formula("[(a ; (p & X)?)* u b]<c>(true | ~q) & false")
    nodes = list(subterms(phi))
    assert nodes == list(_pre_order(phi))
    assert {type(node) for node in nodes} == set(CHILD_FIELDS)
    assert [node.name for node in nodes if type(node) is AtomicProg] == ["a", "b", "c"]
    for node in nodes:
        assert rebuild(node, children(node)) == node
