import copy
import dataclasses
import pickle
import sys

import hypothesis.strategies as st
import pytest
from conftest import formulas, programs
from hypothesis import assume, example, given, settings

import pdlfix.syntax
from pdlfix.syntax import (
    And,
    Atom,
    AtomicProg,
    Bot,
    Box,
    Choice,
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
    same_term,
    substitute,
    subterms,
    variables,
)
from pdlfix.synthesis import solve
from pdlfix.textio import parse_formula, parse_program, print_formula


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


def deep_term(leaf, depth=5000):
    """A term ``depth`` levels tall: boxes and tests alternate down a spine,
    each beside a small left child, around ``leaf``."""
    term = leaf
    for level in range(depth):
        term = Box(Seq(AtomicProg("a"), Test(Atom("p"))), term) if level % 2 else Or(Atom("q"), term)
    return term


def test_same_term_compares_terms_deeper_than_the_recursion_limit():
    left, right = deep_term(Atom("r")), deep_term(Atom("r"))
    assert left is not right
    with pytest.raises(RecursionError):
        left == right
    assert same_term(left, right)
    assert same_term(left, left)
    assert not same_term(left, deep_term(Atom("s")))
    assert not same_term(left, deep_term(NegAtom("r")))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(formulas, formulas)
def test_same_term_agrees_with_equality(phi, psi):
    assert same_term(phi, psi) == (phi == psi)
    assert same_term(phi, negate(negate(phi)))


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


# One sample term of each class, its repr and, for a named leaf, a rejected
# name with its error.  Certificates, pickles and user messages depend on this
# surface, however the classes are made.
_SAMPLES = {
    Atom: (Atom("p"), "Atom(name='p')", ("true", "atom name must be a lowercase identifier (not a keyword): 'true'")),
    NegAtom: (NegAtom("p"), "NegAtom(name='p')", ("P", "atom name must be a lowercase identifier (not a keyword): 'P'")),
    Var: (Var("X"), "Var(name='X')", ("x", "variable name must be an uppercase identifier: 'x'")),
    Top: (Top(), "Top()", None),
    Bot: (Bot(), "Bot()", None),
    Or: (Or(Atom("p"), Var("X")), "Or(left=Atom(name='p'), right=Var(name='X'))", None),
    And: (And(Var("X"), Bot()), "And(left=Var(name='X'), right=Bot())", None),
    Diamond: (Diamond(AtomicProg("a"), Top()), "Diamond(prog=AtomicProg(name='a'), body=Top())", None),
    Box: (Box(Star(AtomicProg("a")), Var("X")),
          "Box(prog=Star(body=AtomicProg(name='a')), body=Var(name='X'))", None),
    AtomicProg: (AtomicProg("a"), "AtomicProg(name='a')",
                 ("u", "atomic program name must be a lowercase identifier (not a keyword): 'u'")),
    Test: (Test(NegAtom("q")), "Test(cond=NegAtom(name='q'))", None),
    Seq: (Seq(AtomicProg("a"), Test(Top())), "Seq(first=AtomicProg(name='a'), second=Test(cond=Top()))", None),
    Choice: (Choice(AtomicProg("a"), AtomicProg("b")),
             "Choice(left=AtomicProg(name='a'), right=AtomicProg(name='b'))", None),
    Star: (Star(AtomicProg("a")), "Star(body=AtomicProg(name='a'))", None),
}


@pytest.mark.parametrize("cls", list(CHILD_FIELDS), ids=lambda cls: cls.__name__)
def test_term_class_surface(cls):
    term, text, bad_name = _SAMPLES[cls]
    assert type(term) is cls
    assert cls.__module__ == "pdlfix.syntax"
    assert cls.__qualname__ == cls.__name__
    assert getattr(pdlfix.syntax, cls.__name__) is cls
    assert pickle.loads(pickle.dumps(cls)) is cls
    assert repr(term) == text
    for twin in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert type(twin) is cls and twin == term and hash(twin) == hash(term)
    fields = tuple(field.name for field in dataclasses.fields(cls))
    values = tuple(getattr(term, name) for name in fields)
    assert cls(*values) == term
    for name in (*fields, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, name, Top())
    kids = children(term)
    if kids:
        other = Bot() if isinstance(kids[0], Formula) else AtomicProg("z")
        changed = dataclasses.replace(term, **{CHILD_FIELDS[cls][0]: other})
        assert type(changed) is cls and children(changed) == (other, *kids[1:])
    if bad_name is not None:
        name, message = bad_name
        with pytest.raises(ValueError) as err:
            cls(name)
        assert str(err.value) == message
    if cls is Test:
        assert cls.__test__ is False  # pytest must not collect it
    # Slotted: no instance dict, and the stored variable set has a slot of its
    # own that is no dataclass field.
    assert not hasattr(term, "__dict__")
    assert "_variables" in cls.__slots__ and term._variables is None
    assert fields == CHILD_FIELDS[cls] + (("name",) if bad_name is not None else ())
    # The dataclass surface as perfbench/workloads.py uses it (renamed,
    # node_counts): read the fields' values, rebuild from the children.
    parts = {f.name: getattr(term, f.name) for f in dataclasses.fields(term)}
    rebuilt = dataclasses.replace(term, **{k: v for k, v in parts.items()
                                           if isinstance(v, (Formula, Program))})
    assert type(rebuilt) is cls and rebuilt == term and rebuilt._variables is None
    if bad_name is not None:
        assert dataclasses.replace(term, name=term.name + "z") == cls(term.name + "z")
    if sys.version_info >= (3, 13):
        assert copy.replace(term, **parts) == term


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


# A term's variable set is stored on it once a scan has seen every name.  The
# tests below hold that this cache changes no answer and no term's identity as
# a value, and pin where it is used.

def _reference_variables(term):
    return frozenset(node.name for node in _pre_order(term) if type(node) is Var)


def _reference_substitute(term, x, psi):
    if type(term) is Var:
        return psi if term.name == x else term
    kids = children(term)
    return type(term)(*(_reference_substitute(kid, x, psi) for kid in kids)) if kids else term


def _fresh(term):
    """An equal term made of new objects, none of which has a stored set."""
    kids = children(term)
    return type(term)(*map(_fresh, kids)) if kids else dataclasses.replace(term)


def _prime(term, x, order, pick):
    """Leave the cache of ``term`` in the state that ``order`` names."""
    if order == "variables on the root":
        variables(term)
    elif order != "fresh":
        with_x = order.endswith("with x")
        inner = [node for node in list(subterms(term))[1:]
                 if (x in _reference_variables(node)) == with_x]
        if not inner:
            return
        node = inner[pick % len(inner)]
        if order.startswith("variables"):
            variables(node)  # a known set that holds x
        else:
            assert is_x_free(node, x) is not with_x


_ORDERS = ("fresh", "variables on the root", "is_x_free on an inner subterm without x",
           "is_x_free on an inner subterm with x", "variables on an inner subterm with x")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(formulas, programs), st.sampled_from(["X", "Y", "Z"]), st.integers(0, 99))
@example(parse_formula("[(X)?]p & <a>q"), "X", 0)  # x only under a test
@example(parse_formula("[(X)?]p & <a>q"), "X", 1)
@example(parse_formula("p | [a*](Y & q)"), "X", 0)  # variables other than x
@example(parse_formula("p & [b]q"), "X", 0)  # no variable at all
def test_cached_variable_sets_change_no_answer(term, x, pick):
    psi = parse_formula("s | Y")
    expected = _reference_variables(term)
    for order in _ORDERS:
        copy = _fresh(term)
        _prime(copy, x, order, pick)
        assert substitute(copy, x, psi) == _reference_substitute(term, x, psi), order
        for _ in range(2):
            assert is_x_free(copy, x) is (x not in expected), order
            names = variables(copy)
            assert type(names) is frozenset and names == expected, order
        assert substitute(copy, x, psi) == _reference_substitute(term, x, psi), order
        for node in subterms(copy):
            assert is_x_free(node, x) is (x not in _reference_variables(node)), order
            assert variables(node) == _reference_variables(node), order


def _deep_chain(depth):
    term = Var("Y")
    for _ in range(depth):
        term = And(Atom("p"), term)
    return term


def test_deep_terms_scan_without_recursion():
    fresh = _deep_chain(20_000)
    assert is_x_free(fresh, "X")
    assert is_x_free(fresh, "X") and not is_x_free(fresh, "Y")
    assert variables(fresh) == {"Y"}
    fresh = _deep_chain(20_000)
    assert not is_x_free(fresh, "Y")
    assert variables(fresh) == {"Y"} and variables(fresh) == {"Y"}
    assert is_x_free(fresh, "X") and not is_x_free(fresh, "Y")


def test_a_stored_set_is_no_part_of_the_term_value():
    phi = parse_formula("[(a ; (p & Y)?)* u b]<c>(true | ~q) & false")
    seen = (hash(phi), repr(phi), print_formula(phi), dataclasses.fields(phi))
    variables(phi)
    assert (hash(phi), repr(phi), print_formula(phi), dataclasses.fields(phi)) == seen
    assert phi == _fresh(phi) and hash(phi) == hash(_fresh(phi))
    back = pickle.loads(pickle.dumps(phi))
    assert back == phi and hash(back) == hash(phi)
    assert repr(back) == repr(phi) and print_formula(back) == print_formula(phi)
    assert variables(back) == {"Y"} and is_x_free(back, "X")


def test_replacing_a_field_drops_the_stored_set():
    node = parse_formula("[a]p")
    assert is_x_free(node, "X")
    assert is_x_free(dataclasses.replace(node, body=Var("X")), "X") is False


def _count_children(monkeypatch):
    calls = []
    original = pdlfix.syntax.children

    def counted(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(pdlfix.syntax, "children", counted)
    return calls


def test_a_solved_candidate_is_scanned_once(monkeypatch):
    lam = solve(parse_formula("p & [a](q | (r & X))"), "X").formula
    assert is_x_free(lam, "X")
    calls = _count_children(monkeypatch)
    assert is_x_free(lam, "X") and variables(lam) == frozenset()
    assert calls == []


def test_a_scan_that_meets_x_stores_nothing(monkeypatch):
    phi = parse_formula("p & [a](q | (r & X))")
    calls = _count_children(monkeypatch)
    assert not is_x_free(phi, "X")
    first = len(calls)
    assert first > 0
    assert not is_x_free(phi, "X")
    assert len(calls) == 2 * first


def test_substitute_does_not_enter_a_subterm_known_to_lack_x(monkeypatch):
    big = parse_formula("<a*>(p | [b](q & ~r)) & [(s | t)?]s")
    other = parse_formula("[c ; d](p | q)")
    assert is_x_free(big, "X") and is_x_free(other, "X")
    phi = And(big, Or(other, Box(AtomicProg("a"), Var("X"))))
    calls = _count_children(monkeypatch)
    out = substitute(phi, "X", Atom("p"))
    assert out == And(big, Or(other, Box(AtomicProg("a"), Atom("p"))))
    # The spine And, Or, Box and the Box's two children; neither big subterm.
    assert calls == [phi, phi.right, phi.right.right, AtomicProg("a"), Var("X")]
