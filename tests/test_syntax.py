import copy
import dataclasses
import pickle
import random
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from conftest import formulas, programs
from hypothesis import assume, example, given, settings

import pdlfix.syntax
from pdlfix.certify import (
    RULES,
    apply_rule,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    generate_certificate,
)
from pdlfix.generators import TermGen, derive_seed, random_decomposition
from pdlfix.hierarchy import classify, to_nested_form
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
from pdlfix.textio import parse_formula, parse_program, print_formula, print_program


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
    # Slotted: no instance dict.  The variable set is built with the term and
    # is no dataclass field.
    assert not hasattr(term, "__dict__")
    assert term._variables == _reference_variables(term) and "_variables" not in fields
    assert fields == CHILD_FIELDS[cls] + (("name",) if bad_name is not None else ())
    # The dataclass surface as perfbench/workloads.py uses it (renamed,
    # node_counts): read the fields' values, rebuild from the children.
    parts = {f.name: getattr(term, f.name) for f in dataclasses.fields(term)}
    rebuilt = dataclasses.replace(term, **{k: v for k, v in parts.items()
                                           if isinstance(v, (Formula, Program))})
    assert type(rebuilt) is cls and rebuilt == term
    assert rebuilt._variables == _reference_variables(term)
    if bad_name is not None:
        renamed = dataclasses.replace(term, name=term.name + "z")
        assert renamed == cls(term.name + "z")
        assert renamed._variables == _reference_variables(renamed)
    if sys.version_info >= (3, 13):
        twin = copy.replace(term, **parts)
        assert twin == term and twin._variables == _reference_variables(term)


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


# Every term carries its variable set from construction.  The tests below
# hold that the set is the one a walk finds, however the term was built, and
# that ``is_x_free``, ``variables`` and ``substitute`` read it instead of walking.

def _reference_variables(term):
    return frozenset(node.name for node in _pre_order(term) if type(node) is Var)


def _reference_substitute(term, x, psi):
    if type(term) is Var:
        return psi if term.name == x else term
    kids = children(term)
    return type(term)(*(_reference_substitute(kid, x, psi) for kid in kids)) if kids else term


def _fresh(term):
    """An equal term made of new objects, each leaf by ``dataclasses.replace``."""
    kids = children(term)
    return type(term)(*map(_fresh, kids)) if kids else dataclasses.replace(term)


def _replaced(term):
    """An equal term with each node remade by ``dataclasses.replace`` from its
    new children."""
    fields = CHILD_FIELDS[type(term)]
    return dataclasses.replace(term, **{f: _replaced(getattr(term, f)) for f in fields})


def assert_sets_are_built(term):
    for node in subterms(term):
        assert node._variables == _reference_variables(node), node
        assert type(node._variables) is frozenset


def _count_children(monkeypatch):
    calls = []
    original = pdlfix.syntax.children

    def counted(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(pdlfix.syntax, "children", counted)
    return calls


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(formulas, programs), st.sampled_from(["X", "Y", "Z"]))
@example(parse_formula("[(X)?]p & <a>q"), "X")  # x only under a test
@example(parse_formula("p | [a*](Y & q)"), "X")  # variables other than x
@example(parse_formula("p & [b]q"), "X")  # no variable at all
def test_every_built_term_carries_its_variable_set(term, x):
    psi = parse_formula("s | Y")
    is_formula = isinstance(term, Formula)
    parsed = parse_formula(print_formula(term)) if is_formula else parse_program(print_program(term))
    built = [term, parsed, _fresh(term), _replaced(term),
             pickle.loads(pickle.dumps(term)), copy.deepcopy(term)]
    if is_formula:
        built.append(negate(term))
    if sys.version_info >= (3, 13):
        built.append(copy.replace(term, **{f: getattr(term, f) for f in term.__match_args__}))
    for twin in built:
        assert_sets_are_built(twin)
        for node in subterms(twin):
            assert is_x_free(node, x) is (x not in _reference_variables(node))
            assert variables(node) == _reference_variables(node)
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_children(patch)
            out = substitute(twin, x, psi)
        assert out == _reference_substitute(twin, x, psi)
        assert_sets_are_built(out)
        # ``substitute`` enters exactly the nodes that hold x, in pre-order.
        assert calls == [node for node in subterms(twin) if x in _reference_variables(node)]


def test_generated_and_certified_terms_carry_their_variable_sets():
    # Rule patterns hold metavariables, whose sets are empty, as their parents read them.
    patterns = [side for rule in RULES.values() for side in (rule.lhs, rule.rhs)]
    assert all(side._variables == frozenset() for side in patterns)
    for i in range(24):
        rng = random.Random(derive_seed(8, i))
        gen = TermGen(rng, ("X", "Y", "Z"))
        assert_sets_are_built(gen.formula(4))
        assert_sets_are_built(gen.program(3))
        phi = to_nested_form(random_decomposition(rng, extra_vars=("Y",)))
        sol = solve(phi, "X")
        cert = generate_certificate(sol, padding=classify(phi, "X").padding)
        read = certificate_from_json(certificate_to_json(cert))
        for c in (cert, read):
            assert_sets_are_built(c.target)
            assert check_certificate(c).ok
            state = c.source  # each step's result is built by the rule's make
            for step in c.steps:
                assert_sets_are_built(state)
                for value in step.bindings.values():
                    assert_sets_are_built(value)
                state = apply_rule(state, step)
            assert_sets_are_built(state)


def test_a_chain_of_distinct_variables_stays_within_its_set_sizes():
    # Each node of a chain of n distinct variables holds its own set, of sizes
    # 1..n, about 21 MiB at n = 1,000.  The bound catches any further growth.
    tracemalloc.start()
    try:
        term = Var("V0")
        for i in range(1, 1000):
            term = And(term, Var(f"V{i}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(term._variables) == 1000 and term.left._variables < term._variables
    assert peak < 32 * 2**20, peak


def test_a_deep_term_built_bottom_up_carries_its_variable_set():
    term, expected = Var("Y"), {"Y"}
    for i in range(2000):
        name = f"V{i % 7}"
        if i % 3 == 0:
            term, expected = And(Var(name), term), expected | {name}
        elif i % 3 == 1:
            term = Box(Test(Atom("p")), term)
        else:
            term = Diamond(Star(AtomicProg("a")), Or(term, Top()))
        assert term._variables == expected
    assert variables(term) == {"Y", *(f"V{i}" for i in range(7))}
    assert is_x_free(term, "X") and not is_x_free(term, "V6")
    assert substitute(term, "X", Atom("p")) is term  # not entered, so no recursion


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


def test_a_solved_candidate_is_scanned_once(monkeypatch):
    lam = solve(parse_formula("p & [a](q | (r & X))"), "X").formula
    calls = _count_children(monkeypatch)
    assert is_x_free(lam, "X") and variables(lam) == frozenset()
    assert calls == []  # not even once: the set was built with the term


def test_is_x_free_and_variables_walk_nothing(monkeypatch):
    phi = parse_formula("p & [a](q | (r & X))")
    calls = _count_children(monkeypatch)
    assert not is_x_free(phi, "X") and not is_x_free(phi, "X")
    assert is_x_free(phi, "Y") and variables(phi) == {"X"}
    assert program_variables(parse_program("(X & p)? ; a")) == {"X"}
    assert calls == []


def test_substitute_does_not_enter_a_subterm_known_to_lack_x(monkeypatch):
    big = parse_formula("<a*>(p | [b](q & ~r)) & [(s | t)?]s")
    other = parse_formula("[c ; d](p | q)")
    phi = And(big, Or(other, Box(AtomicProg("a"), Var("X"))))
    calls = _count_children(monkeypatch)
    out = substitute(phi, "X", Atom("p"))
    assert out == And(big, Or(other, Box(AtomicProg("a"), Atom("p"))))
    assert out.left is big and out.right.left is other and out.right.right.prog is phi.right.right.prog
    # Only the nodes that hold X are entered: the spine And, Or, Box and the
    # variable itself; neither big subterm and not the Box's program.
    assert calls == [phi, phi.right, phi.right.right, phi.right.right.body]
    assert all("X" in node._variables for node in calls)
