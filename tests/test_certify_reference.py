"""Certificate generation and replay against a reference fold.

The reference below is written from the definitions certificates were first
checked with: every step walks from the root to its path, rewrites by
rebuilding the whole spine recursively, and replays by instantiating the
bound source pattern and comparing it with the subterm.  It shares no code
with ``certify``'s own rewriting; it takes only the rule table and the
scripted derivation from there.  Generated certificates must be equal to
the reference's, and the checker's report on every certificate, and on
every step of it tampered with in four ways, must be equal to the
reference's, reason text included.  So must the report of the document
reader's one pass, on a pinned document with a step's texts, path, rule or
direction edited, and the certificate it reads must be what the texts
parse to.  Each directed rule's compiled ``match``
and ``make`` must agree with the reference's matcher and instantiation on
instances of its source pattern and on near misses of them.  The path
cursor, moved up, down, sideways and off the term with rewrites between its
moves, must land where the reference's walk from the current root lands.
"""

import pickle
import random
from dataclasses import replace
from functools import cache
from itertools import count

import hypothesis.strategies as st
import pytest
from conftest import formulas
from hypothesis import given, settings

from pdlfix.certify import (
    RULES,
    BadPathError,
    Certificate,
    CertifyError,
    CheckReport,
    FMeta,
    FNeg,
    MismatchError,
    PMeta,
    RewriteStep,
    _compiled,
    _Cursor,
    _derivation,
    _DUAL_RULE,
    _METAVARIABLES,
    _PROGRAM_METAVARS,
    _read,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    generate_certificate,
    rule_metavariables,
)
from pdlfix.generators import TermGen, derive_seed, random_decomposition
from pdlfix.hierarchy import PaddingRecord, _layers, classify, to_nested_form
from pdlfix.synthesis import solve
from pdlfix.syntax import (
    And,
    AtomicProg,
    Bot,
    Box,
    Choice,
    Diamond,
    Formula,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Top,
    children,
    negate,
    rebuild,
    substitute,
    subterms,
)
from pdlfix.textio import parse_formula, parse_program, print_formula, print_terms

SORTS = {FMeta: Formula, PMeta: Program, FNeg: Formula}


def ref_subterm_at(term, path):
    node = term
    for depth, idx in enumerate(path):
        kids = children(node)
        if not 0 <= idx < len(kids):
            raise BadPathError(f"no child {idx} at depth {depth} of {type(node).__name__}")
        node = kids[idx]
    return node


def ref_replace_at(term, path, new):
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = ref_replace_at(kids[path[0]], path[1:], new)
    return rebuild(term, kids)


def ref_match(pattern, subject, bindings):
    sort = SORTS.get(type(pattern))
    if sort is not None:
        if not isinstance(subject, sort):
            return False
        value = negate(subject) if type(pattern) is FNeg else subject
        if pattern.name not in bindings:
            bindings[pattern.name] = value
            return True
        return bindings[pattern.name] == value
    if type(pattern) is not type(subject):
        return False
    kids = children(pattern)
    if not kids:
        return pattern == subject
    return all(ref_match(p, s, bindings) for p, s in zip(kids, children(subject)))


def ref_instantiate(pattern, bindings):
    if type(pattern) in SORTS:
        if pattern.name not in bindings:
            raise MismatchError(f"missing binding for metavariable {pattern.name!r}")
        value = bindings[pattern.name]
        return negate(value) if type(pattern) is FNeg else value
    return rebuild(pattern, [ref_instantiate(kid, bindings) for kid in children(pattern)])


def ref_directed(step):
    rule = RULES[step.rule]
    return (rule.lhs, rule.rhs) if step.direction == "LR" else (rule.rhs, rule.lhs)


def clip(text):
    return text if len(text) <= 120 else text[:117] + "..."


def ref_apply(state, step):
    extra = step.bindings.keys() - _METAVARIABLES[step.rule]
    if extra:
        raise MismatchError(f"{step.rule} has no metavariable {min(extra)!r}")
    src, dst = ref_directed(step)
    subject = ref_subterm_at(state, step.path)
    expected = ref_instantiate(src, step.bindings)
    if expected != subject:
        want, found = (clip(text) for text in print_terms([expected, subject]))
        raise MismatchError(
            f"{step.rule} {step.direction} does not apply at {list(step.path)}: "
            f"bound pattern differs from the subterm: expected {want}, found {found}")
    return ref_replace_at(state, step.path, ref_instantiate(dst, step.bindings))


def ref_check(cert, states, at=None, tampered=None):
    """The reference report on ``cert`` with step ``at`` replaced by
    ``tampered``; ``states[i]`` is the untampered state before step ``i``."""
    start = 0 if at is None else at
    state = states[start]
    steps = list(cert.steps)
    if at is not None:
        steps[at] = tampered
    for i in range(start, len(steps)):
        try:
            state = ref_apply(state, steps[i])
        except CertifyError as exc:
            return CheckReport(ok=False, steps_applied=i, failed_step=i, reason=str(exc), final=None)
    if state != cert.target:
        return CheckReport(ok=False, steps_applied=len(steps), failed_step=None,
                           reason="replay finished but the final formula differs from the target",
                           final=state)
    return CheckReport(ok=True, steps_applied=len(steps), failed_step=None, reason=None, final=state)


def ref_generate(sol, padding):
    """The certificate and the state before each of its steps, then the end."""
    d = sol.decomposition
    sigma = d.kind == "Sigma"
    drops = frozenset(pad.index for pad in padding if pad.phi_padded)
    shape = _layers(d, tuple(PaddingRecord(index, phi_padded=True) for index in drops))
    target = substitute(shape, d.x, sol.formula)
    states, steps = [sol.formula], []
    for rule_id, direction, path, group in _derivation(d, drops):
        rule_id = _DUAL_RULE[rule_id] if sigma else rule_id
        bindings = {}
        src = RULES[rule_id].lhs if direction == "LR" else RULES[rule_id].rhs
        assert ref_match(src, ref_subterm_at(states[-1], path), bindings)
        step = RewriteStep(rule=rule_id, direction=direction, path=path, bindings=bindings,
                           group=group)
        states.append(ref_apply(states[-1], step))
        steps.append(step)
    assert states[-1] == target
    return Certificate(source=sol.formula, target=target, steps=tuple(steps)), states


def tamperings(step):
    """The step with, in turn: its first binding doubled (as acceptance
    criterion 8 does), a path one level too deep, a binding its rule does not
    have, and its last binding dropped."""
    name = sorted(step.bindings)[0]
    value = step.bindings[name]
    doubled = And(value, value) if isinstance(value, Formula) else Seq(value, value)
    yield replace(step, bindings={**step.bindings, name: doubled})
    yield replace(step, path=step.path + (9,))
    yield replace(step, bindings={**step.bindings, "zzz": parse_formula("p")})
    last = sorted(step.bindings)[-1]
    yield replace(step, bindings={key: bound for key, bound in step.bindings.items() if key != last})


def inputs():
    """Equations with their unknown: the worked example, two padded
    inputs, and the nested forms of 320 seeded decompositions of both kinds, with and
    without a leading modality.  Tampering with every step costs the square
    of a certificate's length, so each block of four cases draws at most one
    or two pairs, and every eighth block up to three."""
    for text in ("p & [a](q | (r & X))", "p | X", "(q & X) | p"):
        phi = parse_formula(text)
        yield phi, "X"
    for trial in range(320):
        kind, leading = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)][trial % 4]
        rng = random.Random(derive_seed(19, trial))
        bound = (1, 2, 1, 2, 1, 2, 1, 3)[trial // 4 % 8]
        d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=bound)
        yield to_nested_form(d), d.x


def test_certificates_and_reports_equal_the_reference_fold():
    shapes = set()
    for phi, x in inputs():
        sol = solve(phi, x)
        padding = classify(phi, x).padding
        shapes.add((sol.decomposition.kind, sol.decomposition.n))
        cert = generate_certificate(sol, padding=padding)
        ref, states = ref_generate(sol, padding)
        assert cert == ref, print_formula(phi)
        assert check_certificate(cert) == ref_check(ref, states)
        for i, step in enumerate(cert.steps):
            for bad in tamperings(step):
                broken = Certificate(cert.source, cert.target,
                                     cert.steps[:i] + (bad,) + cert.steps[i + 1:])
                report = check_certificate(broken)
                assert report == ref_check(ref, states, i, bad), (print_formula(phi), i, bad)
                assert not report.ok and report.failed_step == i
    assert shapes == {(kind, n) for kind in ("Pi", "Sigma") for n in (1, 2, 3)}


@cache
def pinned_references():
    """The reference certificate and states of the worked example and of the
    four pinned decompositions (three pairs, each kind, leading or not)."""
    equations = [(parse_formula("p & [a](q | (r & X))"), "X")]
    for kind, leading in [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]:
        d = random_decomposition(random.Random(5), kind=kind, leading=leading, max_pairs=3, depth=2)
        equations.append((to_nested_form(d), d.x))
    return [ref_generate(solve(phi, x), classify(phi, x).padding) for phi, x in equations]


TAMPERINGS = ["spaced", "parens", "other-term", "extra-name", "bad-path", "rule", "direction"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_the_one_pass_read_of_a_tampered_document_equals_the_reference(data):
    # One tampering at one step of a pinned document: a text respelled (the
    # same tokens, or parentheses), a text naming another term, an extra
    # name, a path one level too deep, or another rule or direction.  The
    # read gives the certificate the texts parse to, and the report of the
    # reference's replay of it, reason text included.
    ref, states = data.draw(st.sampled_from(pinned_references()))
    doc = certificate_to_json(ref)
    at = data.draw(st.integers(0, len(ref.steps) - 1))
    item = doc["steps"][at]
    name = data.draw(st.sampled_from(sorted(item["bindings"])))
    text = item["bindings"][name]
    kind = data.draw(st.sampled_from(TAMPERINGS))
    if kind == "spaced":
        item["bindings"][name] = f" {text} ".replace(" ", "  ")
    elif kind == "parens":
        item["bindings"][name] = f"({text})"
    elif kind == "other-term":
        item["bindings"][name] = f"({text}) {';' if name in _PROGRAM_METAVARS else '&'} ({text})"
    elif kind == "extra-name":
        item["bindings"]["zzz"] = "p"
    elif kind == "bad-path":
        item["path"].append(9)
    elif kind == "rule":
        item["rule"] = data.draw(st.sampled_from(sorted(set(RULES) - {item["rule"]})))
    else:
        item["direction"] = "RL" if item["direction"] == "LR" else "LR"
    tampered = RewriteStep(item["rule"], item["direction"], tuple(item["path"]), {
        key: (parse_program if key in _PROGRAM_METAVARS else parse_formula)(value)
        for key, value in item["bindings"].items()}, item["group"])
    cert, report = _read(doc)
    assert cert == replace(ref, steps=ref.steps[:at] + (tampered,) + ref.steps[at + 1:])
    assert report == ref_check(ref, states, at, tampered), (kind, at, name)
    assert certificate_from_json(doc) == cert


def test_a_missing_binding_is_reported_before_a_mismatch():
    # A step that lacks a binding fails for it, also when a binding it does
    # have mismatches, before or after the missing one in the pattern.
    phi = parse_formula("[(a ; b)*]p")

    def reason(**bindings):
        step = RewriteStep("E4", "LR", (), bindings=bindings)
        return check_certificate(Certificate(phi, phi, (step,))).reason

    assert reason(phi=parse_formula("p & p")) == "missing binding for metavariable 'alpha'"
    assert reason(alpha=parse_program("a ; c")) == "missing binding for metavariable 'phi'"
    assert reason(alpha=parse_program("a ; c"), phi=parse_formula("p")) == (
        "E4 LR does not apply at []: bound pattern differs from the subterm: "
        "expected [(a ; c)*]p, found [(a ; b)*]p")


# Another class of the same sort for each class a rule pattern holds.
OTHER_CLASS = {
    Box: lambda node: Diamond(*children(node)),
    Diamond: lambda node: Box(*children(node)),
    And: lambda node: Or(*children(node)),
    Or: lambda node: And(*children(node)),
    Seq: lambda node: Choice(*children(node)),
    Star: lambda node: Seq(node.body, node.body),
    Test: lambda node: Star(node),
    Top: lambda node: Bot(),
}


def built(pattern, bindings, at, edit):
    """``pattern`` instantiated by ``bindings``, with the term made for its
    node number ``at`` (in pre-order, as ``subterms`` lists them) replaced by
    ``edit`` of it."""
    indexes = count()

    def walk(node):
        index = next(indexes)
        if type(node) in SORTS:
            term = ref_instantiate(node, bindings)
        else:
            term = rebuild(node, [walk(kid) for kid in children(node)])
        return edit(term) if index == at else term

    return walk(pattern)


def near_misses(pattern, gen):
    """The edits of the term made for each node of ``pattern``: at a
    metavariable, a larger term of its sort (unequal to a repeated one's
    other occurrences), an equal copy, and a term of the other sort; a
    ``Test(Bot())`` for ``Test(Top())``; and another class at every other
    node, the root included."""
    for at, node in enumerate(subterms(pattern)):
        if type(node) not in SORTS:
            yield at, OTHER_CLASS[type(node)]
            continue
        yield at, lambda term: And(term, term) if isinstance(term, Formula) else Seq(term, term)
        yield at, lambda term: pickle.loads(pickle.dumps(term))
        yield at, lambda term: gen.formula(depth=1) if isinstance(term, Program) else AtomicProg("a")


def test_each_compiled_rule_matches_and_builds_as_the_reference_does():
    for rule_id, rule in RULES.items():
        for direction in ("LR", "RL"):
            src, dst = (rule.lhs, rule.rhs) if direction == "LR" else (rule.rhs, rule.lhs)
            match, make = _compiled(rule_id, direction)
            gen = TermGen(random.Random(f"{rule_id}:{direction}"))
            outcomes = set()
            for _ in range(12):
                bindings = {name: gen.program(depth=2) if name in _PROGRAM_METAVARS else gen.formula(depth=2)
                            for name in rule_metavariables(rule)}
                assert make(bindings) == ref_instantiate(dst, bindings)
                subjects = [ref_instantiate(src, bindings)]
                subjects += [built(src, bindings, at, edit) for at, edit in near_misses(src, gen)]
                for subject in subjects:
                    expected = {}
                    found = match(subject)
                    if not ref_match(src, subject, expected):
                        assert found is None, (rule_id, direction, subject)
                        outcomes.add(False)
                        continue
                    assert found == expected and list(found) == list(expected), (rule_id, direction)
                    assert make(found) == ref_instantiate(dst, expected)
                    outcomes.add(True)
            assert outcomes == {True, False}, (rule_id, direction)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(formulas, st.data())
def test_cursor_moves_equal_a_fresh_walk_from_the_root(term, data):
    # Every move lands where a walk from the current root lands; a move off
    # the term raises the walk's error text and leaves the cursor at the last
    # node on the path, consistent, so that the next move is still right.  A
    # rewrite of the focus is seen by every later move and by the root.
    cursor, root = _Cursor(term), term
    for _ in range(data.draw(st.integers(1, 12))):
        here = cursor.path
        kind = data.draw(st.sampled_from(["up", "down", "sideways", "anywhere", "bad", "rewrite"]))
        if kind == "rewrite":
            focus = cursor.focus
            wide = data.draw(st.booleans())
            if isinstance(focus, Formula):
                new = And(focus, focus) if wide else Top()
            else:
                new = Seq(focus, focus) if wide else AtomicProg("a")
            cursor.focus, root = new, ref_replace_at(root, here, new)
            continue
        if kind == "up":
            path = here[:data.draw(st.integers(0, len(here)))]
        elif kind == "down":
            path = here + (data.draw(st.integers(0, 1)),)
        elif kind == "sideways" and here:
            path = here[:-1] + (data.draw(st.integers(0, 1)),)
        else:
            path, node = (), root
            while children(node) and data.draw(st.booleans()):
                path += (data.draw(st.integers(0, len(children(node)) - 1)),)
                node = children(node)[path[-1]]
            if kind == "bad":
                path += (data.draw(st.integers(len(children(node)), 3)),)
                path += tuple(data.draw(st.lists(st.integers(0, 1), max_size=2)))
        try:
            expected = ref_subterm_at(root, path)
        except BadPathError as exc:
            with pytest.raises(BadPathError) as err:
                cursor.move(path)
            assert str(err.value) == str(exc)
            depth = int(str(exc).split(" at depth ")[1].split()[0])
            assert cursor.path == path[:depth] and len(cursor.above) == depth
            assert cursor.focus == ref_subterm_at(root, cursor.path)
            assert cursor.move(here) == ref_subterm_at(root, here) and cursor.path == here
            continue
        assert cursor.move(path) == expected and cursor.path == path
        assert len(cursor.above) == len(path)
    assert cursor.move(()) == root
