"""Directed, positioned rewriting with the ten box/diamond equivalences, and
machine-checkable certificates from a solution ``lambda`` to ``phi(lambda)``.

A certificate is a replayable list of steps; each step names a rule, a
direction, a path from the root (program and formula children share one
index scheme, ``syntax.CHILD_FIELDS``) and the full metavariable bindings.

Each rule is compiled once per direction, on first use, into a ``match``
and a ``make`` function (``_compile``).  A rule and direction are checked by
one lookup in the table of the 24 directed rules' sides (``_SIDES``).  One
step function (``_step``) moves a path cursor (``_Cursor``) to a step's
path, matches there and builds the other side, so a step costs its change
in depth, not a walk from the root.  The generator computes each step's
rule, direction and path from the decomposition alone (``_derivation``; a
Sigma certificate takes the diamond dual of each rule at the same path) and
takes the match's bindings.  Replay requires that the match binds exactly
the stored terms.  The document reader replays as it reads (``_read``): a
step whose texts spell what its match binds takes those terms, and any
other step is replayed under its parsed texts, so the reader's check is
replay's check.

Two auxiliary step kinds ``AA``/``AO`` rebracket associative chains
(``(a & b) & c  <->  a & (b & c)`` and the disjunctive dual).  They are not
members of the equivalence family and are excluded from rule-id grouping:
binary exact matching cannot reassociate a conjunction through E1-E10 alone,
while the usual n-ary reading of big conjunctions silently does.  See
DISCREPANCIES.md.
"""

from __future__ import annotations

from itertools import chain

from .syntax import (
    CHILD_FIELDS,
    And,
    Box,
    Diamond,
    Formula,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Top,
    _frozen,
    children,
    negate,
    rebuild,
    same_term,
    substitute,
    subterms,
)
from .textio import _TOKEN, _Printer, _parse, print_formula, print_terms

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing on a cold run
if TYPE_CHECKING:  # reading and replaying a certificate loads neither module
    from .hierarchy import Decomposition, PaddingRecord
    from .synthesis import Solution

__all__ = [
    "RewriteRule",
    "RewriteStep",
    "Certificate",
    "CheckReport",
    "CertifyError",
    "BadPathError",
    "MismatchError",
    "GenerationError",
    "RULES",
    "match_rule",
    "apply_rule",
    "check_certificate",
    "generate_certificate",
    "grouped_rule_ids",
    "validate_rules",
    "certificate_to_json",
    "certificate_from_json",
]


class CertifyError(ValueError):
    pass


class BadPathError(CertifyError):
    pass


class MismatchError(CertifyError):
    pass


class GenerationError(CertifyError):
    pass


# ---------------------------------------------------------------------------
# patterns
# A metavariable stands in a pattern where a term would, and like a term
# without variables it holds the empty variable set that its parent reads.

@_frozen
class FMeta:
    """Formula metavariable."""

    name: str
    _variables = frozenset()


@_frozen
class PMeta:
    """Program metavariable."""

    name: str
    _variables = frozenset()


@_frozen
class FNeg:
    """Matches the negation of whatever ``name`` is bound to (used for the
    ``(~phi)?`` tests of E7); negation is involutive, so matching binds
    ``name := negate(subject)``."""

    name: str
    _variables = frozenset()


@_frozen
class RewriteRule:
    rule_id: str
    lhs: object
    rhs: object


_PHI, _PSI, _CHI = FMeta("phi"), FMeta("psi"), FMeta("chi")
_ALPHA, _BETA = PMeta("alpha"), PMeta("beta")

RULES: dict[str, RewriteRule] = {
    rule.rule_id: rule
    for rule in (
        RewriteRule("E1", Box(_ALPHA, Box(_BETA, _PHI)), Box(Seq(_ALPHA, _BETA), _PHI)),
        RewriteRule("E2", And(_PHI, _PSI), Diamond(Test(_PHI), _PSI)),
        RewriteRule("E3", Box(_ALPHA, And(_PHI, _PSI)), And(Box(_ALPHA, _PHI), Box(_ALPHA, _PSI))),
        RewriteRule("E4", Box(Star(_ALPHA), _PHI), And(_PHI, Box(_ALPHA, Box(Star(_ALPHA), _PHI)))),
        RewriteRule("E5", Box(Test(Top()), _PHI), _PHI),
        RewriteRule("E6", Diamond(_ALPHA, Diamond(_BETA, _PHI)), Diamond(Seq(_ALPHA, _BETA), _PHI)),
        RewriteRule("E7", Or(_PHI, _PSI), Box(Test(FNeg("phi")), _PSI)),
        RewriteRule("E8", Diamond(_ALPHA, Or(_PHI, _PSI)), Or(Diamond(_ALPHA, _PHI), Diamond(_ALPHA, _PSI))),
        RewriteRule("E9", Diamond(Star(_ALPHA), _PHI), Or(_PHI, Diamond(_ALPHA, Diamond(Star(_ALPHA), _PHI)))),
        # As conventionally printed E10 carries a false? test, but a diamond
        # over the empty test relation is constantly false; the sound rule —
        # and the one that dualizes E5 — is the true? drop.  DISCREPANCIES.md.
        RewriteRule("E10", Diamond(Test(Top()), _PHI), _PHI),
        RewriteRule("AA", And(And(_PHI, _PSI), _CHI), And(_PHI, And(_PSI, _CHI))),
        RewriteRule("AO", Or(Or(_PHI, _PSI), _CHI), Or(_PHI, Or(_PSI, _CHI))),
    )
}

ASSOC_IDS = ("AA", "AO")

# Binding names that denote programs, read off the rule patterns; everything
# else is a formula.
_PROGRAM_METAVARS = frozenset(
    node.name
    for rule in RULES.values()
    for node in chain(subterms(rule.lhs), subterms(rule.rhs))
    if type(node) is PMeta
)


# The sort of term each kind of metavariable matches.
_META_SORTS = {FMeta: Formula, PMeta: Program, FNeg: Formula}


def _instantiate(pattern, bindings: dict):
    cls = type(pattern)
    if cls in _META_SORTS:
        try:
            value = bindings[pattern.name]
        except KeyError:
            raise MismatchError(f"missing binding for metavariable {pattern.name!r}") from None
        return negate(value) if cls is FNeg else value
    return rebuild(pattern, [_instantiate(kid, bindings) for kid in children(pattern)])


def rule_metavariables(rule: RewriteRule) -> dict[str, bool]:
    """The metavariables of ``rule`` in first-use order, each mapped to whether
    it appears under structural negation (E7's test).

    Negation fixes variables, so soundness of an instance needs a
    variable-free binding for a negated metavariable; see DISCREPANCIES.md.
    """
    found: dict[str, bool] = {}
    for node in chain(subterms(rule.lhs), subterms(rule.rhs)):
        if type(node) in _META_SORTS:
            found[node.name] = found.get(node.name, False) or type(node) is FNeg
    return found


# The metavariable names of each rule: a step may bind only these.
_METAVARIABLES = {rule_id: frozenset(rule_metavariables(rule)) for rule_id, rule in RULES.items()}

# The source and target patterns of each of the 24 directed rules, keyed by
# ``(rule id, direction)``: a valid pair is one lookup.
_SIDES = {
    (rule_id, direction): sides
    for rule_id, rule in RULES.items()
    for direction, sides in (("LR", (rule.lhs, rule.rhs)), ("RL", (rule.rhs, rule.lhs)))
}


def _compile(src, dst):
    """The ``match`` and ``make`` functions of the directed rule from ``src``
    to ``dst``, made from source once, as ``syntax._frozen`` makes
    ``__init__``.

    ``match(subject)`` tests ``src`` node by node in pre-order: the class at
    each pattern node, ``==`` at a leaf (E5's and E10's ``true``), the sort
    at each metavariable, and ``is`` or else ``==`` against the first
    occurrence of a repeated one.  It returns the bindings in first-use
    order, an ``FNeg`` binding the negation of its subterm, or None.
    ``make(bindings)`` builds ``dst`` over them.
    """
    scope = {"negate": negate, "Formula": Formula, "Program": Program}
    lines, first = [], {}

    def const(value) -> str:
        name = value.__name__ if type(value) is type else f"c{len(scope)}"
        scope[name] = value
        return name

    def test(pattern, var: str) -> None:
        cls = type(pattern)
        sort = _META_SORTS.get(cls)
        if sort is not None:
            lines.append(f"if not isinstance({var}, {sort.__name__}): return None")
            if cls is FNeg:
                lines.append(f"{var} = negate({var})")
            seen = first.setdefault(pattern.name, var)
            if seen != var:
                lines.append(f"if not ({seen} is {var} or {seen} == {var}): return None")
            return
        lines.append(f"if type({var}) is not {const(cls)}: return None")
        fields = CHILD_FIELDS[cls]
        if not fields:
            lines.append(f"if not {const(pattern)} == {var}: return None")
            return
        kids = [f"{var}_{index}" for index in range(len(fields))]
        lines.append(f"{', '.join(kids)} = {', '.join(f'{var}.{field}' for field in fields)}")
        for kid, part in zip(children(pattern), kids):
            test(kid, part)

    def build(pattern) -> str:
        cls = type(pattern)
        if cls in _META_SORTS:
            value = f"b[{pattern.name!r}]"
            return f"negate({value})" if cls is FNeg else value
        kids = children(pattern)
        if not kids:
            return const(pattern)  # as ``rebuild`` gives a leaf: itself
        return f"{const(cls)}({', '.join(build(kid) for kid in kids)})"

    test(src, "s")
    found = ", ".join(f"{name!r}: {var}" for name, var in first.items())
    body = "\n    ".join(lines)
    exec(f"def match(s):\n    {body}\n    return {{{found}}}\n"
         f"def make(b):\n    return {build(dst)}\n", scope)
    return scope["match"], scope["make"]


# The compiled ``(match, make)`` of each directed rule, made on first use: a
# derivation uses about 6 of the 24.
_COMPILED: dict = {}


def _compiled(rule_id: str, direction: str):
    pair = _COMPILED.get((rule_id, direction))
    if pair is None:
        pair = _COMPILED[rule_id, direction] = _compile(*_directed(rule_id, direction))
    return pair


# ---------------------------------------------------------------------------
# positions

class _Cursor:
    """A term held as a focus, the path from the root to it, and the nodes
    above it, root first (Huet's zipper).  ``move`` goes from the focus to
    another path through the two paths' common prefix, so a step costs its
    change in depth.  The cursor keeps the path tuple it was moved to.  One
    slice comparison tells a move at or below the focus, and one more a move
    above it; only paths that part are scanned for where they do.  Going up
    rebuilds a node only when the child below it is no longer the one it
    holds."""

    __slots__ = ("focus", "above", "path")

    def __init__(self, term):
        self.focus, self.above, self.path = term, [], ()

    def move(self, path: tuple[int, ...]):
        """Focus the subterm at ``path`` (from the root) and return it.  A
        path that leaves the term raises ``BadPathError`` with the focus at
        the last node on the path, and ``path`` and ``above`` leading to it."""
        here, focus, above = self.path, self.focus, self.above
        keep = len(here)
        if path[:keep] != here:  # not at or below the focus: go up first
            keep = len(path)
            if here[:keep] != path:  # nor above it
                keep, stop = 0, min(keep, len(here))
                while keep < stop and here[keep] == path[keep]:
                    keep += 1
            for depth in range(len(here) - 1, keep - 1, -1):
                node, idx = above[depth], here[depth]
                kids = children(node)
                focus = node if kids[idx] is focus else type(node)(*kids[:idx], focus, *kids[idx + 1:])
            del above[keep:]
        for depth in range(keep, len(path)):
            idx = path[depth]
            kids = children(focus)
            if not 0 <= idx < len(kids):
                self.focus, self.path = focus, path[:depth]
                raise BadPathError(f"no child {idx} at depth {depth} of {type(focus).__name__}")
            above.append(focus)
            focus = kids[idx]
        self.focus, self.path = focus, path
        return focus


def subterm_at(term, path: tuple[int, ...]):
    return _Cursor(term).move(path)


# ---------------------------------------------------------------------------
# steps and certificates

@_frozen
class RewriteStep:
    rule: str
    direction: str  # "LR" | "RL"
    path: tuple[int, ...]
    bindings: dict
    group: int = 0

    def __post_init__(self) -> None:
        """Refuse a rule and direction that are not a key of ``_SIDES``, with
        ``_directed``'s error.  The generator and the reader pass the fields
        by position, the cheaper call."""
        _directed(self.rule, self.direction)


@_frozen
class Certificate:
    source: Formula
    target: Formula
    steps: tuple[RewriteStep, ...]


def _directed(rule_id: str, direction: str):
    """The source and target patterns of ``rule_id`` read in ``direction``,
    looked up in ``_SIDES``.  A pair not there is a ``ValueError``, for an
    unknown rule before a bad direction; an unhashable rule id raises the
    ``TypeError`` of looking it up in ``RULES``."""
    try:
        return _SIDES[rule_id, direction]
    except (KeyError, TypeError):  # TypeError: an unhashable rule id or direction
        pass
    if rule_id not in RULES:
        raise ValueError(f"unknown rule id {rule_id!r}")
    raise ValueError(f"direction must be LR or RL: {direction!r}")


def match_rule(phi: Formula, rule_id: str, direction: str, path: tuple[int, ...]) -> dict | None:
    """Most general match of the directed pattern at ``path``, or None."""
    return _compiled(rule_id, direction)[0](subterm_at(phi, path))


def _shown(term, limit: int = 120) -> str:
    """The text of ``term`` clipped to ``limit`` characters, or a note that
    it is too deep to print: a message about a term must not fail on it."""
    try:
        text = print_terms([term])[0]
    except RecursionError:
        return "a term too deep to print"
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _step(cursor: _Cursor, rule, direction: str, path: tuple[int, ...], stored: dict | None = None):
    """Rewrite the cursor's term at ``path`` by ``rule`` read in
    ``direction``: move there, run the compiled match on the focus and build
    the other side.  Returns the bindings and the built term, which the caller
    puts in the focus; without ``stored``, the match's bindings, or two Nones
    where the rule does not match.

    With ``stored`` the step is replayed: the match must bind exactly the
    stored names, each to a term the stored one is or equals, and the result
    is built from the stored terms.  A name the rule does not have is
    reported first, then a path that leaves the term, then a missing binding
    (found while building the bound source pattern) or the mismatch."""
    if stored is not None and not stored.keys() <= _METAVARIABLES[rule]:
        raise MismatchError(f"{rule} has no metavariable {min(stored.keys() - _METAVARIABLES[rule])!r}")
    match, make = _compiled(rule, direction)
    subject = cursor.move(path)
    found = match(subject)
    if stored is None:
        return (None, None) if found is None else (found, make(found))
    if not _agrees(stored, found):
        src, _ = _directed(rule, direction)
        want, found = _shown(_instantiate(src, stored)), _shown(subject)
        raise MismatchError(
            f"{rule} {direction} does not apply at {list(path)}: "
            f"bound pattern differs from the subterm: expected {want}, found {found}"
        )
    return stored, make(stored)


def _agrees(stored: dict, found: dict | None) -> bool:
    """Whether a match found exactly the ``stored`` names, each bound to a
    term the stored one is or equals."""
    if found is None or found.keys() != stored.keys():
        return False
    for name, value in found.items():
        seen = stored[name]
        if not (seen is value or seen == value):
            return False
    return True


def apply_rule(phi: Formula, step: RewriteStep) -> Formula:
    """Replay one step under its stored bindings; exact or an error.  A
    binding for a name that is not a metavariable of the rule is an error."""
    cursor = _Cursor(phi)
    cursor.focus = _step(cursor, step.rule, step.direction, step.path, step.bindings)[1]
    return cursor.move(())


def rewrite_at(phi: Formula, rule_id: str, direction: str, path: tuple[int, ...], group: int = 0):
    """Match at ``path`` and apply, returning ``(result, step)``."""
    cursor = _Cursor(phi)
    bindings, cursor.focus = _step(cursor, rule_id, direction, path)
    if bindings is None:
        raise MismatchError(f"{rule_id} {direction} does not match at {list(path)} in {print_formula(phi)}")
    return cursor.move(()), RewriteStep(rule_id, direction, path, bindings, group)


@_frozen
class CheckReport:
    ok: bool
    steps_applied: int
    failed_step: int | None
    reason: str | None
    final: Formula | None


def check_certificate(cert: Certificate) -> CheckReport:
    """Pure replay: every step must apply exactly and the result must equal
    the target syntactically."""
    cursor = _Cursor(cert.source)
    for i, step in enumerate(cert.steps):
        try:
            cursor.focus = _step(cursor, step.rule, step.direction, step.path, step.bindings)[1]
        except CertifyError as exc:
            return CheckReport(ok=False, steps_applied=i, failed_step=i, reason=str(exc), final=None)
    return _finished(cursor.move(()), cert)


def _finished(state: Formula, cert: Certificate) -> CheckReport:
    """The report on a replay of every step of ``cert`` that ended at ``state``."""
    ok = same_term(state, cert.target)
    return CheckReport(ok=ok, steps_applied=len(cert.steps), failed_step=None, final=state,
                       reason=None if ok else "replay finished but the final formula differs from the target")


def grouped_rule_ids(cert: Certificate) -> list[list[str]]:
    """Rule ids per derivation line, first-use order, rebracketing steps
    excluded."""
    groups: dict[int, list[str]] = {}
    for step in cert.steps:
        bucket = groups.setdefault(step.group, [])
        if step.rule in ASSOC_IDS:
            continue
        if step.rule not in bucket:
            bucket.append(step.rule)
    return [groups[g] for g in sorted(groups) if groups[g]]


# ---------------------------------------------------------------------------
# certificate generation

_DUAL_RULE = {"E1": "E6", "E3": "E8", "E4": "E9", "E5": "E10", "E7": "E2", "AA": "AO"}


def _derivation(d: Decomposition, drops: frozenset[int]):
    """The box-side derivation from the Pi solution to the instantiated
    equation, as ``(rule, direction, path, group)``, one group per derivation
    line: unfold the star (E4) and rebracket (AA), then per level split the
    head off every conjunct's chain (E1), factor it out (E3) and turn the
    level's test box back into its disjunct (E7), or drop it (E5) if padded.

    Only the pair count, which pairs have an alpha, and ``drops`` decide the
    steps.  Every path but a split inside a conjunct is on the right spine
    ``(1, 1, ...)``, so it is a depth; an E5 drop lifts what lies below it.
    """
    n = d.n
    parts = [1 if pair.alpha is None else 2 for pair in d.pairs]  # alpha, (~phi)?
    base = 0  # depth of the conjunct chain of the current level
    test = 0  # depth of the test box of the previous level

    def close(level: int, group: int):
        rule = ("E5", "LR") if level in drops else ("E7", "RL")
        return (*rule, (1,) * test, group)

    yield "E4", "LR", (), 1
    for depth in range(n - 1):
        yield "AA", "LR", (1,) * depth, 2
    group = 2
    for m in range(1, n + 1):
        head = parts[m - 1]
        count = n - m + 2  # conjuncts at this level: psi_m .. psi_n, then lambda
        for index in range(count):
            chain = sum(parts[m - 1 : min(m + index, n)])
            path = (1,) * (base + index) + ((0,) if index < count - 1 else ())
            for peel in range(min(head, chain - 1)):
                yield "E1", "RL", path + (1,) * peel, group
        if m > 1:
            yield close(m - 1, group)
            if m - 1 in drops:
                base -= 1
            group += 1
        for index in range(count - 2, -1, -1):
            for depth in range(base + index, base + index + head):
                yield "E3", "RL", (1,) * depth, group
        test = base + head - 1
        base += head + 1
        group += 1
    yield close(n, group)


def generate_certificate(sol: Solution, padding: tuple[PaddingRecord, ...] = ()) -> Certificate:
    """Certificate from ``sol.formula`` to the instantiated equation.

    Pairs whose disjunct was introduced by classification padding are
    eliminated with E5 (E10 on the diamond side), so for ordinary classified
    input the target is exactly ``phi(lambda)``, written by ``hierarchy._layers``
    from records for the phi-padded pairs only.  A padded-in ``true`` conjunct
    has no removal rule, so such layers stay in the target (see DISCREPANCIES.md).

    The steps come from ``_derivation`` (diamond duals for a Sigma solution,
    which must use the duality strategy), each matched once at its path; a
    step that does not match, or an end other than the target, raises
    ``GenerationError``.
    """
    from .hierarchy import PaddingRecord, _layers

    if sol.schema == "xfree":
        return Certificate(source=sol.formula, target=sol.formula, steps=())
    d = sol.decomposition
    if d is None:
        raise GenerationError("solution carries no decomposition")
    sigma = d.kind == "Sigma"
    if sigma and sol.strategy != "duality":
        raise GenerationError("only duality-strategy Sigma solutions are certifiable")
    drops = frozenset(pad.index for pad in padding if pad.phi_padded)
    shape = _layers(d, tuple(PaddingRecord(index, phi_padded=True) for index in drops))
    target = substitute(shape, d.x, sol.formula)
    cursor, steps = _Cursor(sol.formula), []
    try:
        for rule_id, direction, path, group in _derivation(d, drops):
            rule_id = _DUAL_RULE[rule_id] if sigma else rule_id
            bindings, made = _step(cursor, rule_id, direction, path)
            if bindings is None:
                raise MismatchError(f"{rule_id} {direction} does not match at {list(path)} "
                                    f"in {print_formula(cursor.move(()))}")
            cursor.focus = made
            steps.append(RewriteStep(rule_id, direction, path, bindings, group))
    except CertifyError as exc:
        raise GenerationError(f"scripted derivation failed: {exc}") from exc
    state = cursor.move(())
    if not same_term(state, target):
        raise GenerationError(
            "scripted derivation ended at "
            f"{print_formula(state)} instead of {print_formula(target)}"
        )
    return Certificate(source=sol.formula, target=target, steps=tuple(steps))


# ---------------------------------------------------------------------------
# rule validation

@_frozen
class RuleValidationEntry:
    rule: str
    trials: int
    counterexamples: int
    first_failure: dict | None


def validate_rules(
    trials: int = 50,
    models_per_trial: int = 10,
    seed: int = 0,
    rules: dict[str, RewriteRule] | None = None,
    model_params=None,
) -> dict[str, RuleValidationEntry]:
    """Check every rule semantically: random metavariable instantiations,
    random models, agreement demanded at every world."""
    import random as _random

    from .generators import TermGen
    from .semantics import ModelGenParams, equivalent_on, model_to_json, random_model

    rules = RULES if rules is None else rules
    params = model_params or ModelGenParams()
    report = {}
    for rule_id, rule in rules.items():
        rng = _random.Random(f"{seed}:{rule_id}")
        gen = TermGen(rng)
        nvgen = TermGen(rng, variables=())
        metavariables = rule_metavariables(rule)
        failures = 0
        first = None
        for trial in range(trials):
            bindings = {}
            for name, negated in metavariables.items():
                if name in _PROGRAM_METAVARS:
                    bindings[name] = gen.program(depth=2)
                elif negated:
                    bindings[name] = nvgen.formula(depth=2)
                else:
                    bindings[name] = gen.formula(depth=2)
            lhs = _instantiate(rule.lhs, bindings)
            rhs = _instantiate(rule.rhs, bindings)
            for k in range(models_per_trial):
                model = random_model(ModelGenParams(
                    rng.randint(1, params.world_count), params.atom_names, params.var_names,
                    params.prog_names, params.edge_probability, seed=rng.getrandbits(48),
                ))
                world = equivalent_on(model, lhs, rhs)
                if world is not None:
                    failures += 1
                    if first is None:
                        first = {
                            "rule": rule_id,
                            "lhs": print_formula(lhs),
                            "rhs": print_formula(rhs),
                            "world": world,
                            "model": model_to_json(model),
                        }
        report[rule_id] = RuleValidationEntry(
            rule=rule_id, trials=trials * models_per_trial, counterexamples=failures, first_failure=first
        )
    return report


# ---------------------------------------------------------------------------
# serialization

def certificate_to_json(cert: Certificate) -> dict:
    """The certificate as a JSON-ready document, every binding in canonical
    text.  One printer serves the whole certificate, so a subterm that several
    steps share is printed once."""
    bindings = [sorted(step.bindings.items()) for step in cert.steps]
    texts = iter(print_terms([cert.source, cert.target]
                             + [value for items in bindings for _, value in items]))
    source, target = next(texts), next(texts)
    return {
        "from": source,
        "to": target,
        "steps": [
            {
                "rule": step.rule,
                "direction": step.direction,
                "path": list(step.path),
                "bindings": {name: next(texts) for name, _ in items},
                "group": step.group,
            }
            for step, items in zip(cert.steps, bindings)
        ],
    }


def certificate_from_json(doc: dict) -> Certificate:
    """Read a certificate document.  Its ``steps`` must be a JSON array, a
    step's ``path`` a list of JSON integers and its ``group`` a JSON integer
    (a bool is neither).  The terms read are equal to a parse of the texts."""
    return _read(doc)[0]


def _read(doc: dict) -> tuple[Certificate, CheckReport]:
    """The certificate a document holds and the report of its replay, in one
    pass: the reader's check is replay's check.

    The reader holds ``from`` in a cursor and rewrites it at each step's path
    by the step's rule (``_step``).  Every binding is a subterm of the
    formula there, or E7's negation of one, so a binding text that is the
    canonical text of the term the match binds, or has its tokens, takes
    that term, and a step whose texts all do is checked by that match alone.
    Any other step has only its own texts parsed, and is replayed under
    them.  The first step that fails
    is reported, and the read goes on: the cursor follows the step's match
    where it has one, so later texts can still be taken.  The formula the
    cursor ends at is the target if ``to`` spells it; otherwise, or if it is
    too deep to print, ``to`` is parsed.  Errors come in document order: the
    steps' fields and bindings, then ``from``, then ``to``."""
    try:
        items = doc["steps"]
        if type(items) is not list:  # an empty object or string would read as no steps
            raise ValueError(f"steps must be a list, not {type(items).__name__}")
        cursor = unread = report = None
        try:
            source = _parse(doc["from"], False)
            cursor = _Cursor(source)
        except (KeyError, TypeError, ValueError) as exc:
            unread = exc  # raised once the steps are read
        # Its memo is keyed by id, so every term it prints must live until
        # the read ends: in ``steps``, in ``held`` or as the target.
        printer, steps, held = _Printer(), [], []
        for i, item in enumerate(items):
            rule, direction, path = item["rule"], item["direction"], _path(item["path"])
            texts = item.get("bindings", {}).items()
            found = made = bindings = None
            if cursor is not None:
                try:
                    found, made = _step(cursor, rule, direction, path)
                    if found is not None and len(found) == len(texts):
                        bindings = {}
                        for name, text in texts:
                            value = found.get(name)
                            if value is None or not _spells(text, printer.program(value)
                                                            if name in _PROGRAM_METAVARS
                                                            else printer.formula(value)):
                                bindings = None
                                break
                            bindings[name] = value
                except (TypeError, ValueError, RecursionError):
                    # No such rule (``RewriteStep`` refuses it below), a path
                    # that leaves the term, or a term too deep to print.
                    bindings = None
            replay = bindings is None and cursor is not None and report is None
            if bindings is None:
                held.append(found)
                bindings = {name: _parse(text, name in _PROGRAM_METAVARS) for name, text in texts}
            steps.append(RewriteStep(rule, direction, path, bindings, _group(item.get("group", 0))))
            if replay:
                try:
                    made = _step(cursor, rule, direction, path, bindings)[1]
                except CertifyError as exc:
                    report = CheckReport(ok=False, steps_applied=i, failed_step=i, reason=str(exc), final=None)
            if made is not None:
                cursor.focus = made
        if unread is not None:
            raise unread
        text, target, end = doc["to"], None, cursor.move(())
        try:
            if _spells(text, printer.formula(end)):
                target = end
        except RecursionError:
            pass
        if target is None:
            target = _parse(text, False)
        cert = Certificate(source=source, target=target, steps=tuple(steps))
        return cert, _finished(end, cert) if report is None else report
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate document: {exc}") from exc


def _spells(text, printed: str) -> bool:
    """Whether ``text`` is the canonical text ``printed`` or has its tokens."""
    return text == printed or (type(text) is str and _TOKEN.findall(text) == _TOKEN.findall(printed))


_INT = frozenset((int,))


def _path(value) -> tuple[int, ...]:
    """The path, as a tuple.  The types of its elements are collected and
    compared in C: a bool, float or list is not an ``int``."""
    if type(value) is not list or not {*map(type, value)} <= _INT:
        raise ValueError(f"path must be a list of integers, not {value!r}")
    return tuple(value)


def _group(value) -> int:
    if type(value) is not int:
        raise ValueError(f"group must be an integer, not {value!r}")
    return value
