"""Explicit solutions for classified fixed-point equations.

For a box-hierarchy (Pi) decomposition with pairs ``(phi_i, psi_i, alpha_i)``
the solution is::

    [ (tested chain 1..n)* ]  AND_j [ tested chain 1..j ] psi_j

where the tested chain interleaves ``alpha_k ; (~phi_k)?`` and drops
``alpha_1`` at even levels.  Each pair's test and each chain is built once
and shared wherever the solution repeats it; the text is the same.  Sigma
equations are solved by duality: negate, solve the Pi equation, negate the
result.  The literal diamond schemas are kept behind ``strategy="literal"``
for comparison runs only — they are refuted by the one-world probe
documented in DISCREPANCIES.md.
"""

from __future__ import annotations

from .hierarchy import (
    ClassifyResult,
    Decomposition,
    Pair,
    XFree,
    _classify_or_reason,
    decomposition_to_json,
)
from .syntax import (
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
    is_x_free,
    negate,
)
from .textio import print_formula

__all__ = ["Solution", "NotInClass", "odot", "tested_chain", "solve_pi", "solve_sigma", "solve"]


class NotInClass(ValueError):
    """The formula is outside both hierarchies (and not x-free)."""


@_frozen
class Solution:
    formula: Formula
    schema: str  # "lambda1" | "lambda2" | "lambda3" | "lambda4" | "xfree"
    strategy: str  # "duality" | "literal" | "none"
    decomposition: Decomposition | None

    def to_json(self) -> dict:
        doc = {
            "schema": self.schema,
            "strategy": self.strategy,
            "lambda": print_formula(self.formula),
        }
        if self.decomposition is not None:
            doc["decomposition"] = decomposition_to_json(
                ClassifyResult(self.decomposition, padding=())
            )
        return doc


def _fold_right(make, terms: list):
    """``make(t1, make(t2, ... tn))`` over a non-empty list."""
    acc = terms[-1]
    for term in reversed(terms[:-1]):
        acc = make(term, acc)
    return acc


def odot(chain: list[Program]) -> Program:
    """Right-associated sequential composition; the empty chain is ``true?``."""
    return _fold_right(Seq, chain) if chain else Test(Top())


def _tested_parts(pair: Pair) -> tuple[Program, ...]:
    """``alpha ; (~phi)?`` of one pair as its parts, an absent alpha omitted."""
    test = Test(negate(pair.phi))
    return (test,) if pair.alpha is None else (pair.alpha, test)


def tested_chain(d: Decomposition, start: int, stop: int) -> Program:
    """``alpha_start ; (~phi_start)? ; ... ; alpha_stop ; (~phi_stop)?`` with
    absent alphas omitted (1-based, inclusive bounds).  Each call makes its
    tests afresh; ``_chains`` makes every chain from 1 over one set of them."""
    if not 1 <= start <= stop <= d.n:
        raise IndexError(f"chain bounds out of range: {start}..{stop} for n={d.n}")
    return odot([part for pair in d.pairs[start - 1 : stop] for part in _tested_parts(pair)])


tested_chain.__test__ = False  # keep pytest from collecting it by name


def _chains(d: Decomposition) -> list[Program]:
    """``tested_chain(d, 1, j)`` for ``j = 1..n``, each pair's parts made
    once, so each pair's ``(~phi)?`` is one object in every chain."""
    parts: list[Program] = []
    chains = []
    for pair in d.pairs:
        parts += _tested_parts(pair)
        chains.append(odot(parts))
    return chains


def _box_lambda(d: Decomposition) -> Formula:
    """The box-side solution over the stored Pi components of ``d``.

    Each chain is built once and each pair's test once (``_chains``), and
    the star's body is the last conjunct's chain, the same object.  Sharing
    changes no text; the printer and ``==`` meet a shared part once, and
    ``negate`` keeps programs, so the duality Sigma solution shares them too.
    """
    chains = _chains(d)
    conjuncts = [Box(chain, pair.psi) for chain, pair in zip(chains, d.pairs)]
    return Box(Star(chains[-1]), _fold_right(And, conjuncts))


def solve_pi(d: Decomposition) -> Solution:
    if d.kind != "Pi":
        raise ValueError(f"solve_pi needs a Pi decomposition, got {d.kind}")
    schema = "lambda2" if d.leading_modality else "lambda1"
    return Solution(formula=_box_lambda(d), schema=schema, strategy="literal", decomposition=d)


def _literal_sigma(d: Decomposition) -> Formula:
    # The diamond schemas exactly as conventionally written, over the Sigma
    # form's own components (the negations of the stored Pi components):
    # tests carry ~phi of the written form, disjuncts are the written psi_j.
    written = Decomposition(
        "Pi", d.x, tuple(Pair(negate(p.phi), negate(p.psi), p.alpha) for p in d.pairs),
        d.leading_modality,
    )
    chains = _chains(written)
    disjuncts = [Diamond(chain, pair.psi) for chain, pair in zip(chains, written.pairs)]
    return Diamond(Star(chains[-1]), _fold_right(Or, disjuncts))


def solve_sigma(d: Decomposition, strategy: str = "duality") -> Solution:
    if d.kind != "Sigma":
        raise ValueError(f"solve_sigma needs a Sigma decomposition, got {d.kind}")
    schema = "lambda4" if d.leading_modality else "lambda3"
    if strategy == "duality":
        return Solution(formula=negate(_box_lambda(d)), schema=schema, strategy="duality", decomposition=d)
    if strategy == "literal":
        return Solution(formula=_literal_sigma(d), schema=schema, strategy="literal", decomposition=d)
    raise ValueError(f"unknown strategy: {strategy!r}")


def _solve(phi_x: Formula, x: str, strategy: str) -> tuple[Solution, ClassifyResult | XFree]:
    """``solve`` and the classification it made, whose padding a certificate needs."""
    outcome, reason = _classify_or_reason(phi_x, x)
    if isinstance(outcome, XFree):
        return Solution(formula=phi_x, schema="xfree", strategy="none", decomposition=None), outcome
    if outcome is None:
        raise NotInClass(f"{print_formula(phi_x)} is not in either hierarchy for {x} — {reason}")
    d = outcome.decomposition
    solution = solve_pi(d) if d.kind == "Pi" else solve_sigma(d, strategy)
    if not is_x_free(solution.formula, x):
        raise AssertionError("synthesized solution contains the unknown")
    return solution, outcome


def solve(phi_x: Formula, x: str, strategy: str = "duality") -> Solution:
    """Classify and synthesize; raises NotInClass outside the solvable class.
    The solution keeps the decomposition, not the input's padding records."""
    return _solve(phi_x, x, strategy)[0]
