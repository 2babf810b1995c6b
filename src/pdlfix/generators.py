"""Seeded random generation of formulas, programs, and decompositions.

Everything here is driven by an explicit ``random.Random`` so that every
fuzzing run is reproducible from its seed.  Components meant for hierarchy
decompositions never mention the equation unknown.
"""

from __future__ import annotations

import random

from .syntax import (
    And,
    Atom,
    AtomicProg,
    Bot,
    Box,
    Choice,
    Diamond,
    Formula,
    NegAtom,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Top,
    Var,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing on a cold run
if TYPE_CHECKING:  # only random_decomposition builds one, and imports it there
    from .hierarchy import Decomposition

__all__ = ["TermGen", "random_decomposition", "derive_seed"]

ATOMS = ("p", "q", "r")
PROGS = ("a", "b")


def derive_seed(seed: int, index: int) -> int:
    """Independent per-trial sub-seed; stable across runs and platforms."""
    return (seed * 1_000_003 + index * 7_919 + 12_345) & 0xFFFF_FFFF


class TermGen:
    """Random ASTs over the names ``ATOMS``, ``variables`` and ``PROGS``."""

    def __init__(self, rng: random.Random, variables: tuple[str, ...] = ("X",)):
        self.rng = rng
        self.variables = variables

    def leaf(self) -> Formula:
        choices = ["atom", "negatom", "top", "bot"]
        if self.variables:
            choices.append("var")
        kind = self.rng.choice(choices)
        if kind == "atom":
            return Atom(self.rng.choice(ATOMS))
        if kind == "negatom":
            return NegAtom(self.rng.choice(ATOMS))
        if kind == "var":
            return Var(self.rng.choice(self.variables))
        if kind == "top":
            return Top()
        return Bot()

    def formula(self, depth: int = 2) -> Formula:
        if depth <= 0 or self.rng.random() < 0.3:
            return self.leaf()
        kind = self.rng.choice(["or", "and", "box", "diamond"])
        if kind == "or":
            return Or(self.formula(depth - 1), self.formula(depth - 1))
        if kind == "and":
            return And(self.formula(depth - 1), self.formula(depth - 1))
        prog = self.program(depth - 1)
        body = self.formula(depth - 1)
        return Box(prog, body) if kind == "box" else Diamond(prog, body)

    def program(self, depth: int = 2) -> Program:
        if depth <= 0 or self.rng.random() < 0.4:
            if self.rng.random() < 0.7:
                return AtomicProg(self.rng.choice(PROGS))
            return Test(self.formula(0))
        kind = self.rng.choice(["seq", "choice", "star", "test"])
        if kind == "seq":
            return Seq(self.program(depth - 1), self.program(depth - 1))
        if kind == "choice":
            return Choice(self.program(depth - 1), self.program(depth - 1))
        if kind == "star":
            return Star(self.program(depth - 1))
        return Test(self.formula(depth - 1))


def random_decomposition(
    rng: random.Random,
    kind: str | None = None,
    leading: bool | None = None,
    max_pairs: int = 3,
    depth: int = 2,
    extra_vars: tuple[str, ...] = (),
) -> Decomposition:
    """A well-formed decomposition for the unknown ``X`` with variable-free
    components.

    Foreign variables are off by default: a variable survives negation, so a
    ``(~phi)?`` test over a variable-containing component is not the
    complement of the component and the synthesized solution is not sound
    (see DISCREPANCIES.md).  Pass ``extra_vars`` to explore that territory
    deliberately.
    """
    from .hierarchy import Decomposition, Pair

    gen = TermGen(rng, variables=tuple(v for v in extra_vars if v != "X"))
    if kind is None:
        kind = rng.choice(["Pi", "Sigma"])
    if leading is None:
        leading = rng.random() < 0.5
    n = rng.randint(1, max_pairs)
    pairs = []
    for i in range(1, n + 1):
        alpha = gen.program(depth) if (i > 1 or leading) else None
        pairs.append(Pair(phi=gen.formula(depth), psi=gen.formula(depth), alpha=alpha))
    return Decomposition(kind=kind, x="X", pairs=tuple(pairs), leading_modality=leading)
