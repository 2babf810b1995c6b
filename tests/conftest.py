"""Shared hypothesis strategies and small helpers for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st

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
)

atom_names = st.sampled_from(["p", "q", "r", "s"])
prog_names = st.sampled_from(["a", "b", "c"])
var_names = st.sampled_from(["X", "Y"])

# Terms are drawn by size: a budget of nodes first, then one constructor per
# node, with the budget split between the children.  A budget of 1 or 2 ends a
# formula in a leaf.  Every choice shrinks towards a smaller budget and the
# first constructor, and no draw can run past the budget, so none is thrown
# away for being too large.
_LEAVES = (Atom, NegAtom, Top, Bot, Var)
_FORMULA_NODES = (Or, And, Box, Diamond)


def _formula(draw, budget: int, variables: bool):
    if budget < 3:
        leaf = _LEAVES[draw(st.integers(0, len(_LEAVES) - 1 if variables else 3))]
        if leaf is Top or leaf is Bot:
            return leaf()
        return leaf(draw(var_names if leaf is Var else atom_names))
    node = _FORMULA_NODES[draw(st.integers(0, 3))]
    split = draw(st.integers(1, budget - 2))
    first = (_program if node in (Box, Diamond) else _formula)(draw, split, variables)
    return node(first, _formula(draw, budget - 1 - split, variables))


def _program(draw, budget: int, variables: bool):
    if budget < 2:
        return AtomicProg(draw(prog_names))
    kind = draw(st.integers(0, 1 if budget < 3 else 3))
    if kind == 0:
        return Star(_program(draw, budget - 1, variables))
    if kind == 1:
        return Test(_formula(draw, budget - 1, variables))
    split = draw(st.integers(1, budget - 2))
    node = Seq if kind == 2 else Choice
    return node(_program(draw, split, variables), _program(draw, budget - 1 - split, variables))


@st.composite
def _sized(draw, build, largest: int, variables: bool):
    return build(draw, draw(st.integers(1, largest)), variables)


formulas = _sized(_formula, 40, True)
programs = _sized(_program, 40, True)
variable_free_formulas = _sized(_formula, 50, False)
variable_free_programs = _sized(_program, 40, False)


def forged_deep_certificate(n: int = 500) -> dict:
    """A certificate document: ``n`` unfoldings of ``[a*]p``, then an E5 step
    read right to left that binds ``phi`` to ``p`` at the root, where the whole
    formula is, too deep to print."""
    steps = [{"rule": "E4", "direction": "LR", "path": [1, 1] * i,
              "bindings": {"alpha": "a", "phi": "p"}} for i in range(n)]
    steps.append({"rule": "E5", "direction": "RL", "path": [], "bindings": {"phi": "p"}})
    return {"from": "[a*]p", "to": "p", "steps": steps}
