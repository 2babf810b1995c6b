"""Finite Kripke models and the satisfaction relation.

This is the brute-force oracle for everything else: formulas are labelled
bottom-up with their extensions, world sets held as ``int`` bitmasks.  A
program is never built as a relation; it acts on a world set by pre-image
(``<alpha>phi`` is the pre-image of ``phi``, ``[alpha]phi`` the complement
of the pre-image of ``~phi``), and Kleene star is the least fixpoint of
``T -> S | pre(alpha, T)``.  Variables are interpreted through the
valuation exactly like atoms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_

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
    is_x_free,
    substitute,
)
from .textio import print_formula

__all__ = [
    "KripkeModel",
    "ModelGenParams",
    "EquationReport",
    "relation",
    "satisfies",
    "equivalent_on",
    "check_solution_on",
    "random_model",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class KripkeModel:
    """Worlds, one relation per atomic program, and a valuation over names.

    Names absent from ``relations`` or ``valuation`` denote the empty
    relation/extension.  World order is significant: counterexamples report
    the first world in this order.
    """

    worlds: tuple[str, ...]
    relations: dict[str, frozenset[tuple[str, str]]]
    valuation: dict[str, frozenset[str]]
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ValueError("a model needs at least one world")
        ws = set(self.worlds)
        if len(ws) != len(self.worlds):
            raise ValueError("duplicate world identifiers")
        for name, pairs in self.relations.items():
            for u, v in pairs:
                if u not in ws or v not in ws:
                    raise ValueError(f"relation {name!r} mentions unknown world ({u!r}, {v!r})")
        for name, ext in self.valuation.items():
            for w in ext:
                if w not in ws:
                    raise ValueError(f"valuation of {name!r} mentions unknown world {w!r}")

    def index(self, world: str) -> int:
        try:
            return self.worlds.index(world)
        except ValueError:
            raise ValueError(f"unknown world identifier {world!r}") from None


class _Evaluator:
    """Bottom-up labelling of one model, with world sets as ``int`` bitmasks.

    Bit ``i`` stands for ``model.worlds[i]``.  Each formula node is labelled
    once, memoized by identity, so a subterm shared by reference (as
    ``substitute`` shares the candidate at every occurrence of the unknown)
    is evaluated once.  Programs are never turned into relations: they act on
    a world set by pre-image.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self.full = (1 << len(model.worlds)) - 1
        self.bit = bit = {w: 1 << i for i, w in enumerate(model.worlds)}
        self.names = {name: reduce(or_, map(bit.__getitem__, ext), 0)
                      for name, ext in model.valuation.items()}
        # id(node) -> (node, mask); holding the node keeps its id from reuse.
        self._ext: dict[int, tuple[Formula, int]] = {}
        self._rows: dict[str, list[tuple[int, int]]] = {}

    def _successors(self, name: str) -> list[tuple[int, int]]:
        """(world bit, successor mask) for every world with an edge of ``name``."""
        rows = self._rows.get(name)
        if rows is None:
            bit = self.bit
            succ = dict.fromkeys(self.model.worlds, 0)
            for u, v in self.model.relations.get(name, ()):
                succ[u] |= bit[v]
            rows = self._rows[name] = [(bit[u], row) for u, row in succ.items() if row]
        return rows

    def extension(self, phi: Formula) -> int:
        entry = self._ext.get(id(phi))
        if entry is not None:
            return entry[1]
        kind = type(phi)
        if kind is And:
            out = self.extension(phi.left) & self.extension(phi.right)
        elif kind is Or:
            out = self.extension(phi.left) | self.extension(phi.right)
        elif kind is Diamond:
            out = self.pre(phi.prog, self.extension(phi.body))
        elif kind is Box:
            out = self.full ^ self.pre(phi.prog, self.full ^ self.extension(phi.body))
        elif kind is Atom or kind is Var:
            out = self.names.get(phi.name, 0)
        elif kind is NegAtom:
            out = self.full ^ self.names.get(phi.name, 0)
        elif kind is Top:
            out = self.full
        elif kind is Bot:
            out = 0
        else:
            raise TypeError(f"not a formula: {phi!r}")
        self._ext[id(phi)] = (phi, out)
        return out

    def pre(self, alpha: Program, s: int) -> int:
        """The worlds with an ``alpha``-successor in ``s``."""
        if not s:
            return 0
        kind = type(alpha)
        if kind is AtomicProg:
            out = 0
            for b, row in self._successors(alpha.name):
                if row & s:
                    out |= b
            return out
        if kind is Seq:
            return self.pre(alpha.first, self.pre(alpha.second, s))
        if kind is Choice:
            return self.pre(alpha.left, s) | self.pre(alpha.right, s)
        if kind is Test:
            return self.extension(alpha.cond) & s
        if kind is Star:
            # Least fixpoint of T -> s | pre(body, T); pre-image distributes
            # over union, so each round only needs the newly reached worlds.
            reached = frontier = s
            while frontier:
                frontier = self.pre(alpha.body, frontier) & ~reached
                reached |= frontier
            return reached
        raise TypeError(f"not a program: {alpha!r}")


def relation(model: KripkeModel, alpha: Program) -> frozenset[tuple[str, str]]:
    """The compositional relation of ``alpha`` on ``model`` as world pairs."""
    ev = _Evaluator(model)
    pairs = set()
    for j, v in enumerate(model.worlds):
        sources = ev.pre(alpha, 1 << j)
        pairs.update((u, v) for i, u in enumerate(model.worlds) if sources >> i & 1)
    return frozenset(pairs)


def satisfies(model: KripkeModel, world: str, phi: Formula) -> bool:
    return bool(_Evaluator(model).extension(phi) >> model.index(world) & 1)


def equivalent_on(model: KripkeModel, phi: Formula, psi: Formula) -> str | None:
    """First world (in model order) where the two formulas disagree, else None."""
    ev = _Evaluator(model)
    diff = ev.extension(phi) ^ ev.extension(psi)
    if diff:
        return model.worlds[(diff & -diff).bit_length() - 1]
    return None


@dataclass(frozen=True)
class EquationReport:
    """Outcome of checking ``candidate`` against ``x ≡ equation`` on one model."""

    passed: bool
    x: str
    equation: Formula
    candidate: Formula
    instantiated: Formula
    counterexample_world: str | None
    model: KripkeModel

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "x": self.x,
            "equation": print_formula(self.equation),
            "candidate": print_formula(self.candidate),
            "instantiated": print_formula(self.instantiated),
            "counterexampleWorld": self.counterexample_world,
            "model": model_to_json(self.model),
        }


def check_solution_on(model: KripkeModel, x: str, phi_x: Formula, psi: Formula) -> EquationReport:
    """Check ``psi ≡ phi_x[x := psi]`` on one model.  ``psi`` must be x-free."""
    if not is_x_free(psi, x):
        raise ValueError(f"candidate contains the unknown {x}: {print_formula(psi)}")
    instantiated = substitute(phi_x, x, psi)
    world = equivalent_on(model, psi, instantiated)
    return EquationReport(
        passed=world is None,
        x=x,
        equation=phi_x,
        candidate=psi,
        instantiated=instantiated,
        counterexample_world=world,
        model=model,
    )


@dataclass(frozen=True)
class ModelGenParams:
    world_count: int = 4
    atom_names: tuple[str, ...] = ("p", "q", "r")
    var_names: tuple[str, ...] = ("X",)
    prog_names: tuple[str, ...] = ("a", "b")
    edge_probability: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.world_count < 1:
            raise ValueError("world_count must be at least 1")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError(f"probability out of range: {self.edge_probability}")


def random_model(params: ModelGenParams) -> KripkeModel:
    """Deterministic random model: same params and seed, same model."""
    rng = random.Random(params.seed)
    worlds = tuple(f"w{i}" for i in range(params.world_count))
    relations = {}
    for prog in params.prog_names:
        pairs = frozenset(
            (u, v)
            for u in worlds
            for v in worlds
            if rng.random() < params.edge_probability
        )
        relations[prog] = pairs
    valuation = {}
    for name in tuple(params.atom_names) + tuple(params.var_names):
        valuation[name] = frozenset(w for w in worlds if rng.random() < 0.5)
    return KripkeModel(worlds=worlds, relations=relations, valuation=valuation, seed=params.seed)


def model_to_json(model: KripkeModel) -> dict:
    return {
        "worlds": list(model.worlds),
        "programs": {
            name: sorted([u, v] for u, v in pairs)
            for name, pairs in sorted(model.relations.items())
        },
        "valuation": {
            name: sorted(ext) for name, ext in sorted(model.valuation.items())
        },
    }


def model_from_json(doc: dict) -> KripkeModel:
    try:
        worlds = tuple(str(w) for w in doc["worlds"])
        relations = {
            str(name): frozenset((str(u), str(v)) for u, v in pairs)
            for name, pairs in doc.get("programs", {}).items()
        }
        valuation = {
            str(name): frozenset(str(w) for w in ext)
            for name, ext in doc.get("valuation", {}).items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return KripkeModel(worlds=worlds, relations=relations, valuation=valuation)


def load_model(path: str) -> KripkeModel:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed model file {path}: {exc}") from exc
    return model_from_json(doc)
