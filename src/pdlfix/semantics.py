"""Finite Kripke models and the satisfaction relation.

This is the brute-force oracle for everything else.  A model holds each
world set as an ``int`` bitmask, bit ``i`` for its ``i``-th world: one
successor mask per world and atomic program, one extension mask per name.
Formulas are labelled bottom-up with their extensions.  A program is never
built as a relation; it acts on a world set by pre-image (``<alpha>phi`` is
the pre-image of ``phi``, ``[alpha]phi`` the complement of the pre-image of
``~phi``), and Kleene star is the least fixpoint of ``T -> S | pre(alpha, T)``.
Variables are interpreted through the valuation exactly like atoms.  Only
``<alpha>phi`` and ``[alpha]phi`` nodes are memoized, as they are what a
check shares.  An operand is labelled only when the answer needs it, and no
pre-image of the empty set is computed (see ``_Evaluator``).

``random_model`` draws a model from a counter-based stream, block by block,
and each program's rows when it is first read, so a program that appears
only under a skipped operand is never drawn.
"""

from __future__ import annotations

import json
from _sha3 import shake_128
from functools import lru_cache

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
    _frozen,
    is_x_free,
    substitute,
)
from .textio import print_formula

__all__ = ["KripkeModel", "ModelGenParams", "EquationReport", "relation", "satisfies",
           "equivalent_on", "check_solution_on", "random_model", "model_to_json",
           "model_from_json"]


@_frozen
class KripkeModel:
    """Worlds, with every world set over them held as a bitmask.

    ``succ[a][i]`` is the mask of ``a``-successors of ``worlds[i]`` and
    ``ext[p]`` the extension mask of the atom or variable ``p``; names absent
    from either are empty.  World order is significant: counterexamples report
    the first world in this order.  The constructor encodes world pairs and
    world sets once; ``relations`` and ``valuation`` decode them as read-only views.

    A model from ``random_model`` may draw a program's rows at the first read
    of that program (``_Rows``); every read gives the masks of the whole model.
    """

    worlds: tuple[str, ...]
    succ: dict[str, tuple[int, ...]]
    ext: dict[str, int]

    def __init__(self, worlds, relations, valuation) -> None:
        worlds = tuple(worlds)
        if not worlds:
            raise ValueError("a model needs at least one world")
        index = {w: i for i, w in enumerate(worlds)}
        if len(index) != len(worlds):
            raise ValueError("duplicate world identifiers")
        succ, ext = {}, {}
        for name, pairs in relations.items():
            rows = [0] * len(worlds)
            for u, v in pairs:
                if u not in index or v not in index:
                    raise ValueError(f"relation {name!r} mentions unknown world ({u!r}, {v!r})")
                rows[index[u]] |= 1 << index[v]
            succ[name] = tuple(rows)
        for name, members in valuation.items():
            ext[name] = 0
            for w in members:
                if w not in index:
                    raise ValueError(f"valuation of {name!r} mentions unknown world {w!r}")
                ext[name] |= 1 << index[w]
        self.__dict__.update(worlds=worlds, succ=succ, ext=ext)

    @property
    def relations(self) -> dict[str, frozenset[tuple[str, str]]]:
        return {name: frozenset((u, v) for u, row in zip(self.worlds, rows)
                                for v in _members(self.worlds, row))
                for name, rows in self.succ.items()}

    @property
    def valuation(self) -> dict[str, frozenset[str]]:
        return {name: frozenset(_members(self.worlds, mask)) for name, mask in self.ext.items()}

    def index(self, world: str) -> int:
        try:
            return self.worlds.index(world)
        except ValueError:
            raise ValueError(f"unknown world identifier {world!r}") from None


def _members(worlds: tuple[str, ...], mask: int) -> list[str]:
    """The worlds whose bits are set in ``mask``, in model order."""
    return [w for i, w in enumerate(worlds) if mask >> i & 1]


class _Evaluator:
    """Bottom-up labelling of one model, reading its masks directly.

    Only ``<alpha>phi`` and ``[alpha]phi`` nodes are memoized, by identity:
    sharing happens there, in the candidate that ``substitute`` puts under
    every occurrence of the unknown and the tests a solution repeats along
    its chains.  A leaf is read from the model, and ``&`` and ``|`` from their
    operands, with no memo entry: a lookup would cost as much.  ``pre`` tries
    tests and sequences first, the programs that solutions are built from.

    A node is decided as soon as one operand settles it, left operand first:
    ``phi & psi`` is empty without ``psi`` when ``phi`` is empty, ``phi |
    psi`` is every world without ``psi`` when ``phi`` is, ``alpha u beta``
    skips ``beta`` when ``alpha``'s pre-image is every world, and a star's
    closure stops once it has reached every world, at once if its set is
    already full.  No pre-image of the empty set is computed: a box whose body
    holds everywhere, a diamond whose body holds nowhere and a sequence whose
    inner pre-image is empty are decided without one.  A skipped operand is
    never labelled, so a program that appears only under one is never read,
    and a random model never draws it.

    The memo is keyed by ``id(node)`` alone.  That is sound only while every
    labelled node stays alive, so that no id is reused: an evaluator lives for
    one public call, labels only subterms of the roots its caller holds, and
    builds no node of its own.
    """

    def __init__(self, model: KripkeModel):
        self.succ, self.names = model.succ, model.ext
        self.full = (1 << len(model.worlds)) - 1
        self._ext: dict[int, int] = {}  # id(node) -> mask

    def extension(self, phi: Formula) -> int:
        kind = type(phi)
        if kind is Atom or kind is Var:
            return self.names.get(phi.name, 0)
        if kind is NegAtom:
            return self.full ^ self.names.get(phi.name, 0)
        if kind is Top:
            return self.full
        if kind is Bot:
            return 0
        if kind is And:
            out = self.extension(phi.left)
            return out and out & self.extension(phi.right)
        if kind is Or:
            out = self.extension(phi.left)
            return out if out == self.full else out | self.extension(phi.right)
        memo = self._ext
        key = id(phi)
        out = memo.get(key)
        if out is not None:
            return out
        if kind is Diamond:
            out = self.extension(phi.body)
            out = out and self.pre(phi.prog, out)
        elif kind is Box:
            out = self.full ^ self.extension(phi.body)
            out = self.full ^ (out and self.pre(phi.prog, out))
        else:
            raise TypeError(f"not a formula: {phi!r}")
        memo[key] = out
        return out

    def pre(self, alpha: Program, s: int) -> int:
        """The worlds with an ``alpha``-successor in ``s``, which is not empty."""
        kind = type(alpha)
        if kind is Test:
            return self.extension(alpha.cond) & s
        if kind is Seq:
            s = self.pre(alpha.second, s)
            return s and self.pre(alpha.first, s)
        if kind is AtomicProg:
            out = 0
            for i, row in enumerate(self.succ.get(alpha.name, ())):
                if row & s:
                    out |= 1 << i
            return out
        if kind is Choice:
            out = self.pre(alpha.left, s)
            return out if out == self.full else out | self.pre(alpha.right, s)
        if kind is Star:
            # Least fixpoint of T -> s | pre(body, T); pre-image distributes
            # over union, so each round only needs the newly reached worlds,
            # and none is left once every world is reached.
            reached = frontier = s
            while frontier and reached != self.full:
                frontier = self.pre(alpha.body, frontier) & ~reached
                reached |= frontier
            return reached
        raise TypeError(f"not a program: {alpha!r}")


def relation(model: KripkeModel, alpha: Program) -> frozenset[tuple[str, str]]:
    """The compositional relation of ``alpha`` on ``model`` as world pairs."""
    ev = _Evaluator(model)
    return frozenset((u, v) for j, v in enumerate(model.worlds)
                     for u in _members(model.worlds, ev.pre(alpha, 1 << j)))


# The last formula ``satisfies`` labelled, as ``(model, phi, mask)``, so a loop
# over the worlds labels it once.  It holds the objects, so no id is reused.
_last_satisfied: tuple = (None, None, 0)


def satisfies(model: KripkeModel, world: str, phi: Formula) -> bool:
    global _last_satisfied
    last_model, last_phi, mask = _last_satisfied
    if last_model is not model or last_phi is not phi:
        mask = _Evaluator(model).extension(phi)
        _last_satisfied = (model, phi, mask)
    return bool(mask >> model.index(world) & 1)


def equivalent_on(model: KripkeModel, phi: Formula, psi: Formula) -> str | None:
    """First world (in model order) where the two formulas disagree, else None."""
    ev = _Evaluator(model)
    diff = ev.extension(phi) ^ ev.extension(psi)
    if diff:
        return model.worlds[(diff & -diff).bit_length() - 1]
    return None


@_frozen
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


# The last equation ``check_solution_on`` instantiated, as ``(phi_x, x, psi,
# phi_x[x := psi])``.  It holds the terms themselves, so a match by identity
# cannot be a reused id.
_last_instantiated: tuple = (None, None, None, None)


def check_solution_on(model: KripkeModel, x: str, phi_x: Formula, psi: Formula) -> EquationReport:
    """Check ``psi ≡ phi_x[x := psi]`` on one model.  ``psi`` must be x-free.

    The x-free test and the substitution are made once for a run of calls on
    the same ``phi_x`` and ``psi`` objects and the same ``x``: the last
    instantiated equation is kept, and a call that passes the very objects it
    was made from reuses it.  A caller checking many models can also
    substitute once and call ``equivalent_on`` per model, as the CLI does,
    and build the report only for a failing one."""
    global _last_instantiated
    last_phi, last_x, last_psi, instantiated = _last_instantiated
    if last_phi is not phi_x or last_psi is not psi or last_x != x:
        if not is_x_free(psi, x):
            raise ValueError(f"candidate contains the unknown {x}: {print_formula(psi)}")
        instantiated = substitute(phi_x, x, psi)
        _last_instantiated = (phi_x, x, psi, instantiated)
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


@_frozen
class ModelGenParams:
    world_count: int = 4
    atom_names: tuple[str, ...] = ("p", "q", "r")
    var_names: tuple[str, ...] = ("X",)
    prog_names: tuple[str, ...] = ("a", "b")
    edge_probability: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.world_count) is not int:
            raise ValueError(f"world_count must be an integer, got {self.world_count!r}")
        if self.world_count < 1:
            raise ValueError("world_count must be at least 1")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError(f"probability out of range: {self.edge_probability}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # A model holds one row set a program and one mask a name: a name given
        # twice would be drawn twice, and one draw silently lost.
        names = (*self.atom_names, *self.var_names)
        if len(set(self.prog_names)) < len(self.prog_names) or len(set(names)) < len(names):
            for kind, names in (("program", self.prog_names), ("atom or variable", names)):
                for i, name in enumerate(names):
                    if name in names[:i]:
                        raise ValueError(f"duplicate {kind} name {name!r}")


def random_model(params: ModelGenParams) -> KripkeModel:
    """Deterministic random model: same params and seed, same model.

    Each draw is a 16-bit little-endian value from a SHAKE128 stream (FIPS
    202).  One draw is made per program and world pair (source world outer,
    target inner), an edge when it is below ``round(p * 2**16)``, then one per
    name and world, a member when it is below ``2**15``.  The draws come in
    blocks of whole rows, at most ``_BLOCK_DRAWS`` draws unless one row is
    longer, so a model of any size is drawn in flat memory and a small one
    from one hash call.  Block ``b`` is read from the stream of the ASCII text
    ``f"{seed}:{b}"``, so it is a pure function of the seed and the block,
    with no generator state to seed.  A draw's high byte decides it, unless
    that byte equals the bound's; then its low byte does.

    So any block can be drawn alone, in any order.  The blocks that hold the
    names are drawn here, and so is every program whose rows lie wholly in
    them: all of a model of one block.  Each other program's rows are drawn
    the first time it is read (``_Rows``), hashing only the blocks they lie
    in that are not drawn yet, each block once.  A formula that reads one
    program of a large model hashes no block of the others, and every read
    gives the masks of the model drawn whole.

    A model of one block is hashed by the stdlib's ``_sha3``, which is cheap
    to import; a model of more blocks by ``hashlib``'s SHAKE128 (OpenSSL's,
    where the interpreter is built with it), which hashes faster but loads
    OpenSSL, so it is imported on the first such model.  Both give the same
    FIPS 202 bytes, so the model does not depend on which one drew it.
    """
    n = params.world_count
    names = (*params.atom_names, *params.var_names)
    edges = n * len(params.prog_names)  # the edge rows, n draws each; a row a name follows
    total = edges + len(names)
    seed = params.seed
    p = params.edge_probability
    per = max(1, _BLOCK_DRAWS // n)  # rows a block
    if total <= per:  # one block, the whole model: _sha3 hashes it, and nothing is left to draw
        rows = _rows(shake_128(b"%d:0" % seed).digest(2 * n * total), n * edges, p, n)
    else:  # hashlib loads OpenSSL, a few ms: one-block models never pay for it
        from hashlib import shake_128 as shake
        rows = [None] * total

        def draw(first: int, last: int) -> tuple[int, ...]:
            """Rows ``first`` to ``last - 1``, hashing the blocks they lie in not drawn yet."""
            for block in range(first // per, -(-last // per)):
                start = block * per
                if rows[start] is None:
                    stop = min(start + per, total)
                    data = shake(b"%d:%d" % (seed, block)).digest(2 * n * (stop - start))
                    rows[start:stop] = _rows(data, n * max(edges - start, 0), p, n)
            return tuple(rows[first:last])

        draw(edges, total)  # the names' blocks
    rows_left = iter(rows)
    succ = dict(zip(params.prog_names, zip(*[rows_left] * n)))  # n rows a program
    ext = dict(zip(names, rows_left))
    if rows and rows[0] is None:  # the blocks drawn end the model, so the first programs wait
        def program(name: str) -> tuple[int, ...]:
            first = n * params.prog_names.index(name)
            return draw(first, first + n)

        succ = _Rows({name: _UNDRAWN if r[0] is None else r for name, r in succ.items()},
                     program)
    model = object.__new__(KripkeModel)
    worlds = _WORLDS[:n] if n <= len(_WORLDS) else tuple([f"w{i}" for i in range(n)])
    model.__dict__.update(worlds=worlds, succ=succ, ext=ext)
    return model


class _Rows(dict):
    """The ``succ`` of a random model with programs not drawn yet.

    It holds every program's key from the start, in the model's order; a
    program not drawn yet maps to ``_UNDRAWN``, and ``draw(name)`` gives its
    rows.  Reading one program, by ``[]`` or ``get``, draws it.  A read of
    the keys alone (``in``, ``len``, ``keys``, ``reversed``) draws nothing.
    Every other read (``==``, iteration, ``repr``, ``items``, ``values``, a
    copy, a pickle or ``json.dumps``) first draws the rest, so it sees the
    masks of the model drawn whole.  A copy or a pickle is a plain ``dict``.
    """

    __slots__ = ("_draw",)

    def __init__(self, rows, draw) -> None:
        super().__init__(rows)
        self._draw = draw

    def __getitem__(self, name):
        rows = dict.__getitem__(self, name)
        if rows is _UNDRAWN:
            rows = self._draw(name)
            dict.__setitem__(self, name, rows)
        return rows

    def get(self, name, default=None):
        rows = dict.get(self, name, default)
        return self[name] if rows is _UNDRAWN else rows

    def _complete(self) -> None:
        if self._draw is not None:
            for name in dict.keys(self):
                self[name]  # draws it
            self._draw = None  # lets the drawn blocks go

    def __reduce_ex__(self, protocol):
        return dict, (self.copy(),)


# The value of a program not drawn yet in a ``_Rows``.
_UNDRAWN = object()


def _whole(method):
    """``dict``'s ``method``, called once every program of both sides is drawn."""
    def read(self, *args):
        self._complete()
        if args and type(args[0]) is _Rows:
            args[0]._complete()
        return method(self, *args)
    read.__name__ = method.__name__
    return read


# Iteration draws too: ``dict(rows)`` and ``{**rows}`` copy a dict
# subclass's storage unless it overrides ``__iter__``.
for _name in ("__eq__", "__iter__", "__ne__", "__or__", "__repr__", "__ror__", "copy", "items",
              "pop", "popitem", "setdefault", "values"):
    setattr(_Rows, _name, _whole(getattr(dict, _name)))


# Draws per hash call, in whole rows (at least one): 8 KiB of output, so a
# model of any size is drawn in flat memory, and a small one in one call.
# A model of one block is hashed by ``_sha3``, a model of more by
# ``hashlib.shake_128`` (OpenSSL's, about 2.6 times as fast); the bytes are the same.
_BLOCK_DRAWS = 4096
# The names of a random model's first worlds, of which a small model takes a prefix.
_WORLDS = tuple([f"w{i}" for i in range(64)])


def _rows(data: bytes, cut: int, p: float, n: int) -> list[int]:
    """The rows, ``n`` draws each, of the two-byte draws in ``data``: is each
    of the first ``cut`` below ``round(p * 2**16)``, and each other below
    ``2**15``?  Draw ``j`` of a row is bit ``j``."""
    highs = data[1::2]
    table, low = _threshold(p)
    flags = highs[:cut].translate(table)
    if 63 in flags:  # b"?": the high byte ties the bound's, so the low byte decides
        flags = bytearray(flags)
        j = flags.find(63)
        while j >= 0:
            flags[j] = 49 if data[2 * j] < low else 48
            j = flags.find(63, j + 1)
    bits = int((flags + highs[cut:].translate(_HALF))[::-1] or b"0", 2)  # b"": no draws
    full = (1 << n) - 1
    return [bits >> i & full for i in range(0, len(highs), n)]


@lru_cache(maxsize=64)
def _threshold(p: float) -> tuple[bytes, int]:
    """The table from a draw's high byte to ``b"1"`` (below the bound
    ``round(p * 2**16)``), ``b"0"`` (not below) or ``b"?"`` (the bound's own
    high byte, when the bound's low byte is not 0), and that low byte."""
    top, low = divmod(round(p * 2**16), 256)
    return bytes(49 if c < top else 63 if c == top and low else 48 for c in range(256)), low


# The table for a name's draws: 2**15 has low byte 0, so the high byte decides every draw.
_HALF = _threshold(0.5)[0]


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


def _list(value) -> list:
    """A JSON array; a string here would otherwise be read as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _world(value) -> str:
    """A world name: a JSON string, or an integer as its decimal text.  A
    bool, float, null, list or object is not a world name."""
    if type(value) is str or type(value) is int:
        return str(value)
    raise TypeError(f"a world name must be a string or an integer, got {value!r}")


def model_from_json(doc: dict) -> KripkeModel:
    """The model of a JSON document.  Its lists reach the constructor in
    document order, so an unknown world is reported where it first occurs."""
    try:
        worlds = [_world(w) for w in _list(doc["worlds"])]
        relations = {str(name): [(_world(u), _world(v)) for u, v in map(_list, _list(pairs))]
                     for name, pairs in doc.get("programs", {}).items()}
        valuation = {str(name): [_world(w) for w in _list(ext)]
                     for name, ext in doc.get("valuation", {}).items()}
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
