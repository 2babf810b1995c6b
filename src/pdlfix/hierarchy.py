"""Classification of formulas into the Pi/Sigma shape hierarchies.

A level-2(n-1) Pi formula is ``phi1 | (psi1 & [a2](phi2 | (psi2 & ... x)))``
with n component pairs and no leading box; level 2n-1 adds a leading box.
Sigma formulas are the structural negations.  Classification is exact-shape
matching, made total on the intended class by two conventions:

* padding — a missing disjunct reads as ``false``, a missing conjunct as
  ``true`` (a bare ``X`` pads both); each padded slot is recorded so the
  original formula can be rebuilt exactly;
* commutation — ``(psi & x) | phi`` and ``x & psi`` orderings are accepted
  and flagged, unless strict mode is on.

Sigma results store the Pi components of the *negated* formula; this makes
the duality solving strategy a plain negation and sidesteps the polarity
trap in the literal diamond schemas (see DISCREPANCIES.md).
"""

from __future__ import annotations

from .syntax import (
    And,
    Bot,
    Box,
    Diamond,
    Formula,
    Or,
    Program,
    Seq,
    Test,
    Top,
    Var,
    _frozen,
    is_x_free,
    negate,
)
from .textio import parse_formula, parse_program, print_formula, print_program

__all__ = [
    "Pair",
    "PaddingRecord",
    "Decomposition",
    "ClassifyResult",
    "XFree",
    "classify_pi",
    "classify_sigma",
    "classify",
    "to_nested_form",
    "to_chain_form",
    "reconstruct",
    "decomposition_to_json",
    "decomposition_from_json",
]


@_frozen
class Pair:
    """One hierarchy layer: ``phi | (psi & ...)`` guarded by ``alpha`` (absent
    only at the first pair of an even-level formula)."""

    phi: Formula
    psi: Formula
    alpha: Program | None


@_frozen
class PaddingRecord:
    """How pair ``index`` (1-based) deviated from the fully written shape."""

    index: int
    phi_padded: bool = False
    psi_padded: bool = False
    or_commuted: bool = False
    and_commuted: bool = False

    def trivial(self) -> bool:
        return not (self.phi_padded or self.psi_padded or self.or_commuted or self.and_commuted)


@_frozen
class Decomposition:
    kind: str  # "Pi" | "Sigma"
    x: str
    pairs: tuple[Pair, ...]
    leading_modality: bool

    def __post_init__(self) -> None:
        if self.kind not in ("Pi", "Sigma"):
            raise ValueError(f"kind must be Pi or Sigma: {self.kind!r}")
        if not self.pairs:
            raise ValueError("a decomposition needs at least one pair")
        if (self.pairs[0].alpha is not None) != self.leading_modality:
            raise ValueError("alpha_1 present iff leadingModality")
        for i, pair in enumerate(self.pairs[1:], start=2):
            if pair.alpha is None:
                raise ValueError(f"alpha_{i} must be present")
        for i, pair in enumerate(self.pairs, start=1):
            if not is_x_free(pair.phi, self.x) or not is_x_free(pair.psi, self.x):
                raise ValueError(f"components of pair {i} must be {self.x}-free")
            if pair.alpha is not None and not is_x_free(pair.alpha, self.x):
                raise ValueError(f"alpha_{i} must not contain {self.x}")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def level(self) -> int:
        return 2 * self.n - 1 if self.leading_modality else 2 * (self.n - 1)


@_frozen
class ClassifyResult:
    decomposition: Decomposition
    padding: tuple[PaddingRecord, ...]


@_frozen
class XFree:
    """Marker for the trivial case: the equation unknown does not occur."""

    formula: Formula
    x: str


class _NoMatch(Exception):
    """Carries a human-readable reason for the failed layer match, as text
    and formulas, which are printed only when the reason is read."""

    def __str__(self) -> str:
        return "".join(part if type(part) is str else print_formula(part) for part in self.args)


def _split_on_x(left: Formula, right: Formula, x: str, index: int):
    """Return (x-free side, x side, commuted) — commuted when x is on the left."""
    left_has = not is_x_free(left, x)
    right_has = not is_x_free(right, x)
    if left_has and right_has:
        raise _NoMatch(f"both operands of layer {index} contain {x}")
    if not (left_has or right_has):
        raise _NoMatch(f"neither operand of layer {index} contains {x}")
    if right_has:
        return left, right, False
    return right, left, True


def _match_pi(formula: Formula, x: str, strict: bool, kind: str) -> ClassifyResult:
    """The box-hierarchy decomposition of ``formula``, tagged ``kind``, matched
    one ``phi | (psi & core)`` layer at a time; ``_NoMatch`` says why not."""
    pairs: list[Pair] = []
    pads: list[PaddingRecord] = []
    leading = isinstance(formula, Box)
    alpha, xi = (formula.prog, formula.body) if leading else (None, formula)
    if leading and not is_x_free(alpha, x):
        raise _NoMatch(f"{x} occurs inside the leading program")
    index = 1
    while True:
        phi = psi = None
        or_comm = and_comm = False
        if isinstance(xi, Or):
            phi, xi, or_comm = _split_on_x(xi.left, xi.right, x, index)
        if isinstance(xi, And):
            psi, xi, and_comm = _split_on_x(xi.left, xi.right, x, index)
        if strict and (or_comm or and_comm):
            raise _NoMatch(f"layer {index} is commuted and strict mode is on")
        pairs.append(Pair(Bot() if phi is None else phi, Top() if psi is None else psi, alpha))
        pads.append(
            PaddingRecord(
                index=index,
                phi_padded=phi is None,
                psi_padded=psi is None,
                or_commuted=or_comm,
                and_commuted=and_comm,
            )
        )
        if isinstance(xi, Var) and xi.name == x:
            break
        if not isinstance(xi, Box):
            raise _NoMatch(f"layer {index} must bottom out at {x} or a box, found ", xi)
        if not is_x_free(xi.prog, x):
            raise _NoMatch(f"{x} occurs inside the program guarding layer {index + 1}")
        alpha, xi, index = xi.prog, xi.body, index + 1
    decomposition = Decomposition(kind=kind, x=x, pairs=tuple(pairs), leading_modality=leading)
    return ClassifyResult(decomposition=decomposition, padding=tuple(pads))


def _classify(formula: Formula, x: str, strict: bool, kind: str) -> ClassifyResult | None:
    if is_x_free(formula, x):
        return None
    try:
        return _match_pi(formula, x, strict, kind)
    except _NoMatch:
        return None


def classify_pi(phi: Formula, x: str, strict: bool = False) -> ClassifyResult | None:
    """Exact-shape membership in the box hierarchy, or None.

    A top-level box is always read as the leading modality (odd level);
    anything else enters at an even level.
    """
    return _classify(phi, x, strict, "Pi")


def classify_sigma(phi: Formula, x: str, strict: bool = False) -> ClassifyResult | None:
    """Dual hierarchy: succeeds iff ``negate(phi)`` is Pi; stores the Pi
    components of the negation in a decomposition built as Sigma."""
    return _classify(negate(phi), x, strict, "Sigma")


def _match_sides(phi: Formula, x: str, strict: bool) -> tuple[ClassifyResult | None, str]:
    """The Pi match of ``phi``, else the Sigma match of its negation, else None
    with the reason each side failed.  Each side is matched at most once."""
    try:
        return _match_pi(phi, x, strict, "Pi"), ""
    except _NoMatch as exc:
        as_pi = exc
    try:
        return _match_pi(negate(phi), x, strict, "Sigma"), ""
    except _NoMatch as exc:
        return None, f"as Pi: {as_pi}; as Sigma (after negating): {exc}"


def _classify_or_reason(
    phi: Formula, x: str, strict: bool = False
) -> tuple[ClassifyResult | XFree | None, str]:
    """What ``classify`` gives, with ``diagnose``'s reason when that is None."""
    if is_x_free(phi, x):
        return XFree(formula=phi, x=x), ""
    return _match_sides(phi, x, strict)


def classify(phi: Formula, x: str, strict: bool = False) -> ClassifyResult | XFree | None:
    """Pi first, then Sigma; x-free input gets the trivial tag."""
    return _classify_or_reason(phi, x, strict)[0]


def diagnose(phi: Formula, x: str, strict: bool = False) -> str:
    """Why classification failed, one reason per hierarchy side."""
    result, reason = _match_sides(phi, x, strict)
    return reason if result is None else f"the formula classifies as {result.decomposition.kind}"


def _layers(d: Decomposition, padding: tuple[PaddingRecord, ...] = ()) -> Formula:
    """The one writer of the layered shape ``phi1 | (psi1 & [a2](... X))``.

    Each pair is written as its padding record (looked up by index) says: a
    padded slot is left out, commuted operands are swapped, and a pair without
    a record is written in full.  The result is negated once for Sigma."""
    records = {pad.index: pad for pad in padding}
    full = PaddingRecord(index=0)
    acc: Formula = Var(d.x)
    for index in range(d.n, 0, -1):
        pair = d.pairs[index - 1]
        pad = records.get(index, full)
        if not pad.psi_padded:
            acc = And(acc, pair.psi) if pad.and_commuted else And(pair.psi, acc)
        if not pad.phi_padded:
            acc = Or(acc, pair.phi) if pad.or_commuted else Or(pair.phi, acc)
        if pair.alpha is not None:
            acc = Box(pair.alpha, acc)
    return negate(acc) if d.kind == "Sigma" else acc


def to_nested_form(d: Decomposition) -> Formula:
    """The fully written shape, padding as constants: ``_layers`` without records."""
    return _layers(d)


def to_chain_form(d: Decomposition) -> Formula:
    """The equivalent modal chain ``[a1;(~phi1)?]<psi1?>...X`` (dual for Sigma)."""
    acc: Formula = Var(d.x)
    for pair in reversed(d.pairs):
        guard: Program = Test(negate(pair.phi))
        if pair.alpha is not None:
            guard = Seq(pair.alpha, guard)
        acc = Box(guard, Diamond(Test(pair.psi), acc))
    return negate(acc) if d.kind == "Sigma" else acc


def reconstruct(result: ClassifyResult) -> Formula:
    """Rebuild the exact classified input: ``_layers`` replaying the padding
    records.  A pair without a record is written in full (as
    ``decomposition_from_json`` reads a missing index), never dropped."""
    return _layers(result.decomposition, result.padding)


def decomposition_to_json(result: ClassifyResult) -> dict:
    d = result.decomposition
    return {
        "kind": d.kind,
        "x": d.x,
        "leadingModality": d.leading_modality,
        "level": d.level,
        "pairs": [
            {
                "phi": print_formula(pair.phi),
                "psi": print_formula(pair.psi),
                "alpha": None if pair.alpha is None else print_program(pair.alpha),
            }
            for pair in d.pairs
        ],
        "padding": [
            {
                "index": pad.index,
                "phiPadded": pad.phi_padded,
                "psiPadded": pad.psi_padded,
                "orCommuted": pad.or_commuted,
                "andCommuted": pad.and_commuted,
            }
            for pad in result.padding
            if not pad.trivial()
        ],
    }


def decomposition_from_json(doc: dict) -> ClassifyResult:
    pairs = tuple(
        Pair(
            phi=parse_formula(item["phi"]),
            psi=parse_formula(item["psi"]),
            alpha=None if item.get("alpha") is None else parse_program(item["alpha"]),
        )
        for item in doc["pairs"]
    )
    d = Decomposition(
        kind=doc["kind"],
        x=doc["x"],
        pairs=pairs,
        leading_modality=doc["leadingModality"],
    )
    by_index = {
        pad["index"]: PaddingRecord(
            index=pad["index"],
            phi_padded=pad.get("phiPadded", False),
            psi_padded=pad.get("psiPadded", False),
            or_commuted=pad.get("orCommuted", False),
            and_commuted=pad.get("andCommuted", False),
        )
        for pad in doc.get("padding", [])
    }
    pads = tuple(by_index.get(i, PaddingRecord(index=i)) for i in range(1, len(pairs) + 1))
    return ClassifyResult(decomposition=d, padding=pads)
