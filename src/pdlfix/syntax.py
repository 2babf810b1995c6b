"""Formula and program ASTs in negation normal form, plus the basic term operations.

Formulas and programs are mutually recursive immutable trees.  Negation exists
only on atoms; ``negate`` pushes it structurally and leaves variables fixed,
which is what makes the dual (Sigma) hierarchy and the duality solving
strategy work.

The 14 term classes come from one table: each is one ``_term`` call, which
makes the class and writes its row of ``CHILD_FIELDS``, the child field names
in path order.  ``children``, ``rebuild`` and ``subterms`` read that table,
and every structural walk of a term goes through them: negation,
substitution, the variable scans and ``same_term`` here, rule matching and
positioned rewriting in ``certify``, name collection in the CLI.  Each class
is slotted and frozen, with one shared ``repr``, ``==``, ``hash`` and
pickling.

``_frozen`` makes every frozen value class of the package: the term classes
here and the records of ``hierarchy``, ``synthesis``, ``certify`` and
``semantics``.  No module imports ``dataclasses``, so no command loads it (nor
``inspect``, which it pulls in).  Each class is still a dataclass to
``dataclasses.fields``, ``replace`` and ``is_dataclass``: it records its
dataclass fields on the first request for them, made by a caller that has
loaded ``dataclasses`` already.

Terms are frozen, so a term's variable set never changes.  It is computed at
most once per object: a variable scan (``variables``, or an ``is_x_free``
that does not meet the unknown) stores the names it saw on the term it
started from, and every later walk that meets that object uses the stored set
instead of descending into it.  The set has a slot of its own, not a field,
so it is not part of ``==``, ``hash``, ``repr`` or a pickle.
"""

from __future__ import annotations

import re
from operator import attrgetter

__all__ = [
    "Formula",
    "Atom",
    "NegAtom",
    "Var",
    "Top",
    "Bot",
    "Or",
    "And",
    "Diamond",
    "Box",
    "Program",
    "AtomicProg",
    "Test",
    "Seq",
    "Choice",
    "Star",
    "CHILD_FIELDS",
    "children",
    "rebuild",
    "subterms",
    "same_term",
    "negate",
    "substitute",
    "variables",
    "program_variables",
    "is_x_free",
    "equal_modulo_assoc",
    "implies",
    "iff",
]

_LOWER_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_UPPER_NAME = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

# Lowercase identifiers that the concrete syntax claims for itself.
RESERVED_NAMES = frozenset({"true", "false", "u"})


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


class Program:
    """Base class for program nodes."""

    __slots__ = ()


# Name checks, run by the leaf classes as their ``__post_init__``.
def _lowercase(what: str):
    def check(node) -> None:
        name = node.name
        if not _LOWER_NAME.match(name) or name in RESERVED_NAMES:
            raise ValueError(f"{what} name must be a lowercase identifier (not a keyword): {name!r}")
    return check


def _uppercase(node) -> None:
    if not _UPPER_NAME.match(node.name):
        raise ValueError(f"variable name must be an uppercase identifier: {node.name!r}")


def _no_children(node) -> tuple:
    return ()


# The child fields of each term class, in the order in which a certificate
# path indexes them.  ``_term`` writes one row per class it makes.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {}
# The value of each frozen class's objects, which ``==`` and ``hash`` compare:
# the tuple of its field values, or the one value of a class with one field.
_KEYS = {}
# Frozen classes refuse plain assignment; this writes a field or slot.  It
# leaves an instance's attributes in the compact layout that a write to its
# ``__dict__`` would give up, which makes every later read slower.
_store = object.__setattr__


# The methods that every frozen class shares.
def _repr(self) -> str:
    fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    cls = type(self)
    if type(other) is cls:
        key = _KEYS[cls]
        return key(self) == key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_KEYS[type(self)](self))


def _reduce(self):
    return type(self), tuple(getattr(self, field) for field in self.__match_args__)


def _setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _replace(self, /, **changes):
    # ``copy.replace`` (Python 3.13) calls this before any request for the
    # fields has made the class a dataclass with a ``__replace__`` of its own.
    from dataclasses import replace
    return replace(self, **changes)


class _Fields:
    """A frozen class's ``__dataclass_fields__``, made on first request.

    ``dataclass`` with ``init``, ``repr`` and ``eq`` off records the fields
    and generates no method; its table then replaces this descriptor in the
    class, so every later request is a plain class attribute read.  Whoever
    asks has loaded ``dataclasses`` already, so no command pays for it.
    """

    def __get__(self, obj, cls):
        from dataclasses import dataclass
        return dataclass(cls, init=False, repr=False, eq=False).__dataclass_fields__


def _frozen(cls: type) -> type:
    """Make ``cls`` a frozen value class whose fields are its annotations, in
    order, with its class attributes as their defaults.

    Unless ``cls`` has an ``__init__`` of its own, it gets one, made from
    source once.  It takes the fields by position or by name and stores each:
    through its slot's descriptor in a slotted class, whose other slots start
    as ``None``, and with ``_store`` otherwise.  Then it calls
    ``__post_init__``, if ``cls`` defines one.  ``repr``, ``==``, ``hash`` and
    the refusal of assignment are shared.  A slotted class pickles through its
    constructor, since its slots refuse ``setattr``.  An undocumented class is
    documented by its signature, as ``dataclass`` documents one, and
    ``_Fields`` makes the class a dataclass on the first request for its
    fields.
    """
    fields = vars(cls).get("__annotations__", {})
    names = tuple(fields)
    slots = vars(cls).get("__slots__", ())
    defaults = {} if slots else {name: vars(cls)[name] for name in names if name in vars(cls)}
    if "__init__" not in vars(cls):
        if slots:
            scope = {f"set_{slot}": getattr(cls, slot).__set__ for slot in slots}
            body = [f"set_{slot}(self, {slot if slot in fields else None})" for slot in slots]
        else:
            scope, body = {"store": _store}, [f"store(self, {name!r}, {name})" for name in names]
        if "__post_init__" in vars(cls):
            scope["post"] = cls.__post_init__
            body.append("post(self)")
        exec(f"def __init__(self, {', '.join(names)}):\n    " + "\n    ".join(body), scope)
        init = cls.__init__ = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(defaults.values()) or None
        init.__annotations__ = {**fields, "return": None}
    if cls.__doc__ is None:
        params = (f"{name}: {kind!r}" + (f" = {defaults[name]!r}" if name in defaults else "")
                  for name, kind in fields.items())
        cls.__doc__ = f"{cls.__name__}({', '.join(params)})"
    _KEYS[cls] = attrgetter(*names) if names else _no_children
    cls.__match_args__, cls.__dataclass_fields__ = names, _Fields()
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__, cls.__replace__ = _setattr, _delattr, _replace
    if slots:
        cls.__reduce__ = _reduce
    return cls


def _term(name: str, base: type, *children: tuple[str, str], check=None) -> type:
    """Make the frozen term class ``name`` under ``base`` and record its child
    fields, given as ``(field, type)`` pairs in path order, in ``CHILD_FIELDS``.

    A class with a ``check`` is a leaf with one ``name`` field, which ``check``
    validates on construction.  The class is slotted: one slot per field and
    one for ``_variables``, which its ``__init__`` sets to ``None``.  Like
    every class ``_frozen`` makes, it records its dataclass fields only when
    they are first asked for, so ``dataclasses.fields`` and ``replace`` work on
    it, and making it compiles only its ``__init__``.
    """
    fields = (*children, ("name", "str")) if check else children
    namespace = {"__slots__": (*(field for field, _ in fields), "_variables"),
                 "__annotations__": dict(fields)}
    if check:
        namespace["__post_init__"] = check
    cls = _frozen(type(name, (base,), namespace))
    CHILD_FIELDS[cls] = tuple(field for field, _ in children)
    return cls


Atom = _term("Atom", Formula, check=_lowercase("atom"))
NegAtom = _term("NegAtom", Formula, check=_lowercase("atom"))
Var = _term("Var", Formula, check=_uppercase)
Top = _term("Top", Formula)
Bot = _term("Bot", Formula)
Or = _term("Or", Formula, ("left", "Formula"), ("right", "Formula"))
And = _term("And", Formula, ("left", "Formula"), ("right", "Formula"))
Diamond = _term("Diamond", Formula, ("prog", "Program"), ("body", "Formula"))
Box = _term("Box", Formula, ("prog", "Program"), ("body", "Formula"))
AtomicProg = _term("AtomicProg", Program, check=_lowercase("atomic program"))
Test = _term("Test", Program, ("cond", "Formula"))
Test.__test__ = False  # not a test case, despite the name
Seq = _term("Seq", Program, ("first", "Program"), ("second", "Program"))
Choice = _term("Choice", Program, ("left", "Program"), ("right", "Program"))
Star = _term("Star", Program, ("body", "Program"))


def _getter(fields: tuple[str, ...]):
    """The function from a node with these child fields to its children.
    ``attrgetter`` reads the fields in C, and every walk comes through here."""
    if not fields:
        return _no_children
    get = attrgetter(*fields)
    return get if len(fields) > 1 else lambda node: (get(node),)


_GETTERS = {cls: _getter(fields) for cls, fields in CHILD_FIELDS.items()}


def children(node) -> tuple:
    """The child terms of ``node`` in path order.  Leaves, and objects that are
    not terms (such as rewrite-rule metavariables), have none."""
    return _GETTERS.get(type(node), _no_children)(node)


def rebuild(node, kids):
    """A node of ``node``'s class with children ``kids``; a leaf is itself."""
    return type(node)(*kids) if kids else node


def subterms(term):
    """Every subterm of ``term``, itself first, in left-to-right pre-order."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def same_term(s, t) -> bool:
    """Whether ``s`` and ``t`` are equal terms, by an explicit-stack walk, so
    that no depth is too deep for it.  ``==`` gives the same answer by
    recursion.  A pair of identical objects is equal without being entered."""
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        kids = children(a)
        if not kids:
            if a != b:
                return False
            continue
        stack.extend(zip(kids, children(b)))
    return True


_DUALS = {Atom: NegAtom, NegAtom: Atom, Top: Bot, Bot: Top, Or: And, And: Or,
          Diamond: Box, Box: Diamond}


def negate(phi: Formula) -> Formula:
    """Structural negation: atoms flip, variables stay fixed, duals swap.

    Programs (including test conditions) are untouched.  ``negate`` is an
    involution.
    """
    cls = type(phi)
    dual = _DUALS.get(cls)
    if dual is None:
        if cls is Var:
            return phi
        raise TypeError(f"not a formula: {phi!r}")
    if cls is Atom or cls is NegAtom:
        return dual(phi.name)
    kids = children(phi)
    if not kids:
        return dual()
    first, body = kids
    return dual(first if isinstance(first, Program) else negate(first), negate(body))


def substitute(term, x: str, psi: Formula):
    """Replace every occurrence of ``Var(x)`` in ``term``, a formula or a
    program, by ``psi``.

    Occurrences inside test programs are replaced as well.  Subterms without
    ``x`` are kept as they are, not copied, and a subterm whose variable set is
    known to lack ``x`` is not even entered.
    """
    def sub(node):
        known = node._variables
        if known is not None and x not in known:
            return node
        kids = children(node)
        if len(kids) == 2:
            left, right = kids
            new_left, new_right = sub(left), sub(right)
            if new_left is left and new_right is right:
                return node
            return type(node)(new_left, new_right)
        if kids:
            new = sub(kids[0])
            return node if new is kids[0] else type(node)(new)
        return psi if type(node) is Var and node.name == x else node

    return sub(term)


# Every stored variable set, so that equal sets are one object.
_NO_NAMES: frozenset[str] = frozenset()
_INTERNED: dict[frozenset[str], frozenset[str]] = {}


def _scan(term, x):
    """Whether ``Var(x)`` is absent from ``term``, by an explicit-stack walk
    that stops at the first ``Var(x)``.

    A node whose variable set is known is answered from it and not entered.
    A walk that does not find ``x`` has seen every name, so it stores them on
    ``term``; one that finds ``x`` stores nothing.
    """
    names = []
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            if node.name == x:
                return False
            names.append(node.name)
            continue
        known = node._variables
        if known is None:
            stack.extend(children(node))
        elif x in known:
            return False
        elif known:
            names.extend(known)
    if names:
        names = frozenset(names)
        _store(term, "_variables", _INTERNED.setdefault(names, names))
    else:
        _store(term, "_variables", _NO_NAMES)
    return True


def variables(term) -> frozenset[str]:
    """All variable names occurring in ``term``, a formula or a program,
    including under tests.  The set is computed once per object and kept."""
    if term._variables is None:
        _scan(term, None)
    return term._variables


program_variables = variables


def is_x_free(term, x: str) -> bool:
    """Whether ``Var(x)`` is absent from ``term``, tests included.

    A term whose variable set is known is answered from it.  Otherwise the
    term is walked, stopping at the first ``Var(x)`` and at every subterm with
    a known set; a walk that does not find ``x`` stores the set on ``term``."""
    known = term._variables
    return _scan(term, x) if known is None else x not in known


_ASSOCIATIVE = (And, Or, Seq, Choice)


def _flatten(node, cls):
    if type(node) is cls:
        for kid in children(node):
            yield from _flatten(kid, cls)
    else:
        yield node


def _assoc_key(node):
    """Canonical shape with maximal chains of the associative operators flattened.

    Order is preserved; commutativity is deliberately not included.
    """
    cls = type(node)
    if not CHILD_FIELDS[cls]:
        return node
    kids = _flatten(node, cls) if cls in _ASSOCIATIVE else children(node)
    return cls, tuple(_assoc_key(kid) for kid in kids)


def equal_modulo_assoc(s, t) -> bool:
    """Syntactic equality after flattening associative chains (&, |, ;, u)."""
    return _assoc_key(s) == _assoc_key(t)


def implies(phi: Formula, psi: Formula) -> Formula:
    return Or(negate(phi), psi)


def iff(phi: Formula, psi: Formula) -> Formula:
    return And(implies(phi, psi), implies(psi, phi))
