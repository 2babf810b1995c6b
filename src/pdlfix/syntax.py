"""Formula and program ASTs in negation normal form, plus the basic term operations.

Formulas and programs are mutually recursive immutable trees.  Negation exists
only on atoms; ``negate`` pushes it structurally and leaves variables fixed,
which is what makes the dual (Sigma) hierarchy and the duality solving
strategy work.

The 14 term classes come from one table: each is one ``_term`` call, which
makes the class and writes its row of ``CHILD_FIELDS``, the child field names
in path order.  ``children``, ``rebuild`` and ``subterms`` read that table,
and every structural walk of a term goes through them: negation,
substitution and ``same_term`` here, rule matching and positioned rewriting
in ``certify``, name collection in the CLI.  Each class is slotted and
frozen, with one shared ``repr``, ``==``, ``hash`` and pickling.

``_frozen`` makes every frozen value class of the package: the term classes
here and the records of ``hierarchy``, ``synthesis``, ``certify`` and
``semantics``.  No module imports ``dataclasses``, so no command loads it (nor
``inspect``, which it pulls in).  Each class is still a dataclass to
``dataclasses.fields``, ``replace`` and ``is_dataclass``: it records its
dataclass fields on the first request for them, made by a caller that has
loaded ``dataclasses`` already.

Each term carries its variable set from construction, as a hash-consed term
carries its attributes: a constant, an atom or an atomic program has none, a
variable has its name, and a node has the union of its children's sets, the
same object as a child's set whenever that is the union.  So ``variables``
and ``is_x_free`` read one attribute and walk nothing, and ``substitute``
enters only the nodes that contain the unknown.  The set is no field: it is
not part of ``==``, ``hash``, ``repr`` or a pickle.
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


def _frozen(cls: type, tail: tuple[str, ...] = (), **scope) -> type:
    """Make ``cls`` a frozen value class whose fields are its annotations, in
    order, with its class attributes as their defaults.

    Unless ``cls`` has an ``__init__`` of its own, it gets one, made from
    source once.  It takes the fields by position or by name and stores each:
    through its slot's descriptor (``set_<slot>``) in a slotted class, and
    with ``_store`` otherwise.  Then it calls ``__post_init__``, if ``cls``
    defines one, and runs the source lines ``tail``, which may use the names
    in ``scope``; a slotted class sets its other slots there.  ``repr``,
    ``==``, ``hash`` and the refusal of assignment are shared.  A slotted
    class pickles through its constructor, since its slots refuse
    ``setattr``.  An undocumented class is documented by its signature, as
    ``dataclass`` documents one, and ``_Fields`` makes the class a dataclass
    on the first request for its fields.
    """
    fields = vars(cls).get("__annotations__", {})
    names = tuple(fields)
    slots = vars(cls).get("__slots__", ())
    defaults = {} if slots else {name: vars(cls)[name] for name in names if name in vars(cls)}
    if "__init__" not in vars(cls):
        if slots:
            scope.update({f"set_{slot}": getattr(cls, slot).__set__ for slot in slots})
            body = [f"set_{name}(self, {name})" for name in names]
        else:
            scope["store"], body = _store, [f"store(self, {name!r}, {name})" for name in names]
        if "__post_init__" in vars(cls):
            scope["post"] = cls.__post_init__
            body.append("post(self)")
        source = "\n    ".join([*body, *tail]) or "pass"
        exec(f"def __init__(self, {', '.join(names)}):\n    {source}", scope)
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


# The set of each variable name, so that every ``Var`` of a name holds one object.
_NO_NAMES: frozenset[str] = frozenset()
_NAME_SETS: dict[str, frozenset[str]] = {}


def _union(left, right) -> frozenset[str]:
    """The variable set of a node with these two children: a child's own set
    when it holds every name of the other's, else a new union.  No union is
    interned: a ``frozenset`` takes no weak reference, so a table of them
    would keep every union for the life of the process."""
    a, b = left._variables, right._variables
    return a if a is b or b <= a else b if a <= b else a | b


# The ``__init__`` line that sets the variable set of a variable, and of a
# node with one or two children, whose fields stand for ``{0}`` and ``{1}``.
_SET_VARIABLES = {
    "name": "set__variables(self, sets.get(name) or sets.setdefault(name, frozenset((name,))))",
    1: "set__variables(self, {0}._variables)",
    2: "set__variables(self, union({0}, {1}))",
}


def _term(name: str, base: type, *children: tuple[str, str], check=None,
          variable: bool = False) -> type:
    """Make the frozen term class ``name`` under ``base`` and record its child
    fields, given as ``(field, type)`` pairs in path order, in ``CHILD_FIELDS``.

    A class with a ``check`` is a leaf with one ``name`` field, which ``check``
    validates on construction.  The class is slotted, one slot per field.  A
    leaf's variable set ``_variables`` is the empty set, held by its class,
    unless the leaf is a ``variable``.  A variable and a class with children
    have a slot for the set, which their ``__init__`` fills: with the one
    ``{name}`` of the name, with the one child's set, or with ``_union``.  Like
    every class ``_frozen`` makes, it records its dataclass fields only when
    they are first asked for, so ``dataclasses.fields`` and ``replace`` work
    on it, and making it compiles only its ``__init__``.
    """
    fields = (*children, ("name", "str")) if check else children
    kids = tuple(field for field, _ in children)
    namespace = {"__slots__": tuple(field for field, _ in fields), "__annotations__": dict(fields)}
    if check:
        namespace["__post_init__"] = check
    line = _SET_VARIABLES.get("name" if variable else len(kids))
    if line:
        namespace["__slots__"] += ("_variables",)
    else:
        namespace["_variables"] = _NO_NAMES
    tail = (line.format(*kids),) if line else ()
    cls = _frozen(type(name, (base,), namespace), tail,
                  sets=_NAME_SETS, union=_union)
    CHILD_FIELDS[cls] = kids
    return cls


Atom = _term("Atom", Formula, check=_lowercase("atom"))
NegAtom = _term("NegAtom", Formula, check=_lowercase("atom"))
Var = _term("Var", Formula, check=_uppercase, variable=True)
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

    Occurrences inside test programs are replaced as well.  Every node that
    holds ``x`` is rebuilt.  A subterm without ``x`` is kept as it is: its
    parent reads the child's variable set and keeps the child without a call.
    """
    def sub(node):  # ``node`` holds x
        kids = children(node)
        if len(kids) == 2:
            a, b = kids
            return type(node)(sub(a) if x in a._variables else a,
                              sub(b) if x in b._variables else b)
        return type(node)(sub(kids[0])) if kids else psi  # a leaf with x is Var(x)

    return sub(term) if x in term._variables else term


def variables(term) -> frozenset[str]:
    """All variable names occurring in ``term``, a formula or a program,
    including under tests."""
    return term._variables


program_variables = variables


def is_x_free(term, x: str) -> bool:
    """Whether ``Var(x)`` is absent from ``term``, tests included."""
    return x not in term._variables


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
