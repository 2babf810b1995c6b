"""Concrete syntax: parser and canonical printer for formulas and programs.

Grammar (right-associative binary operators throughout)::

    formula  ::= disj
    disj     ::= conj ('|' disj)?
    conj     ::= unary ('&' conj)?
    unary    ::= '[' program ']' unary | '<' program '>' unary | primary
    primary  ::= 'true' | 'false' | lower-ident | '~' lower-ident
               | UPPER-ident | '(' formula ')'

    program  ::= choice
    choice   ::= seq ('u' choice)?
    seq      ::= starred (';' seq)?
    starred  ::= prim '*'*
    prim     ::= test | lower-ident | '(' program ')'
    test     ::= primary '?'

Lowercase identifiers are atoms or atomic programs depending on position,
uppercase identifiers are variables.  ``u``, ``true`` and ``false`` are
reserved.  Unicode aliases (``∪`` ``⊤`` ``⊥`` ``¬``) are accepted on input and
never emitted.  Printing produces canonical ASCII with minimal parentheses;
``parse(print(t)) == t`` holds for every term.

One compiled regular expression splits the whole text into tokens: a run of
word characters (those ``str.isalnum`` accepts, and ``_``) or any other single
non-space character.  An identifier starts with a letter (``str.isalpha``), so
a word led by a digit, ``_`` or a numeric sign such as ``²`` is an unknown
token, reported by its first character before anything is parsed.  The tokens
are two parallel lists, kinds and texts, which one recursive descent reads by
index; each text is read on its own, and nothing is kept between reads.  Only
the parens are paired, once per text, with a stack and leniently: an
unmatched ``(`` or ``)`` stays a plain token, and the read fails where the
grammar meets it.  The pairing serves one lookahead: a ``(`` where a program
starts is a test's formula when a ``?`` follows its ``)``.

Source offsets are not kept: only when a ``ParseError`` is raised is the text
scanned again for the offset of the offending token, which becomes a line and
a column.  Input nested beyond the interpreter's recursion limit is a
``ParseError`` as well, placed where the read gave up (which depends on the
frames below the call), and so is a name that its term class rejects
(``p²``, ``É``), reported at that name.

The printer dispatches on the type of each node.  Within one call it keeps
the bare text of every composite node it printed, one entry per node, and a
parent adds the parentheses a child needs in its slot, so a subterm shared by
several terms or slots is printed once (``print_terms``).
"""

from __future__ import annotations

import re
from itertools import islice

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
    RESERVED_NAMES,
    Seq,
    Star,
    Test,
    Top,
    Var,
)

__all__ = [
    "ParseError",
    "parse_formula",
    "parse_program",
    "print_formula",
    "print_program",
    "print_terms",
]

_TOKEN = re.compile(r"\w+|\S")
_ALIASES = {"∪": "u", "⊤": "true", "⊥": "false", "¬": "~"}
# The kind of every token that is not an identifier.
_KINDS = {ch: ch for ch in "&|~;*?()[]<>"}
_KINDS.update({"∪": "lower", "⊤": "lower", "⊥": "lower", "¬": "~"})


class ParseError(ValueError):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _word_kind(token: str) -> str | None:
    """``'lower'`` or ``'upper'`` for an identifier, None for a word that
    does not start with a letter."""
    first = token[0]
    if first.isalpha():
        return "lower" if first.islower() else "upper"
    return None


class _Parser:
    """Recursive descent over the parallel lists ``kinds`` and ``texts``.

    A kind is ``'lower'``, ``'upper'``, a punctuation character, or ``'end'``
    for the sentinel after the last token.  ``closer`` maps the index of each
    ``(`` that a ``)`` closes to the index of that ``)``.
    """

    __slots__ = ("text", "kinds", "texts", "closer", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        texts = _TOKEN.findall(text)
        kinds = [_KINDS.get(token) or _word_kind(token) for token in texts]
        if None in kinds:
            index = kinds.index(None)
            raise self.error(f"unknown token {texts[index][0]!r}", index)
        if not text.isascii():
            texts = [_ALIASES.get(token, token) for token in texts]
        kinds.append("end")
        texts.append("")
        self.kinds, self.texts = kinds, texts
        self.closer = closer = {}
        if "(" in text:
            opened = []
            for index, kind in enumerate(kinds):
                if kind == "(":
                    opened.append(index)
                elif kind == ")" and opened:
                    closer[opened.pop()] = index

    def error(self, message: str, index: int) -> ParseError:
        """``message`` at token ``index``; the sentinel stands at the end of
        the text."""
        text = self.text
        match = next(islice(_TOKEN.finditer(text), index, None), None)
        offset = len(text) if match is None else match.start()
        return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def fail(self, expected: str, index: int | None = None):
        if index is None:
            index = self.pos
        found = self.texts[index] if self.kinds[index] != "end" else "end of input"
        raise self.error(f"expected {expected}, found {found!r}", index)

    def expect(self, kind: str, expected: str) -> None:
        if self.kinds[self.pos] != kind:
            self.fail(expected)
        self.pos += 1

    # formulas

    def formula(self) -> Formula:
        left = self.conj()
        if self.kinds[self.pos] == "|":
            self.pos += 1
            return Or(left, self.formula())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        if self.kinds[self.pos] == "&":
            self.pos += 1
            return And(left, self.conj())
        return left

    def unary(self) -> Formula:
        kind = self.kinds[self.pos]
        if kind == "[":
            self.pos += 1
            prog = self.program()
            self.expect("]", "']'")
            return Box(prog, self.unary())
        if kind == "<":
            self.pos += 1
            prog = self.program()
            self.expect(">", "'>'")
            return Diamond(prog, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "lower":
            self.pos = pos + 1
            name = self.texts[pos]
            if name == "true":
                return Top()
            if name == "false":
                return Bot()
            if name == "u":
                self.fail("a formula ('u' is reserved)", pos)
            return Atom(name)
        if kind == "upper":
            self.pos = pos + 1
            return Var(self.texts[pos])
        if kind == "(":
            self.pos = pos + 1
            term = self.formula()
            self.expect(")", "')'")
            return term
        if kind == "~":
            self.pos = pos + 1
            self.expect("lower", "an atom after '~'")
            name = self.texts[pos + 1]
            if name in RESERVED_NAMES:
                self.fail("an atom after '~'", pos + 1)
            return NegAtom(name)
        self.fail("a formula")

    # programs

    def program(self) -> Program:
        left = self.seq()
        pos = self.pos
        if self.kinds[pos] == "lower" and self.texts[pos] == "u":
            self.pos = pos + 1
            return Choice(left, self.program())
        return left

    def seq(self) -> Program:
        left = self.starred()
        if self.kinds[self.pos] == ";":
            self.pos += 1
            return Seq(left, self.seq())
        return left

    def starred(self) -> Program:
        prog = self.prog_primary()
        if self.kinds[self.pos] == "*":
            return self.stars(prog)
        return prog

    def stars(self, prog: Program) -> Program:
        """``prog`` under the run of stars at ``pos``.  One frame per star, so
        that the recursion limit bounds a run of stars as it bounds every
        other nesting."""
        self.pos += 1
        prog = Star(prog)
        return self.stars(prog) if self.kinds[self.pos] == "*" else prog

    def prog_primary(self) -> Program:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "(":
            close = self.closer.get(pos)
            if close is None:
                self.fail("a matching ')'")
            self.pos = pos + 1
            if self.kinds[close + 1] == "?":
                prog = Test(self.formula())
                self.expect(")", "')'")
                self.pos += 1
            else:
                prog = self.program()
                self.expect(")", "')'")
            return prog
        if kind not in ("lower", "upper", "~"):
            self.fail("a program")
        name = self.texts[pos]
        if kind == "lower" and self.kinds[pos + 1] != "?":
            if name in RESERVED_NAMES:
                self.fail("a program", pos)
            self.pos = pos + 1
            return AtomicProg(name)
        # A test shorthand: a primary, then a '?' looked for before the name is checked.
        if name == "u":
            self.fail("a program ('u' is reserved)", pos)
        if kind == "upper" and self.kinds[pos + 1] != "?":
            self.fail("'?' after a variable test", pos + 1)
        if (kind == "~" and self.kinds[pos + 1] == "lower" and self.kinds[pos + 2] != "?"
                and self.texts[pos + 1] not in RESERVED_NAMES):
            self.fail("'?' after a test shorthand", pos + 2)
        cond = self.primary()
        self.pos += 1  # the '?', seen above
        return Test(cond)


def _parse(text: str, is_program: bool):
    """The formula or program that ``text`` spells."""
    parser = _Parser(text)
    try:
        result = parser.program() if is_program else parser.formula()
    except RecursionError:
        raise parser.error("input nested too deeply", parser.pos) from None
    except ParseError:
        raise
    except ValueError as exc:
        # A name its term class rejects: the last token read.
        raise parser.error(str(exc), parser.pos - 1) from None
    end = parser.pos
    if parser.kinds[end] != "end":
        raise parser.error(f"unexpected trailing input {parser.texts[end]!r}", end)
    return result


def parse_formula(text: str) -> Formula:
    return _parse(text, False)


def parse_program(text: str) -> Program:
    return _parse(text, True)


# How tightly each node binds; a child that binds less tightly than its slot
# is parenthesized there.  '~' is a prefix like a box, and a test's condition
# sits in slot 4, before a postfix '?'.  The other leaves bind tightest.
_BINDS = {Or: 1, Choice: 1, And: 2, Seq: 2, Box: 3, Diamond: 3, NegAtom: 3, Star: 3, Test: 4}


class _Printer:
    """Canonical text, dispatched on ``type(node)``, with one memo of the bare
    text of every composite node printed so far, keyed by ``id(node)``.  The
    parent names the slot each child is printed in, and the child's text is
    parenthesized there when it binds less tightly (``_BINDS``), so a node
    shared by several terms or slots is printed and stored once.

    The memo must not outlive the terms it printed, or a freed node's id could
    be reused: make one printer per call.
    """

    __slots__ = ("memo",)

    def __init__(self):
        self.memo: dict[int, str] = {}

    def formula(self, phi: Formula, slot: int = 1) -> str:
        kind = type(phi)
        if kind is Atom or kind is Var:
            return phi.name
        if kind is NegAtom:
            text = f"~{phi.name}"
            return f"({text})" if _BINDS[kind] < slot else text
        if kind is Top:
            return "true"
        if kind is Bot:
            return "false"
        text = self.memo.get(id(phi))
        if text is None:
            if kind is And:
                text = f"{self.formula(phi.left, 3)} & {self.formula(phi.right, 2)}"
            elif kind is Or:
                text = f"{self.formula(phi.left, 2)} | {self.formula(phi.right)}"
            elif kind is Box:
                text = f"[{self.program(phi.prog)}]{self.formula(phi.body, 3)}"
            elif kind is Diamond:
                text = f"<{self.program(phi.prog)}>{self.formula(phi.body, 3)}"
            else:
                raise TypeError(f"not a formula: {phi!r}")
            self.memo[id(phi)] = text
        return f"({text})" if _BINDS[kind] < slot else text

    def program(self, alpha: Program, slot: int = 1) -> str:
        kind = type(alpha)
        if kind is AtomicProg:
            return alpha.name
        text = self.memo.get(id(alpha))
        if text is None:
            if kind is Test:
                text = f"{self.formula(alpha.cond, 4)}?"
            elif kind is Seq:
                text = f"{self.program(alpha.first, 3)} ; {self.program(alpha.second, 2)}"
            elif kind is Choice:
                text = f"{self.program(alpha.left, 2)} u {self.program(alpha.right)}"
            elif kind is Star:
                text = f"{self.program(alpha.body, 3)}*"
            else:
                raise TypeError(f"not a program: {alpha!r}")
            self.memo[id(alpha)] = text
        return f"({text})" if _BINDS[kind] < slot else text


def print_formula(phi: Formula) -> str:
    """Canonical text; minimal parentheses under the published precedence."""
    return _Printer().formula(phi)


def print_program(alpha: Program) -> str:
    return _Printer().program(alpha)


def print_terms(terms) -> list[str]:
    """Canonical text of each formula or program in ``terms``, in order, with
    every subterm they share printed once."""
    printer = _Printer()
    return [printer.program(t) if isinstance(t, Program) else printer.formula(t) for t in terms]
