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
    test     ::= lower-ident '?' | '~' lower-ident '?' | 'true?' | 'false?'
               | '(' formula ')?'

Lowercase identifiers are atoms or atomic programs depending on position,
uppercase identifiers are variables.  ``u``, ``true`` and ``false`` are
reserved.  Unicode aliases (``∪`` ``⊤`` ``⊥`` ``¬``) are accepted on input and
never emitted.  Printing produces canonical ASCII with minimal parentheses;
``parse(print(t)) == t`` holds for every term.

One compiled regular expression splits text into tokens: a run of word
characters (those ``str.isalnum`` accepts, and ``_``) or any other single
non-space character.  An identifier starts with a letter (``str.isalpha``), so
a word led by a digit, ``_`` or a numeric sign such as ``²`` is an unknown
token, reported by its first character.  Input nested beyond the interpreter's
recursion limit is a ``ParseError`` as well, and so is a name that its term
class rejects (``p²``, ``É``), reported at that name.

A paren is always a token of its own.  One pass over the parens of a text
pairs each ``(`` with its ``)``, leniently: an unmatched ``(`` or ``)`` stays a
plain token, and the read fails where the grammar meets it.  The text between
a matched pair, with its sort (formula or program; the formula of a
``(...)?`` test is a formula), keys a memo of parsed terms.  This holds for any
input, printed or hand-written: what a group parses to depends on nothing but
the text between its parentheses.  The memo lives for one
``parse_formula``/``parse_program`` call, or for one certificate document
(``certify.certificate_from_json``), where it also holds every whole binding
text, so equal subterms of the whole document are one object.

One reader reads every text.  A parser tokenizes one region, the whole text
or the inside of one group, into two parallel lists, kinds and texts, which
its recursive descent reads by index; every matched group inside the region
is just its two paren tokens.  At a group the parser looks the group's text
up in the memo, in the sort the grammar needs there, and takes the term it
holds; on a miss it builds a parser for that group, reads it and stores the
term.  So each group is read once and by its own parser, and the inside of a
group the memo holds is never tokenized: in a certificate document that is
most of every binding text.

Token offsets are not kept.  When a read fails, the text is scanned once for
its first unknown token, which is the error if there is one, as it is for a
read that tokenizes every token first.  Otherwise the error is where the read
stopped, in the innermost group being read; only then is that group's text
scanned again for the offset of the offending token, which becomes a line and
a column.

A group the memo holds is not parsed again, so recursion no longer bounds how
tall a term can grow.  When the parser took a held group and the text is
longer than the recursion limit, the height of the term is measured: a term
taller than the limit is ``input nested too deeply`` as well, reported at the
last group taken.  Every node owns at least one token, and so one character,
of the text, so a shorter text cannot build such a term, however many of its
groups the memo held.

The printer dispatches on the type of each node.  Within one call it keeps
the text of every composite node it printed, per precedence level, so a
subterm shared by several terms is printed once (``print_terms``).
"""

from __future__ import annotations

import re
from itertools import islice
from sys import getrecursionlimit

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
    children,
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
_PAREN = re.compile(r"[()]")
# The memo entry that holds term heights, by node id (see ``_height``).
_HEIGHTS = ("heights",)
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


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _word_kind(token: str) -> str | None:
    """``'lower'`` or ``'upper'`` for an identifier, None for a word that
    does not start with a letter."""
    first = token[0]
    if first.isalpha():
        return "lower" if first.islower() else "upper"
    return None


class _Read:
    """What the parsers of one text share: the text, the memo, the paren
    pairing and the last group the memo held.

    ``parens`` lists the offset of every paren in order, between a virtual
    '(' at -1 and a virtual ')' at the end of the text, so that the whole
    text is the group of paren 0.  ``partner[i]`` is the index of the ')'
    that closes the '(' at index i, and None for every other paren.
    """

    __slots__ = ("text", "memo", "parens", "partner", "hit")

    def __init__(self, text: str, memo: dict):
        self.text = text
        self.memo = memo
        self.hit = None  # the offset of the last '(' whose group the memo held
        parens = [-1]
        parens += map(re.Match.start, _PAREN.finditer(text))
        parens.append(len(text))
        partner = [None] * len(parens)
        partner[0] = len(parens) - 1
        opened = []
        for index in range(1, len(parens) - 1):
            if text[parens[index]] == "(":
                opened.append(index)
            elif opened:
                partner[opened.pop()] = index
        self.parens, self.partner = parens, partner


class _Parser:
    """Recursive descent over the tokens of one region of a text: the inside
    of the group that opens at paren ``opened`` (0 for the whole text).

    ``kinds`` and ``texts`` are parallel lists.  A kind is ``'lower'``,
    ``'upper'``, a punctuation character, or None for an unknown token; the
    sentinel after the last token is ``'end'`` for the whole text and ``')'``
    for a group.  Every matched group inside the region is its two paren
    tokens, and ``groups`` maps the index of each such '(' token to the
    index of its paren.  ``inner`` is the parser of the group being read.
    """

    __slots__ = ("read", "opened", "kinds", "texts", "groups", "pos", "inner")

    def __init__(self, read: _Read, opened: int):
        self.read = read
        self.opened = opened
        self.pos = 0
        self.inner = None
        text, parens, partner = read.text, read.parens, read.partner
        findall = _TOKEN.findall
        texts, groups = [], {}
        index, stop = opened + 1, partner[opened]
        at = parens[opened] + 1
        while index < stop:
            close = partner[index]
            if close is None:  # an unmatched paren is a token like any other
                index += 1
                continue
            texts += findall(text, at, parens[index])
            groups[len(texts)] = index
            texts += "()"
            at = parens[close] + 1
            index = close + 1
        texts += findall(text, at, parens[stop])
        kinds = [_KINDS.get(token) or _word_kind(token) for token in texts]
        if not text.isascii():
            texts = [_ALIASES.get(token, token) for token in texts]
        kinds.append(")" if opened else "end")
        texts.append(")" if opened else "")
        self.kinds, self.texts, self.groups = kinds, texts, groups

    def error(self, message: str, index: int) -> ParseError:
        """``message`` at token ``index``; the sentinel stands at the end of
        the region.  Token offsets are not kept, so the stretch of the region
        after the last group before that token is scanned for it."""
        text, parens, partner = self.read.text, self.read.parens, self.read.partner
        at, first = parens[self.opened] + 1, 0
        for token, paren in self.groups.items():
            if token > index:
                break
            if token == index:
                at, first = parens[paren], token
            else:
                at, first = parens[partner[paren]], token + 1
        end = parens[partner[self.opened]]
        match = next(islice(_TOKEN.finditer(text, at, end), index - first, None), None)
        return ParseError(message, *_line_column(text, end if match is None else match.start()))

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
            opened = self.groups.get(pos)
            if opened is None:
                # An unmatched '(' makes the read fail by itself.
                self.pos = pos + 1
                self.formula()
                self.fail("')'")
            read = self.read
            parens = read.parens
            key = (False, read.text[parens[opened] + 1:parens[read.partner[opened]]])
            inner = read.memo.get(key)
            if inner is None:
                self.inner = reader = _Parser(read, opened)
                inner = reader.formula()
                if reader.pos + 1 != len(reader.kinds):
                    reader.fail("')'")
                self.inner = None
                read.memo[key] = inner
            else:
                read.hit = parens[opened]
            self.pos = pos + 2
            return inner
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
        if kind == "lower":
            self.pos = pos + 1
            name = self.texts[pos]
            if self.kinds[pos + 1] == "?":
                self.pos = pos + 2
                if name == "true":
                    return Test(Top())
                if name == "false":
                    return Test(Bot())
                if name == "u":
                    self.fail("a program ('u' is reserved)", pos)
                return Test(Atom(name))
            if name in RESERVED_NAMES:
                self.fail("a program", pos)
            return AtomicProg(name)
        if kind == "(":
            opened = self.groups.get(pos)
            if opened is None:
                self.fail("a matching ')'")
            # A '?' after the matching ')' makes the group a test's formula.
            is_test = self.kinds[pos + 2] == "?"
            read = self.read
            parens = read.parens
            key = (not is_test, read.text[parens[opened] + 1:parens[read.partner[opened]]])
            inner = read.memo.get(key)
            if inner is None:
                self.inner = reader = _Parser(read, opened)
                inner = reader.formula() if is_test else reader.program()
                if reader.pos + 1 != len(reader.kinds):
                    reader.fail("')'")
                self.inner = None
                read.memo[key] = inner
            else:
                read.hit = parens[opened]
            if is_test:
                self.pos = pos + 3
                return Test(inner)
            self.pos = pos + 2
            return inner
        if kind == "~":
            self.pos = pos + 1
            self.expect("lower", "an atom after '~'")
            name = self.texts[pos + 1]
            if name in RESERVED_NAMES:
                self.fail("an atom after '~'", pos + 1)
            self.expect("?", "'?' after a test shorthand")
            return Test(NegAtom(name))
        if kind == "upper":
            self.pos = pos + 1
            self.expect("?", "'?' after a variable test")
            return Test(Var(self.texts[pos]))
        self.fail("a program")


def _parse(text: str, is_program: bool, memo: dict):
    """The formula or program that ``text`` spells, through ``memo``: a dict
    from ``(is_program, text)`` to the term parsed from that text.  Every
    parenthesized group is looked up and stored under the text between its
    parentheses, so texts parsed through one memo share their subterms."""
    key = (is_program, text)
    found = memo.get(key)
    if found is not None:
        return found
    read = _Read(text, memo)
    parser = _Parser(read, 0)
    try:
        result = parser.program() if is_program else parser.formula()
        end = parser.pos
        if parser.kinds[end] != "end":
            raise parser.error(f"unexpected trailing input {parser.texts[end]!r}", end)
    except (RecursionError, ValueError) as exc:
        raise _failure(parser, exc) from None
    # A memoized group is not parsed again, so the recursion limit no longer
    # bounds the height of the term: bound it here as the recursion would.
    # Every node owns a token of the text, so a text no longer than the limit
    # needs no count, however many of its groups the memo held.
    limit = getrecursionlimit()
    if read.hit is not None and len(text) > limit:
        if _height(result, memo.setdefault(_HEIGHTS, {})) > limit:
            del memo[_HEIGHTS]  # its ids may outlive the rejected term's nodes
            raise ParseError("input nested too deeply", *_line_column(text, read.hit))
    memo[key] = result
    return result


def _failure(parser: _Parser, exc: Exception) -> ParseError:
    """The error of a read that ``parser``, reading the whole text, gave up
    with ``exc``: the first unknown token anywhere in the text, or else the
    error where the read stopped, in the innermost group being read."""
    text = parser.read.text
    for match in _TOKEN.finditer(text):
        token = match.group()
        if not (_KINDS.get(token) or _word_kind(token)):
            return ParseError(f"unknown token {token[0]!r}", *_line_column(text, match.start()))
    if type(exc) is ParseError:
        return exc
    while parser.inner is not None:
        parser = parser.inner
    if type(exc) is RecursionError:
        return parser.error("input nested too deeply", parser.pos)
    # A name its term class rejects; only '?' tokens follow it.
    index = parser.pos - 1
    while parser.kinds[index] not in ("lower", "upper"):
        index -= 1
    return parser.error(str(exc), index)


def _height(term, heights: dict) -> int:
    """Nodes on the longest path down ``term``.  ``heights`` maps the id of
    each node measured through one memo to its height; the memo keeps those
    nodes alive."""
    known = heights.get
    stack = [term]
    while stack:
        node = stack[-1]
        tallest = 0  # -1 once a child waits on the stack
        for kid in children(node):
            height = known(id(kid))
            if height is None:
                stack.append(kid)
                tallest = -1
            elif height > tallest >= 0:
                tallest = height
        if tallest >= 0:
            heights[id(node)] = tallest + 1
            stack.pop()
    return heights[id(term)]


def parse_formula(text: str) -> Formula:
    return _parse(text, False, {})


def parse_program(text: str) -> Program:
    return _parse(text, True, {})


# Precedence levels used by the printer.  Higher binds tighter.
_F_OR, _F_AND, _F_UNARY = 1, 2, 3
_P_CHOICE, _P_SEQ, _P_STAR, _P_PRIM = 1, 2, 3, 4


class _Printer:
    """Canonical text, dispatched on ``type(node)``, with one memo of the
    composite nodes printed so far, keyed by ``(id(node), level)``.

    The memo must not outlive the terms it printed, or a freed node's id could
    be reused: make one printer per call.
    """

    __slots__ = ("memo",)

    def __init__(self):
        self.memo: dict[tuple[int, int], str] = {}

    def formula(self, phi: Formula, level: int = _F_OR) -> str:
        kind = type(phi)
        if kind is Atom or kind is Var:
            return phi.name
        if kind is NegAtom:
            return f"~{phi.name}"
        if kind is Top:
            return "true"
        if kind is Bot:
            return "false"
        key = (id(phi), level)
        text = self.memo.get(key)
        if text is not None:
            return text
        if kind is And:
            text = f"{self.formula(phi.left, _F_AND + 1)} & {self.formula(phi.right, _F_AND)}"
            if level > _F_AND:
                text = f"({text})"
        elif kind is Or:
            text = f"{self.formula(phi.left, _F_OR + 1)} | {self.formula(phi.right, _F_OR)}"
            if level > _F_OR:
                text = f"({text})"
        elif kind is Box:
            text = f"[{self.program(phi.prog)}]{self.formula(phi.body, _F_UNARY)}"
        elif kind is Diamond:
            text = f"<{self.program(phi.prog)}>{self.formula(phi.body, _F_UNARY)}"
        else:
            raise TypeError(f"not a formula: {phi!r}")
        self.memo[key] = text
        return text

    def program(self, alpha: Program, level: int = _P_CHOICE) -> str:
        kind = type(alpha)
        if kind is AtomicProg:
            return alpha.name
        key = (id(alpha), level)
        text = self.memo.get(key)
        if text is not None:
            return text
        if kind is Test:
            text = self.test(alpha.cond)
        elif kind is Seq:
            text = f"{self.program(alpha.first, _P_SEQ + 1)} ; {self.program(alpha.second, _P_SEQ)}"
            if level > _P_SEQ:
                text = f"({text})"
        elif kind is Choice:
            text = f"{self.program(alpha.left, _P_CHOICE + 1)} u {self.program(alpha.right, _P_CHOICE)}"
            if level > _P_CHOICE:
                text = f"({text})"
        elif kind is Star:
            text = f"{self.program(alpha.body, _P_STAR)}*"
        else:
            raise TypeError(f"not a program: {alpha!r}")
        self.memo[key] = text
        return text

    def test(self, cond: Formula) -> str:
        kind = type(cond)
        if kind is Atom or kind is Var:
            return f"{cond.name}?"
        if kind is NegAtom:
            return f"(~{cond.name})?"
        if kind is Top:
            return "true?"
        if kind is Bot:
            return "false?"
        return f"({self.formula(cond, _F_OR)})?"


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
