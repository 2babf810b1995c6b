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

Parens and brackets are marks, each always a token of its own.  A group is
an opener (``(``, ``[`` or ``<``) and the closer of its kind that closes it.
The text between them, with its sort (a bracket group holds a program; the
formula of a ``(...)?`` test is a formula), keys a memo of parsed terms, so
``[a ; b]`` and ``(a ; b)*`` share one ``Seq``: what a group parses to
depends on nothing but that text, printed or hand-written.  The memo lives
for one ``parse_formula``/``parse_program`` call, or for one certificate
document (``certify.certificate_from_json``), where it also holds every whole
binding text.  A term outside every group, such as the ``[b]~p`` of
``[b]~p | q``, is built anew where it occurs.

One reader reads every text.  A parser tokenizes one region, the whole text
or the inside of one group, into two parallel lists, kinds and texts, which
its recursive descent reads by index; every group inside the region is just
its two mark tokens, and its closer is found only then, as the first later
mark that brings the depth back.  At a group the parser looks its text up in
the memo, in the sort the grammar needs there, and takes the term it holds;
on a miss it builds a parser for that group, reads it and stores the term.
So each group is read once and by its own parser, and the inside of a group
the memo holds is never paired or tokenized: in a certificate document that
is most of every binding text.

Every error is the one a read that groups only the parens gives, pairing
them leniently: an unmatched ``(`` or ``)`` stays a plain token, and the read
fails where the grammar meets it.  A text whose marks do not balance is read
that way at once; a read that grouped brackets is read that way again, from
the memo as it was, when it fails, builds a term too tall (below) or meets
groups of different kinds that cross, as in ``([a)]p``.

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
groups the memo held.  The bound is on nodes, not frames: a text that holds a
deep group twice, once deep inside other groups, can read where a read of
every token would run out of frames.

The printer dispatches on the type of each node.  Within one call it keeps
the text of every composite node it printed, per precedence level, so a
subterm shared by several terms is printed once (``print_terms``).
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
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
# Tables that delete from ASCII text all but the marks, and the brackets.
_NOT_MARKS = {code: None for code in range(128) if chr(code) not in "()[]<>"}
_NOT_PARENS = str.maketrans("", "", "[]<>")
_DEPTH = {"(": 1, "[": 1, "<": 1, ")": -1, "]": -1, ">": -1}
_CLOSERS = {"(": ")", "[": "]", "<": ">"}
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
    """What the parsers of one text share: the text, the memo, the pairing
    of its marks and the last group the memo held.

    Marks are numbered from 1 in text order, between a virtual opener 0 at
    offset -1 and a virtual closer at the end of the text, so that the whole
    text is the group of mark 0.  ``marks[i]`` is the offset of mark i and
    ``partner[i]`` the closer of opener i, both filled in as parsers meet
    them (``close``).  ``chars`` holds the marks in order, and ``depths`` the
    depth after each of them; with ``nested`` false, or when they do not
    balance, the parens alone are marks.  The attribute ``nested`` says
    whether brackets are marks.
    """

    __slots__ = ("text", "memo", "marks", "partner", "hit", "chars", "depths", "nested")

    def __init__(self, text: str, memo: dict, nested: bool = True):
        self.text = text
        self.memo = memo
        self.hit = None  # the offset of the last opener whose group the memo held
        if type(text) is not str:
            _TOKEN.findall(text)  # fails as the tokenizer does
        chars = text.translate(_NOT_MARKS)
        if not chars.isascii():
            chars = "".join(filter(_DEPTH.__contains__, chars))
        depths = list(accumulate(map(_DEPTH.__getitem__, chars), initial=0))
        if not nested or depths[-1] or min(depths):
            chars = chars.translate(_NOT_PARENS)
            depths = list(accumulate(map(_DEPTH.__getitem__, chars), initial=0))
        self.chars, self.depths = chars, depths
        self.nested = bool(chars.strip("()"))
        self.marks = marks = [None] * (len(chars) + 2)
        marks[0], marks[-1] = -1, len(text)
        self.partner = partner = marks[:]
        partner[0] = len(marks) - 1

    def close(self, index: int, stop: int) -> int | None:
        """The closer of mark ``index``, which follows a mark whose offset is
        known, in the group that mark ``stop`` closes; None for a plain mark,
        and ``_Crossed`` if the closer is of another kind.  Its offset is
        found by counting the closers of its kind from the opener."""
        chars, depths, text = self.chars, self.depths, self.text
        mark = chars[index - 1]
        offset = self.marks[index] = text.index(mark, self.marks[index - 1] + 1)
        if mark not in _CLOSERS:
            return None
        try:
            close = depths.index(depths[index - 1], index, stop)
        except ValueError:  # a '(' that no ')' closes
            return None
        end = chars[close - 1]
        if end != _CLOSERS[mark]:
            raise _Crossed
        for _ in range(chars.count(end, index, close - 1) + 1):
            offset = text.index(end, offset + 1)
        self.marks[close] = offset
        self.partner[index] = close
        return close


class _Crossed(ValueError):
    """Raised where a group's closer is not of its opener's kind, so that
    the read is done again grouping only the parens."""


class _Parser:
    """Recursive descent over the tokens of one region of a text: the inside
    of the group that opens at mark ``opened`` (0 for the whole text).

    ``kinds`` and ``texts`` are parallel lists.  A kind is ``'lower'``,
    ``'upper'``, a punctuation character, or None for an unknown token; the
    sentinel after the last token is ``'end'`` for the whole text and the
    closing mark for a group.  Every group inside the region is its two mark
    tokens, and ``groups`` maps the index of each opener token to the index
    of its mark.  ``inner`` is the parser of the group being read.
    """

    __slots__ = ("read", "opened", "kinds", "texts", "groups", "pos", "inner")

    def __init__(self, read: _Read, opened: int):
        self.read = read
        self.opened = opened
        self.pos = 0
        self.inner = None
        text, marks = read.text, read.marks
        findall = _TOKEN.findall
        texts, groups = [], {}
        index, stop = opened + 1, read.partner[opened]
        at = marks[opened] + 1
        while index < stop:
            close = read.close(index, stop)
            if close is None:  # a plain mark is a token like any other
                index += 1
                continue
            texts += findall(text, at, marks[index])
            groups[len(texts)] = index
            texts += text[marks[index]], text[marks[close]]
            at = marks[close] + 1
            index = close + 1
        texts += findall(text, at, marks[stop])
        kinds = [_KINDS.get(token) or _word_kind(token) for token in texts]
        if not text.isascii():
            texts = [_ALIASES.get(token, token) for token in texts]
        closer = text[marks[stop]] if opened else ""
        kinds.append(closer or "end")
        texts.append(closer)
        self.kinds, self.texts, self.groups = kinds, texts, groups

    def error(self, message: str, index: int) -> ParseError:
        """``message`` at token ``index``; the sentinel stands at the end of
        the region.  Token offsets are not kept, so the stretch of the region
        after the last group before that token is scanned for it."""
        text, marks, partner = self.read.text, self.read.marks, self.read.partner
        at, first = marks[self.opened] + 1, 0
        for token, mark in self.groups.items():
            if token > index:
                break
            if token == index:
                at, first = marks[mark], token
            else:
                at, first = marks[partner[mark]], token + 1
        end = marks[partner[self.opened]]
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

    def group(self, opened: int, is_program: bool):
        """The program or formula that the group opening at mark ``opened``
        spells: the memo's, or read by a parser of its own and stored."""
        read = self.read
        marks = read.marks
        key = (is_program, read.text[marks[opened] + 1:marks[read.partner[opened]]])
        term = read.memo.get(key)
        if term is None:
            self.inner = reader = _Parser(read, opened)
            term = reader.program() if is_program else reader.formula()
            if reader.pos + 1 != len(reader.kinds):
                reader.fail(repr(reader.texts[-1]))
            self.inner = None
            read.memo[key] = term
        else:
            read.hit = marks[opened]
        return term

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
        # A group is read here, not in ``primary``, to save a frame a level.
        pos = self.pos
        kind = self.kinds[pos]
        opened = self.groups.get(pos)
        if opened is not None:
            term = self.group(opened, kind != "(")
            self.pos = pos + 2
            if kind == "(":
                return term
        elif kind == "[" or kind == "<":  # a bracket in a text whose marks do not nest
            self.pos = pos + 1
            term = self.program()
            self.expect(_CLOSERS[kind], repr(_CLOSERS[kind]))
        else:
            return self.primary()
        return (Box if kind == "[" else Diamond)(term, self.unary())

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
            # An unmatched '(' makes the read fail by itself.
            self.pos = pos + 1
            self.formula()
            self.fail("')'")
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
        pos = self.pos
        opened = self.groups.get(pos)
        if opened is not None and self.kinds[pos] == "(":
            # A '?' after the matching ')' makes the group a test's formula.
            if self.kinds[pos + 2] == "?":
                prog = Test(self.group(opened, False))
                pos += 1
            else:
                prog = self.group(opened, True)
            self.pos = pos + 2
        else:
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
            self.fail("a matching ')'")
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
    group is looked up and stored under the text between its marks, so texts
    parsed through one memo share their subterms."""
    key = (is_program, text)
    found = memo.get(key)
    if found is not None:
        return found
    start = len(memo)
    for nested in (True, False):
        try:
            read = _Read(text, memo, nested)
            parser = _Parser(read, 0)
            result = parser.program() if is_program else parser.formula()
            end = parser.pos
            if parser.kinds[end] != "end":
                raise parser.error(f"unexpected trailing input {parser.texts[end]!r}", end)
            # A memoized group is not parsed again, so the recursion limit no
            # longer bounds the height of the term: bound it here as the
            # recursion would.  Every node owns a token of the text, so a text
            # no longer than the limit needs no count, however many of its
            # groups the memo held.
            limit = getrecursionlimit()
            if read.hit is not None and len(text) > limit:
                if _height(result, memo.setdefault(_HEIGHTS, {})) > limit:
                    raise ParseError("input nested too deeply", *_line_column(text, read.hit))
            memo[key] = result
            return result
        except (RecursionError, ValueError) as exc:
            # Every error is the one a read grouping only the parens gives,
            # so a read that grouped brackets too is done again that way,
            # from the memo as it was before.
            if read.nested:
                for stored in list(islice(memo, start, None)):
                    del memo[stored]
            memo.pop(_HEIGHTS, None)  # its ids may outlive the rejected nodes
            if not read.nested:
                raise _failure(parser, exc) from None


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
