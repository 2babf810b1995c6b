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
token, reported by its first character.  The tokens are two parallel lists,
kinds and texts, which the recursive-descent parser reads by index.  Token
offsets are not kept: only when a ``ParseError`` is raised is the text scanned
again for the offset of the offending token, which becomes a line and a
column.  Input nested beyond the interpreter's recursion limit is a
``ParseError`` as well, and so is a name that its term class rejects (``p²``,
``É``), reported at that name.

Parentheses are the exception.  A paren is always a token of its own, so the
k-th paren token is the k-th paren character, and one pass over them pairs
each ``(`` with its ``)`` and keeps the character offsets of both.  The text
between a matched pair, with its sort (formula or program; the formula of a
``(...)?`` test is a formula), keys a memo of parsed terms: a group whose text
was parsed before is that same object, and the parser jumps past its ``)``.
This holds for any input, printed or hand-written: what a group parses to
depends on nothing but the tokens between its parentheses.
The memo lives for one ``parse_formula``/``parse_program`` call, or for one
certificate document (``certify.certificate_from_json``), where it also holds
every whole binding text, so equal subterms of the whole document are one
object.  The pairing also tells a test ``(...)?`` from a program group.

A group the memo already holds is also left out before tokenizing.  When the
memo holds anything, the parens are paired by character offset first, and
each group, outermost first, is looked up in the memo in either sort; the
inside of a group found there is not tokenized, only its two parens are, and
the parser finds the group in the memo and jumps past it.  In a certificate
document that is most of every binding text.  If a group left out is needed
in the sort the memo does not hold (``(a)`` read as a program, then needed as
an atom), or the parse fails in any way, the memo is set back to what it held
before and the text is read again with nothing left out: every error then
names the token, line and column that a full read names.  Text whose
parentheses do not balance cannot parse and is read in full at once.

A group the memo holds is not parsed again, so recursion no longer bounds how
tall a term can grow.  When the parser jumped a held group and the text is
longer than the recursion limit, the height of the term is measured: a term
taller than the limit is ``input nested too deeply`` as well, reported at the
last group jumped.  Every node owns at least one token, and so one character,
of the text, so a shorter text cannot build such a term, however many tokens
were left out.

The printer dispatches on the type of each node.  Within one call it keeps
the text of every composite node it printed, per precedence level, so a
subterm shared by several terms is printed once (``print_terms``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import compress, count, islice
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
_PARENS = frozenset("()")
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


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``text``; one past the last
    token is the end of the input."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    return _line_column(text, len(text) if match is None else match.start())


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _word_kind(token: str) -> str | None:
    """``'lower'`` or ``'upper'`` for an identifier, None for a word that
    does not start with a letter."""
    first = token[0]
    if first.isalpha():
        return "lower" if first.islower() else "upper"
    return None


def _pairs(text: str) -> tuple[list[int], dict[int, int]] | None:
    """The offsets of the parentheses of ``text`` in order, and the offset of
    each '(' mapped to that of its ')'; None if a paren is unmatched."""
    _PAREN.search(text)  # a text that is not a string fails in ``re``, as tokenizing does
    find = text.find
    parens, close_of, opened = [], {}, []
    left, right = find("("), find(")")
    while right >= 0:
        if 0 <= left < right:
            parens.append(left)
            opened.append(left)
            left = find("(", left + 1)
        elif opened:
            parens.append(right)
            close_of[opened.pop()] = right
            right = find(")", right + 1)
        else:
            return None
    return None if opened or left >= 0 else (parens, close_of)


def _tokens(text: str) -> tuple[list[str], dict]:
    """Every token of ``text``, and the groups of the parser (see ``_Parser``)."""
    texts = _TOKEN.findall(text)
    # The k-th paren token is the k-th paren character.
    groups = {}
    opened = []
    for index, offset in zip(compress(count(), map(_PARENS.__contains__, texts)),
                             map(re.Match.start, _PAREN.finditer(text))):
        if texts[index] == "(":
            opened.append((index, offset + 1))
        elif opened:
            start_index, start = opened.pop()
            groups[start_index] = (index, start, offset)
    return texts, groups


def _tokens_around(text: str, memo: dict, parens: list[int], close_of: dict[int, int]):
    """The tokens of ``text`` and its groups as ``_tokens`` gives them, but
    with the inside of every group whose text ``memo`` holds, in either sort,
    left out, and whether one was.  ``parens`` and ``close_of`` are
    ``_pairs(text)``.  Outer groups are looked up first, so nothing inside a
    group left out is looked up.  A paren is a token of its own, so no token
    spans a cut."""
    findall = _TOKEN.findall
    texts, groups, opened = [], {}, []
    skipped = False
    last = index = 0
    while index < len(parens):
        offset = parens[index]
        index += 1
        texts += findall(text, last, offset)
        token = len(texts)
        last = offset + 1
        if text[offset] == ")":
            texts.append(")")
            start_index, start = opened.pop()
            groups[start_index] = (token, start, offset)
            continue
        close = close_of[offset]
        inner = text[last:close]
        if (False, inner) in memo or (True, inner) in memo:
            texts += "()"
            groups[token] = (token + 1, last, close)
            skipped = True
            last = close + 1
            index = bisect_left(parens, close, index) + 1
        else:
            texts.append("(")
            opened.append((token, last))
    texts += findall(text, last)
    return texts, groups, skipped


class _Parser:
    """Recursive descent over the parallel lists ``kinds`` and ``texts``.

    A kind is ``'lower'``, ``'upper'``, a punctuation character, or ``'end'``
    for the sentinel after the last token.  ``groups`` maps the index of each
    matched '(' to the index of its ')' and the character span between them.
    """

    __slots__ = ("text", "kinds", "texts", "pos", "groups", "memo", "hit", "skipped")

    def __init__(self, text: str, memo: dict, skip: bool):
        self.text = text
        self.pos = 0
        self.memo = memo
        self.hit = None  # the offset of the last '(' whose group the memo held
        self.skipped = False
        # An empty memo holds no group to leave out, and text whose parens do
        # not balance cannot parse: both are read in full at once.
        pairs = _pairs(text) if skip and memo else None
        if pairs is None:
            texts, self.groups = _tokens(text)
        else:
            texts, self.groups, self.skipped = _tokens_around(text, memo, *pairs)
        kinds = [_KINDS.get(token) or _word_kind(token) for token in texts]
        if None in kinds:
            if self.skipped:
                _Parser(text, memo, False)  # raises, counting the tokens left out
            index = kinds.index(None)
            raise self.error(f"unknown token {texts[index][0]!r}", index)
        if not text.isascii():
            texts = [_ALIASES.get(token, token) for token in texts]
        kinds.append("end")
        texts.append("")
        self.kinds, self.texts = kinds, texts

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, *_position(self.text, index))

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
            group = self.groups.get(pos)
            key = None if group is None else (False, self.text[group[1]:group[2]])
            inner = self.memo.get(key)
            if inner is None:
                # An unmatched '(' (key None) makes this parse fail by itself,
                # and so does a group left out whose text the memo holds only
                # as a program.
                self.pos = pos + 1
                inner = self.formula()
                self.expect(")", "')'")
                self.memo[key] = inner
            else:
                self.hit = group[1] - 1
                self.pos = group[0] + 1
            return inner
        if kind == "~":
            self.pos = pos + 1
            self.expect("lower", "an atom after '~'")
            name = self.texts[pos + 1]
            if name in ("true", "false", "u"):
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
            if name in ("true", "false", "u"):
                self.fail("a program", pos)
            return AtomicProg(name)
        if kind == "(":
            group = self.groups.get(pos)
            if group is None:
                self.fail("a matching ')'")
            close = group[0]
            # A '?' after the matching ')' makes the group a test's formula.
            is_test = self.kinds[close + 1] == "?"
            key = (not is_test, self.text[group[1]:group[2]])
            inner = self.memo.get(key)
            if inner is None:
                self.pos = pos + 1
                inner = self.formula() if is_test else self.program()
                self.expect(")", "')'")
                self.memo[key] = inner
            else:
                self.hit = group[1] - 1
            if is_test:
                self.pos = close + 2
                return Test(inner)
            self.pos = close + 1
            return inner
        if kind == "~":
            self.pos = pos + 1
            self.expect("lower", "an atom after '~'")
            self.expect("?", "'?' after a test shorthand")
            return Test(NegAtom(self.texts[pos + 1]))
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
    known = len(memo)
    parser = _Parser(text, memo, True)
    while True:
        try:
            result = parser.program() if is_program else parser.formula()
            end = parser.pos
            if parser.kinds[end] == "end":
                break
            error = parser.error(f"unexpected trailing input {parser.texts[end]!r}", end)
        except RecursionError:
            error = parser.error("input nested too deeply", parser.pos)
        except ParseError as exc:
            error = exc
        except ValueError as exc:
            # A name its term class rejects; only '?' tokens follow it.
            index = parser.pos - 1
            while parser.kinds[index] not in ("lower", "upper"):
                index -= 1
            error = parser.error(str(exc), index)
        if not parser.skipped:
            raise error
        # A group left out is needed in the other sort, or the text is wrong.
        # Forget what this read added to the memo and read the text again in
        # full, so that the error is found at the token it always was.
        for added in list(islice(memo, known, None)):
            del memo[added]
        parser = _Parser(text, memo, False)
    # A memoized group is not parsed again, so the recursion limit no longer
    # bounds the height of the term: bound it here as the recursion would.
    # Every node owns a token of the text, so a text no longer than the limit
    # needs no count, however many of its tokens were left out.
    limit = getrecursionlimit()
    if parser.hit is not None and len(text) > limit:
        if _height(result, memo.setdefault(_HEIGHTS, {})) > limit:
            del memo[_HEIGHTS]  # its ids may outlive the rejected term's nodes
            raise ParseError("input nested too deeply", *_line_column(text, parser.hit))
    memo[key] = result
    return result


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
