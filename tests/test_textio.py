import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from sys import getrecursionlimit

import hypothesis.strategies as st
import pytest
from conftest import formulas, programs
from hypothesis import given, settings

from pdlfix import textio
from pdlfix.syntax import (
    And,
    Atom,
    AtomicProg,
    Box,
    Choice,
    Diamond,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Top,
    Var,
    children,
    negate,
    subterms,
)
from pdlfix.textio import (
    ParseError,
    _Parser,
    parse_formula,
    parse_program,
    print_formula,
    print_program,
    print_terms,
)


def test_parse_worked_example():
    got = parse_formula("p & [a](q | (r & X))")
    want = And(Atom("p"), Box(AtomicProg("a"), Or(Atom("q"), And(Atom("r"), Var("X")))))
    assert got == want


def test_disjunction_is_right_associative():
    assert parse_formula("p | q | r") == Or(Atom("p"), Or(Atom("q"), Atom("r")))


def test_conjunction_binds_tighter_than_disjunction():
    assert parse_formula("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))


def test_parse_starred_test_chain():
    got = parse_formula("[(true? ; a ; (~q)?)*]p")
    chain = Seq(Test(Top()), Seq(AtomicProg("a"), Test(negate(Atom("q")))))
    assert got == Box(Star(chain), Atom("p"))


def test_parse_program_sequences():
    assert parse_program("a ; b ; c") == Seq(AtomicProg("a"), Seq(AtomicProg("b"), AtomicProg("c")))


def test_star_binds_tighter_than_choice():
    assert parse_program("a u b*") == Choice(AtomicProg("a"), Star(AtomicProg("b")))


def test_parse_parenthesized_test():
    assert parse_program("(p | q)?") == Test(Or(Atom("p"), Atom("q")))


def test_test_shorthands():
    assert parse_program("p?") == Test(Atom("p"))
    assert parse_program("~p?") == Test(negate(Atom("p")))
    assert parse_program("true?") == Test(Top())
    assert parse_program("X?") == Test(Var("X"))


def test_unicode_aliases_accepted_never_emitted():
    assert parse_formula("¬p ∨ q" .replace("∨", "|")) == parse_formula("~p | q")
    assert parse_formula("[a ∪ b]⊤") == parse_formula("[a u b]true")
    assert "u" in print_program(parse_program("a ∪ b"))


def test_canonical_spacing():
    assert print_formula(parse_formula("p&q|r")) == "p & q | r"


def test_print_starred_chain():
    phi = Box(Star(Seq(Test(Top()), Seq(AtomicProg("a"), Test(negate(Atom("q")))))), Atom("p"))
    assert print_formula(phi) == "[(true? ; a ; (~q)?)*]p"


def test_association_needs_parens_only_on_the_left():
    assert print_formula(Or(Or(Atom("p"), Atom("q")), Atom("r"))) == "(p | q) | r"
    assert print_formula(Or(Atom("p"), Or(Atom("q"), Atom("r")))) == "p | q | r"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p &\n& q")
    assert err.value.line == 2
    assert err.value.column == 1
    with pytest.raises(ParseError, match="column 3"):
        parse_formula("p $ q")


def test_unbalanced_brackets_rejected():
    with pytest.raises(ParseError):
        parse_formula("[a(p")
    with pytest.raises(ParseError):
        parse_formula("(p | q")
    with pytest.raises(ParseError):
        parse_program("(a ; b")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("p q")


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError):
        parse_formula("~true")
    with pytest.raises(ParseError):
        parse_program("u ; a")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(formulas)
def test_formula_round_trip(phi):
    assert parse_formula(print_formula(phi)) == phi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(programs)
def test_program_round_trip(alpha):
    assert parse_program(print_program(alpha)) == alpha


@settings(max_examples=150, derandomize=True, deadline=None)
@given(formulas)
def test_printing_is_idempotent(phi):
    text = print_formula(phi)
    assert print_formula(parse_formula(text)) == text


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.text(alphabet="pqXY&|~;*?()[]<>u ", max_size=30))
def test_rejection_always_carries_a_position(junk):
    try:
        parse_formula(junk)
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1
    try:
        parse_program(junk)
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1


# Exact messages and positions, pinned so that the tokenizer and parser can be
# replaced without changing a single error a user sees.
@pytest.mark.parametrize("parse, text, message, line, column", [
    (parse_formula, "p $ q", "unknown token '$'", 1, 3),
    (parse_formula, "p $$ q", "unknown token '$'", 1, 3),
    (parse_formula, "²", "unknown token '²'", 1, 1),
    (parse_formula, "p ²", "unknown token '²'", 1, 3),
    (parse_formula, "p ½", "unknown token '½'", 1, 3),
    (parse_formula, "Ⅻ", "unknown token 'Ⅻ'", 1, 1),
    (parse_formula, "1p", "unknown token '1'", 1, 1),
    (parse_formula, "p 12", "unknown token '1'", 1, 3),
    (parse_formula, "p|٣", "unknown token '٣'", 1, 3),
    (parse_formula, "_p", "unknown token '_'", 1, 1),
    (parse_formula, "p\u0301", "unknown token '\u0301'", 1, 2),  # combining accent
    (parse_formula, "p\n\n  ^", "unknown token '^'", 3, 3),
    (parse_formula, "p &\r\n& q", "expected a formula, found '&'", 2, 1),
    (parse_formula, "p\r\n|\r\n", "expected a formula, found 'end of input'", 3, 1),
    (parse_formula, "p\t&\t$", "unknown token '$'", 1, 5),
    (parse_formula, "p\n\tq", "unexpected trailing input 'q'", 2, 2),
    (parse_formula, "¬p ∪", "unexpected trailing input 'u'", 1, 4),
    (parse_formula, "p ⊤", "unexpected trailing input 'true'", 1, 3),
    (parse_formula, "p ⊥ ¬", "unexpected trailing input 'false'", 1, 3),
    (parse_formula, "~⊤", "expected an atom after '~', found 'true'", 1, 2),
    (parse_formula, "~true", "expected an atom after '~', found 'true'", 1, 2),
    (parse_program, "~X?", "expected an atom after '~', found 'X'", 1, 2),
    (parse_program, "~true?", "expected an atom after '~', found 'true'", 1, 2),
    (parse_program, "~u?", "expected an atom after '~', found 'u'", 1, 2),
    (parse_formula, "[~false?]p", "expected an atom after '~', found 'false'", 1, 3),
    (parse_program, "u ; a", "expected a program, found 'u'", 1, 1),
    (parse_program, "u?", "expected a program ('u' is reserved), found 'u'", 1, 1),
    (parse_program, "true", "expected a program, found 'true'", 1, 1),
    (parse_formula, "u", "expected a formula ('u' is reserved), found 'u'", 1, 1),
    (parse_formula, "p q", "unexpected trailing input 'q'", 1, 3),
    (parse_formula, "p ) q", "unexpected trailing input ')'", 1, 3),
    (parse_formula, "(p)?", "unexpected trailing input '?'", 1, 4),
    (parse_formula, "", "expected a formula, found 'end of input'", 1, 1),
    (parse_formula, "   ", "expected a formula, found 'end of input'", 1, 4),
    (parse_formula, "p & &", "expected a formula, found '&'", 1, 5),
    (parse_formula, "[a", "expected ']', found 'end of input'", 1, 3),
    (parse_formula, "<a]p", "expected '>', found ']'", 1, 3),
    (parse_formula, "(p | q", "expected ')', found 'end of input'", 1, 7),
    (parse_program, "(p | q)", "expected ')', found '|'", 1, 4),
    (parse_program, "(a", "expected a matching ')', found '('", 1, 1),
    (parse_program, "a ; (b", "expected a matching ')', found '('", 1, 5),
    (parse_program, "~p", "expected '?' after a test shorthand, found 'end of input'", 1, 3),
    (parse_program, "X", "expected '?' after a variable test, found 'end of input'", 1, 2),
    # An unknown token anywhere wins over a syntax error met before it, and
    # an error inside a group is placed in the whole text.
    (parse_formula, "(p & &) | (q $)", "unknown token '$'", 1, 14),
    (parse_program, "(a ; (b u)) ; (c $)", "unknown token '$'", 1, 18),
    (parse_formula, "p &\n  ((q |\n   ~u))", "expected an atom after '~', found 'u'", 3, 5),
    (parse_formula, "[(¬p)?](q\n & (r ⊤))", "expected ')', found 'true'", 2, 7),
])
def test_parse_error_message_and_position(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("text, message, column", [
    ("p²", "atom name must be a lowercase identifier (not a keyword): 'p²'", 1),
    ("p & q²", "atom name must be a lowercase identifier (not a keyword): 'q²'", 5),
    ("pⅫ", "atom name must be a lowercase identifier (not a keyword): 'pⅫ'", 1),
    ("é", "atom name must be a lowercase identifier (not a keyword): 'é'", 1),
    ("~é", "atom name must be a lowercase identifier (not a keyword): 'é'", 2),
    ("É", "variable name must be an uppercase identifier: 'É'", 1),
    ("Xé", "variable name must be an uppercase identifier: 'Xé'", 1),
    ("中", "variable name must be an uppercase identifier: '中'", 1),
    ("[q²?]p", "atom name must be a lowercase identifier (not a keyword): 'q²'", 2),
    ("[~q²?]p", "atom name must be a lowercase identifier (not a keyword): 'q²'", 3),
    ("[Xé?]p", "variable name must be an uppercase identifier: 'Xé'", 2),
    ("[a ; bé]p", "atomic program name must be a lowercase identifier (not a keyword): 'bé'", 6),
    # The same, inside groups.
    ("(p & (q | r²))", "atom name must be a lowercase identifier (not a keyword): 'r²'", 11),
    ("[(a ; bé)*]p", "atomic program name must be a lowercase identifier (not a keyword): 'bé'", 7),
    ("<((p | é))?>q", "atom name must be a lowercase identifier (not a keyword): 'é'", 8),
    ("[(a u (Xé?))*]p", "variable name must be an uppercase identifier: 'Xé'", 8),
    ("(p & (~é))", "atom name must be a lowercase identifier (not a keyword): 'é'", 8),
])
def test_names_outside_the_ascii_grammar_fail_the_name_check(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert (err.value.line, err.value.column) == (1, column)


def test_aliases_underscores_and_whitespace_parse():
    assert parse_formula("¬p") == negate(Atom("p"))
    assert parse_program("a ∪ b") == Choice(AtomicProg("a"), AtomicProg("b"))
    assert parse_formula("⊤") == Top()
    assert parse_formula("[⊥?]⊤") == Box(Test(negate(Top())), Top())
    assert parse_formula("p_1 & q_ | Y_2") == Or(And(Atom("p_1"), Atom("q_")), Var("Y_2"))
    assert parse_formula("p\r\n&\tq") == And(Atom("p"), Atom("q"))
    assert parse_formula("p\xa0& q\n") == And(Atom("p"), Atom("q"))


def test_one_group_text_keeps_its_sort_in_each_position():
    # The text between the parentheses is "p" each time: a formula, a test's
    # formula and a program.
    phi = parse_formula("(p) & [(p)?][(p)](p)")
    first, box = phi.left, phi.right
    test, inner = box.prog, box.body
    assert type(first) is Atom and first == Atom("p")
    assert type(test) is Test and test.cond == first
    assert type(inner.prog) is AtomicProg and inner.prog == AtomicProg("p")
    assert inner.body == first
    assert parse_program("(p)? ; (p)") == Seq(Test(Atom("p")), AtomicProg("p"))


@pytest.mark.parametrize("text, canonical", [
    ("( p&q )|(p & q)|((p & q))", "p & q | p & q | p & q"),
    ("[(a;b)*]((p&q)) & [( a ; b )*](p & q)", "[(a ; b)*](p & q) & [(a ; b)*](p & q)"),
    ("[((a ∪ b))*](¬p | ⊤) | [(a u b)*](~p | true)", "[(a u b)*](~p | true) | [(a u b)*](~p | true)"),
    ("<(((p & q))?)>(p&q) | <(p & q)?>(p & q)", "<(p & q)?>(p & q) | <(p & q)?>(p & q)"),
    ("[(⊥)?](\n(p)\n)", "[false?]p"),
])
def test_spelling_of_a_group_does_not_change_its_term(text, canonical):
    term = parse_formula(text)
    assert term == parse_formula(canonical)
    assert print_formula(term) == canonical


def test_a_group_reads_as_one_term_in_every_text_that_spells_it():
    # What a group reads as depends on nothing but its text and its sort:
    # "(a ; b)" holds one program, and "(p & q)" one formula after a box, a
    # diamond or a disjunction.
    seq, conj = parse_program("a ; b"), parse_formula("p & q")
    phi = parse_formula("<(a ; b)>(p & q) | (p & q)")
    assert phi.left.prog == seq and phi.left.body == conj and phi.right == conj
    assert parse_formula("[(a ; b)*](p & q)") == Box(Star(seq), conj)


def test_a_bracket_group_reads_as_its_paren_group_in_one_parser(monkeypatch):
    # The text between brackets reads as the parenthesized program does:
    # "[a ; b]" and "(a ; b)*" hold one Seq.  The whole text is read by one
    # parser; no group builds a parser of its own.
    seq, conj = parse_program("a ; b"), parse_formula("p & q")
    built = []
    build = _Parser.__init__

    def counted(self, text):
        built.append(text)
        build(self, text)

    monkeypatch.setattr(_Parser, "__init__", counted)
    first = parse_formula("[a ; b]p & <(p & q)?>q")
    second = parse_formula("[a ; b]q | <(p & q)?>p")
    assert built == ["[a ; b]p & <(p & q)?>q", "[a ; b]q | <(p & q)?>p"]
    monkeypatch.undo()
    assert first.left.prog == seq and first.right.prog == Test(conj)
    assert type(second.right) is Diamond
    assert second.left.prog == first.left.prog and second.right.prog == first.right.prog
    assert parse_formula("[(a ; b)*]p").prog == Star(seq)


# Every program-position shorthand error, pinned: the shorthands are read
# through the formula parser, and the pinned digest rarely draws these.
@pytest.mark.parametrize("text, expected", [
    ("[u?]p", "expected a program ('u' is reserved), found 'u' (line 1, column 2)"),
    ("[~u?]p", "expected an atom after '~', found 'u' (line 1, column 3)"),
    ("[~p]q", "expected '?' after a test shorthand, found ']' (line 1, column 4)"),
    ("[~true?]p", "expected an atom after '~', found 'true' (line 1, column 3)"),
    ("[X]p", "expected '?' after a variable test, found ']' (line 1, column 3)"),
    ("[É]p", "expected '?' after a variable test, found ']' (line 1, column 3)"),
    ("[É?]p", "variable name must be an uppercase identifier: 'É' (line 1, column 2)"),
    ("[true]p", "expected a program, found 'true' (line 1, column 2)"),
    ("[u]p", "expected a program, found 'u' (line 1, column 2)"),
    ("[(p)]q", "[p]q"),  # a program group, not a test
    ("[p?", "expected ']', found 'end of input' (line 1, column 4)"),
    ("<X>q", "expected '?' after a variable test, found '>' (line 1, column 3)"),
    # A missing '?' is found before a name the atom class rejects.
    ("[~é]p", "expected '?' after a test shorthand, found ']' (line 1, column 4)"),
    ("[~é?]p", "atom name must be a lowercase identifier (not a keyword): 'é' (line 1, column 3)"),
    ("[~true]p", "expected an atom after '~', found 'true' (line 1, column 3)"),
])
def test_program_position_shorthands_fail_where_they_did(text, expected):
    try:
        got = print_formula(parse_formula(text))
    except ParseError as err:
        got = str(err)
        assert f"(line {err.line}, column {err.column})" in got
    assert got == expected


def test_a_node_in_many_slots_is_printed_and_stored_once(monkeypatch):
    # One And, Or, Seq and Choice node each sit at the top level, on either
    # side of every binary operator, in a box body, a star body and a test.
    p, q, a, b = Atom("p"), Atom("q"), AtomicProg("a"), AtomicProg("b")
    shared, terms = [And(p, q), Or(p, q), Seq(a, b), Choice(a, b)], []
    for phi in shared[:2]:
        terms += [phi, Box(a, phi), Box(Test(phi), q), Box(Star(Test(phi)), q)]
        terms += [op(phi, q) for op in (And, Or)] + [op(q, phi) for op in (And, Or)]
    for alpha in shared[2:]:
        terms += [alpha, Star(alpha), Box(alpha, p), Box(Star(alpha), p)]
        terms += [op(alpha, b) for op in (Seq, Choice)] + [op(b, alpha) for op in (Seq, Choice)]
    printers = []
    build = textio._Printer.__init__

    def kept(self):
        printers.append(self)
        build(self)

    monkeypatch.setattr(textio._Printer, "__init__", kept)
    texts = print_terms(terms)
    monkeypatch.undo()
    fresh = [print_program(t) if isinstance(t, Program) else print_formula(t) for t in terms]
    assert texts == fresh
    composite = {id(node) for term in terms for node in subterms(term) if children(node)}
    assert len(printers) == 1
    printer = printers[0]
    memo = printer.memo
    assert len(memo) == len(composite) and memo.keys() == composite
    # A node printed again is looked up, not rebuilt: its text is the stored string.
    stored = [memo[id(node)] for node in shared]
    again = [printer.formula(node) for node in shared[:2]] + [printer.program(node) for node in shared[2:]]
    assert all(text is twice for text, twice in zip(stored, again))


_PIECES = ("(", ")", "[", "]", "<", ">", "p", "q", "a", "b", ";", "u", "&", "|", "~", "?", "*",
           "X", "true", "false", " ")


def test_seeded_parses_are_pinned():
    # A differential digest of the reader, to keep when it is replaced: for
    # 30,000 seeded texts of 1-14 pieces, the formula and the program each
    # reads as, printed, or the type, message, line and column of its error.
    # About 4% of the parses succeed; most errors come from brackets that do
    # not nest, some from brackets of different kinds that close each other.
    rng = random.Random(20)
    lines = []
    for _ in range(30000):
        text = "".join(rng.choices(_PIECES, k=rng.randint(1, 14)))
        lines.append(text)
        for parse, show in ((parse_formula, print_formula), (parse_program, print_program)):
            try:
                lines.append(show(parse(text)))
            except ParseError as err:
                lines.append(f"{type(err).__name__} {err} {err.line} {err.column}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "00c3d2a6ff082a327643d25c6c296e0803357cc9c93cd5f0e3a27d4bf933f4b3"


def nested(levels):
    return "[a](p | " * levels + "X" + ")" * levels


def test_150_levels_of_nesting_still_parse():
    for text in (nested(150), "[a" + "*" * 150 + "]X"):
        assert print_formula(parse_formula(text)) == text


def test_memoized_groups_cannot_stack_past_the_recursion_limit():
    # Each group holds the one before it under 300 boxes.  Two of them read;
    # four are taller than the recursion limit lets a read go.
    group, groups = "X", []
    for _ in range(4):
        group = "(" + "[a]" * 300 + group + ")"
        groups.append(group)
    two = parse_formula(" & ".join(groups[:2]))
    inner = two.right
    for _ in range(300):
        inner = inner.body
    assert inner == two.left
    with pytest.raises(ParseError, match=r"^input nested too deeply \(line 1, column \d+\)$"):
        parse_formula(" & ".join(groups))


def test_a_text_near_the_limit_fails_as_a_read_of_every_token_does():
    # The second box repeats the first.  A reader that took a repeated group
    # whole, without reading it again, parsed this text; a read of every token
    # runs out of frames in the second run of stars.  Where it gives up
    # depends on the frames below the call, so the text is read at the top
    # level of a fresh interpreter.
    text = "[a" + "*" * 800 + "]p & " + "(" * 60 + "[a" + "*" * 800 + "]p" + ")" * 60
    code = ("from pdlfix.textio import parse_formula\n"
            f"try:\n    parse_formula({text!r})\nexcept ValueError as err:\n    print(err)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert run.stdout == "input nested too deeply (line 1, column 1618)\n", run.stderr


@pytest.mark.parametrize("parse", [parse_formula, parse_program])
def test_nesting_past_the_recursion_limit_is_a_parse_error(parse):
    texts = ([nested(400), "[a" + "*" * 3000 + "]X"] if parse is parse_formula
             else ["(" * 2000 + "a" + ")" * 2000, "a" + "*" * 3000])
    for text in texts:
        with pytest.raises(ParseError, match=r"^input nested too deeply \(line 1, column \d+\)$") as err:
            parse(text)
        assert err.value.line == 1 and 1 <= err.value.column <= len(text)


def test_nesting_past_the_limit_is_reported_where_the_innermost_group_stopped():
    # Each level costs a few frames, so the read gives up at least a tenth of
    # the limit deep, far inside the text, and the error is placed there.
    levels = getrecursionlimit() // 10
    for parse, text, width in ((parse_formula, nested(400), len("[a](p | ")),
                               (parse_program, "(" * 2000 + "a" + ")" * 2000, 1)):
        with pytest.raises(ParseError, match="^input nested too deeply") as err:
            parse(text)
        assert err.value.column > levels * width
