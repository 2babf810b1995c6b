import _sha3
import copy
import functools
import hashlib
import itertools
import json
import os
import pickle
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import variable_free_formulas
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlfix import semantics
from pdlfix.generators import TermGen, derive_seed, random_decomposition
from pdlfix.hierarchy import to_nested_form
from pdlfix.semantics import (
    _BLOCK_DRAWS,
    EquationReport,
    KripkeModel,
    ModelGenParams,
    check_solution_on,
    equivalent_on,
    model_from_json,
    model_to_json,
    random_model,
    relation,
    satisfies,
)
from pdlfix.syntax import (
    And,
    Atom,
    AtomicProg,
    Bot,
    Box,
    Choice,
    Diamond,
    NegAtom,
    Or,
    Seq,
    Star,
    Test,
    Top,
    Var,
    negate,
    substitute,
)
from pdlfix.synthesis import solve_pi, solve_sigma
from pdlfix.textio import parse_formula, parse_program, print_formula

SRC = Path(__file__).resolve().parent.parent / "src"


def two_world_chain():
    return KripkeModel(
        worlds=("w0", "w1"),
        relations={"a": frozenset({("w0", "w1")})},
        valuation={"p": frozenset({"w1"})},
    )


def one_world(**extensions):
    return KripkeModel(
        worlds=("w0",),
        relations={},
        valuation={k: frozenset({"w0"}) for k, v in extensions.items() if v},
    )


def test_model_validation():
    with pytest.raises(ValueError, match="at least one world"):
        KripkeModel(worlds=(), relations={}, valuation={})
    with pytest.raises(ValueError, match="unknown world"):
        KripkeModel(worlds=("w0",), relations={"a": frozenset({("w0", "w9")})}, valuation={})
    with pytest.raises(ValueError, match="unknown world"):
        KripkeModel(worlds=("w0",), relations={}, valuation={"p": frozenset({"w9"})})


def test_test_relation_is_partial_identity():
    m = KripkeModel(worlds=("w0", "w1"), relations={}, valuation={"p": frozenset({"w0"})})
    assert relation(m, parse_program("p?")) == {("w0", "w0")}


def test_star_relation_is_reflexive():
    m = two_world_chain()
    rel = relation(m, parse_program("a*"))
    assert {("w0", "w0"), ("w1", "w1")} <= rel


def test_composition_of_a_single_edge_is_empty():
    m = two_world_chain()
    assert relation(m, parse_program("a ; a")) == frozenset()


def test_choice_is_union():
    m = KripkeModel(
        worlds=("w0", "w1"),
        relations={"a": frozenset({("w0", "w1")}), "b": frozenset({("w1", "w0")})},
        valuation={},
    )
    assert relation(m, parse_program("a u b")) == {("w0", "w1"), ("w1", "w0")}


def test_absent_program_is_empty_relation():
    m = two_world_chain()
    assert relation(m, parse_program("zzz")) == frozenset()
    assert satisfies(m, "w0", parse_formula("[zzz]false"))


def test_vacuous_box():
    m = KripkeModel(worlds=("w0",), relations={}, valuation={})
    assert satisfies(m, "w0", parse_formula("[a]false"))


def test_reachability_through_star():
    m = two_world_chain()
    assert satisfies(m, "w0", parse_formula("<a*>p"))
    assert not satisfies(m, "w0", parse_formula("p"))


def test_variables_read_from_the_valuation():
    m = KripkeModel(worlds=("w0",), relations={}, valuation={"X": frozenset({"w0"})})
    assert satisfies(m, "w0", Var("X"))
    assert satisfies(m, "w0", negate(Var("X")))  # negation fixes variables


def test_unknown_world_rejected():
    m = two_world_chain()
    with pytest.raises(ValueError, match="unknown world"):
        satisfies(m, "nope", Top())


def test_negated_atom_semantics():
    m = two_world_chain()
    for w in m.worlds:
        assert satisfies(m, w, parse_formula("~p")) == (not satisfies(m, w, parse_formula("p")))


def test_equivalent_on_self():
    m = two_world_chain()
    assert equivalent_on(m, parse_formula("p | ~p"), Top()) is None


def test_equivalent_on_commuted_conjunction():
    m = random_model(ModelGenParams(seed=3))
    assert equivalent_on(m, parse_formula("p & q"), parse_formula("q & p")) is None


def test_equivalent_on_reports_first_world():
    m = one_world(p=True, q=True)
    assert equivalent_on(m, parse_formula("<(~p)?>q"), parse_formula("p & q")) == "w0"


def test_check_solution_trivial_equation():
    m = two_world_chain()
    report = check_solution_on(m, "X", Var("X"), Top())
    assert report.passed


def test_check_solution_rejects_candidate_with_unknown():
    m = two_world_chain()
    with pytest.raises(ValueError, match="contains the unknown"):
        check_solution_on(m, "X", Var("X"), Var("X"))


def test_check_solution_counterexample():
    m = one_world(p=True, q=True)
    report = check_solution_on(m, "X", parse_formula("p & (q | X)"), parse_formula("~p & q"))
    assert not report.passed
    assert report.counterexample_world == "w0"


def test_random_model_is_deterministic():
    params = ModelGenParams(world_count=4, seed=99)
    assert random_model(params) == random_model(params)


def test_random_model_edge_probability_extremes():
    empty = random_model(ModelGenParams(world_count=3, edge_probability=0.0, seed=1))
    assert all(not pairs for pairs in empty.relations.values())
    full = random_model(ModelGenParams(world_count=3, edge_probability=1.0, seed=1))
    assert all(len(pairs) == 9 for pairs in full.relations.values())


def test_single_isolated_world():
    m = random_model(ModelGenParams(world_count=1, edge_probability=0.0, seed=7))
    assert m.worlds == ("w0",)
    assert all(not pairs for pairs in m.relations.values())


def test_params_validation():
    with pytest.raises(ValueError):
        ModelGenParams(world_count=0)
    with pytest.raises(ValueError):
        ModelGenParams(edge_probability=1.5)


def test_model_json_round_trip():
    m = random_model(ModelGenParams(world_count=3, seed=12))
    doc = model_to_json(m)
    back = model_from_json(doc)
    assert back.worlds == m.worlds
    assert back.relations == {k: v for k, v in m.relations.items()}
    assert back.valuation == {k: v for k, v in m.valuation.items()}


def test_model_json_unknown_names_default_empty():
    m = model_from_json({"worlds": ["w0"]})
    assert satisfies(m, "w0", parse_formula("[whatever]false"))
    assert not satisfies(m, "w0", parse_formula("someatom"))


def test_malformed_model_rejected():
    with pytest.raises(ValueError, match="malformed"):
        model_from_json({"programs": {}})
    with pytest.raises(ValueError, match="malformed"):
        model_from_json({"worlds": ["w0"], "programs": [1]})
    # A string where a list belongs must not be read as its characters.
    for doc in ({"worlds": ["a", "b"], "programs": {"r": ["ab"]}},
                {"worlds": ["a", "b"], "programs": {"r": "ab"}},
                {"worlds": ["a", "b"], "valuation": {"p": "b"}},
                {"worlds": "w0"}):
        with pytest.raises(ValueError, match="malformed model document"):
            model_from_json(doc)
    # A world name is a string or an integer; nothing else is turned into one.
    for bad in (["w0"], {}, None, True, False, 1.0, 0.5):
        for doc in ({"worlds": [bad]},
                    {"worlds": ["w0"], "programs": {"r": [["w0", bad]]}},
                    {"worlds": ["w0"], "programs": {"r": [[bad, "w0"]]}},
                    {"worlds": ["w0"], "valuation": {"p": [bad]}}):
            with pytest.raises(ValueError, match="^malformed model document: a world name must be"):
                model_from_json(doc)


def test_integer_world_names_read_as_decimal_text():
    model = model_from_json({"worlds": [0, "w1"], "programs": {"r": [[0, "w1"]]},
                             "valuation": {"p": [0]}})
    assert model.worlds == ("0", "w1")
    assert model.relations == {"r": frozenset({("0", "w1")})}
    assert model.valuation["p"] == frozenset({"0"})


def test_first_unknown_world_in_document_order_is_reported():
    # The valuation is validated in document order, never in set order.
    doc = json.dumps({"worlds": ["w0"], "valuation": {"p": ["x", "y"]}})
    code = ("import json, sys; from pdlfix.semantics import model_from_json\n"
            "try: model_from_json(json.loads(sys.argv[1]))\n"
            "except ValueError as exc: print(exc)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for hash_seed in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", code, doc], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
                             timeout=60)
        assert run.stdout == "valuation of 'p' mentions unknown world 'x'\n", run.stderr


def test_seeded_models_are_pinned():
    # Guards random_model's draw order: programs first (source world outer,
    # target inner), then each name over the worlds.
    digest = hashlib.sha256()
    for worlds in (*range(1, 10), 64):
        for p in (0.0, 0.4, 1.0):
            for progs in ("a", "ab", "abc"):
                m = random_model(ModelGenParams(world_count=worlds, edge_probability=p,
                                                prog_names=tuple(progs),
                                                seed=1000 * worlds + 10 * len(progs) + int(10 * p)))
                digest.update(json.dumps(model_to_json(m), sort_keys=True).encode())
    assert digest.hexdigest() == "efa62810c6cce8a0dcbfe47119928b8b9a95cbb5a7928a2f49c346dd11eff886"


def test_seeded_comparisons_are_pinned():
    # A differential digest of equivalent_on, to keep when the evaluator or the
    # term representation is replaced: the first disagreeing world, or None,
    # for 3,000 seeded pairs of depth-3 formulas (stars and tests included) on
    # 1-5 world models, then 200 on 64-128 world models.  About 70% of the
    # pairs disagree, so the counterexample world is pinned, not only agreement.
    digest = hashlib.sha256()
    for i in range(3200):
        gen = TermGen(random.Random(derive_seed(16, i)))
        phi, psi = gen.formula(3), gen.formula(3)
        worlds = 1 + i % 5 if i < 3000 else 64 + i % 65
        model = random_model(ModelGenParams(world_count=worlds, seed=derive_seed(17, i)))
        digest.update(f"{equivalent_on(model, phi, psi)}\n".encode())
    assert digest.hexdigest() == "f9f0c60ef78de049bc3ef5b0f23fe42f8f00e7b03825527aa5421608487801eb"


def draw_stream(seed, block_draws, shake=hashlib.shake_128):
    """A model's 16-bit draws, one at a time: block ``b`` holds
    ``block_draws`` of them, read from ``shake`` of ``f"{seed}:{b}"``."""
    for block in itertools.count():
        data = shake(f"{seed}:{block}".encode()).digest(2 * block_draws)
        for (value,) in struct.iter_unpack("<H", data):
            yield value


def per_draw_model(params, shake=hashlib.shake_128):
    """The reference for random_model's bulk draw: one 16-bit draw per
    program and world pair (source world outer), an edge below
    ``round(p * 2**16)``, then one per name and world, a member below
    ``2**15``, all read from ``shake``."""
    worlds = params.world_count
    draw = draw_stream(params.seed, worlds * max(1, _BLOCK_DRAWS // worlds), shake).__next__
    bits = [1 << i for i in range(worlds)]
    bound = round(params.edge_probability * 2**16)
    succ = {prog: tuple(sum([b for b in bits if draw() < bound]) for _ in bits)
            for prog in params.prog_names}
    ext = {name: sum([b for b in bits if draw() < 2**15])
           for name in (*params.atom_names, *params.var_names)}
    return succ, ext


# A block of the bulk draw holds 65, 64 and 63 rows at 63, 64 and 65 worlds,
# so the rows of a program end inside a block, at its end or past it; 200 and
# 256 worlds take many blocks.  random_model hashes a one-block model with
# _sha3 and a larger one with hashlib, so at 1-9 worlds the hashlib reference
# checks _sha3's draws, and at 200 and 256 worlds a _sha3 reference checks
# hashlib's.
@pytest.mark.parametrize("worlds", [*range(1, 10), 63, 64, 65, 200, 256])
def test_bulk_draws_equal_the_per_draw_loop(worlds):
    shake = _sha3.shake_128 if worlds >= 200 else hashlib.shake_128
    seed = derive_seed(worlds, 0)
    # With the first draw as the bound, or one below it, its high byte ties
    # the bound's (unless its low byte is 255), and its low byte decides.
    first = next(draw_stream(seed, 1))
    cases = [ModelGenParams(world_count=worlds, edge_probability=p, prog_names=tuple(progs),
                            seed=seed)
             for p in (0.0, 1.0, 0.4, 0.5, 1 / 3, 5e-324, 1 - 2**-53,
                       first / 2**16, (first + 1) / 2**16)
             for progs in ("a", "ab", "abc")]
    # 70 name rows: a block then starts among the name rows.
    cases.append(ModelGenParams(world_count=worlds, atom_names=tuple(f"p{i}" for i in range(70)),
                                seed=seed))
    # No names and no programs: no draw at all, and a model of worlds only.
    cases.append(ModelGenParams(world_count=worlds, atom_names=(), var_names=(), prog_names=(),
                                seed=seed))
    # A negative seed: its key starts with a minus sign.
    cases.append(ModelGenParams(world_count=worlds, seed=-seed))
    for params in cases:
        m = random_model(params)
        assert m.worlds == tuple(f"w{i}" for i in range(worlds))
        assert (m.succ, m.ext) == per_draw_model(params, shake), params


# Models of one draw fewer than a block, exactly a block and one draw more:
# 45 worlds with two programs and the one name X, 32 with three programs and
# 32 names, and 17 with 14 programs and three names, whose last name row falls
# in a second block.  The first two are hashed by _sha3 and checked against
# hashlib; the last is hashed by hashlib and checked against _sha3.
@pytest.mark.parametrize("worlds, progs, atoms, extra", [
    (45, 2, (), -1),
    (32, 3, tuple(f"p{i}" for i in range(31)), 0),
    (17, 14, ("p", "q"), 1),
])
@pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
def test_draws_at_the_block_size_equal_the_per_draw_loop(worlds, progs, atoms, extra, p):
    params = ModelGenParams(world_count=worlds, atom_names=atoms,
                            prog_names=tuple(f"a{i}" for i in range(progs)),
                            edge_probability=p, seed=derive_seed(worlds, 1))
    assert worlds * (worlds * progs + len(atoms) + 1) == _BLOCK_DRAWS + extra
    m = random_model(params)
    assert m.worlds == tuple(f"w{i}" for i in range(worlds))
    shake = _sha3.shake_128 if extra > 0 else hashlib.shake_128
    assert (m.succ, m.ext) == per_draw_model(params, shake)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.4, 0.5, 0.9, 1.0])
def test_edge_and_name_frequencies_match_the_bound(p):
    # 10**6 edge draws and 10**6 name draws, one 1,000-world model: each
    # count lies within 5 sigma of its binomial mean.  At p = 0 and p = 1
    # sigma is 0, so the edge count must be exact.
    worlds = 1000
    m = random_model(ModelGenParams(world_count=worlds, prog_names=("a",),
                                    atom_names=tuple(f"p{i}" for i in range(worlds - 1)),
                                    edge_probability=p, seed=derive_seed(26, int(10 * p))))
    draws = worlds * worlds
    for count, chance in ((sum(row.bit_count() for row in m.succ["a"]), round(p * 2**16) / 2**16),
                          (sum(mask.bit_count() for mask in m.ext.values()), 0.5)):
        assert abs(count - draws * chance) <= 5 * (draws * chance * (1 - chance)) ** 0.5


def test_the_stream_is_fips_202_shake128():
    # random_model reads the stdlib's own SHAKE128 (_sha3) for a model of one
    # block and hashlib's (OpenSSL's, where it is built with it) for a larger
    # one.  Both give the same bytes, and the FIPS 202 value for the empty
    # message.
    for key in (b"", b"0:0", b"-5:3", b"4294967295:12", b"%d:0" % 2**70):
        for size in (2, 130, 8192, 8194):
            assert _sha3.shake_128(key).digest(size) == hashlib.shake_128(key).digest(size)
    empty = "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
    assert _sha3.shake_128(b"").hexdigest(32) == empty
    assert hashlib.shake_128(b"").hexdigest(32) == empty


def test_models_drawn_in_any_order_are_the_same():
    params = [ModelGenParams(world_count=worlds, seed=derive_seed(27, i))
              for i, worlds in enumerate((1, 2, 3, 4, 5, 65, 130, 1, 5))]
    forward = [random_model(q) for q in params]
    backward = [random_model(q) for q in reversed(params)]
    assert forward == backward[::-1]
    # The key keeps the sign: -5 and 5 are different seeds.
    assert random_model(ModelGenParams(world_count=8, seed=-5)) != random_model(
        ModelGenParams(world_count=8, seed=5))


@functools.cache
def reference_masks(params):
    return per_draw_model(params)


@functools.cache
def eager_model(params):
    """The model of ``per_draw_model``'s masks, built whole by the constructor."""
    succ, ext = reference_masks(params)
    worlds = [f"w{i}" for i in range(params.world_count)]

    def members(mask):
        return [w for i, w in enumerate(worlds) if mask >> i & 1]

    return KripkeModel(worlds,
                       {name: [(u, v) for u, row in zip(worlds, rows) for v in members(row)]
                        for name, rows in succ.items()},
                       {name: members(mask) for name, mask in ext.items()})


# random_model's two SHAKE128 constructors, before any test replaces them.
SHAKES = {hashlib: hashlib.shake_128, semantics: semantics.shake_128}


def hashed_blocks(monkeypatch):
    """The blocks ``random_model`` hashes from here on, in order, read from
    the keys given to either SHAKE128 constructor."""
    keys = []

    def spy(real):
        def shake(key):
            keys.append(int(key.split(b":")[1]))
            return real(key)
        return shake

    for module, real in SHAKES.items():
        monkeypatch.setattr(module, "shake_128", spy(real))
    return keys


def blocks_of(params, first, last):
    """The blocks that rows ``first`` to ``last - 1`` of a model lie in, a
    row being one program's draws from one world or one name's draws."""
    per = max(1, _BLOCK_DRAWS // params.world_count)
    return set(range(first // per, -(-last // per)))


# 45 worlds with two programs is the smallest model of the default names
# that takes two blocks; at 65 and 100 worlds a block holds the end of one
# program and the start of the next.
LAZY_CASES = [ModelGenParams(world_count=worlds, prog_names=("a", "b", "c")[:progs],
                             seed=derive_seed(29, worlds + progs))
              for worlds in (45, 63, 64, 65, 100, 200, 256) for progs in (1, 2, 3)]


@pytest.mark.parametrize("reads_last", [False, True], ids=["reads-none", "reads-last"])
@pytest.mark.parametrize("params", LAZY_CASES,
                         ids=lambda q: f"{q.world_count}w{len(q.prog_names)}p")
def test_a_program_is_drawn_on_first_read_and_every_read_sees_the_whole_model(
        params, reads_last, monkeypatch):
    n, progs = params.world_count, params.prog_names
    last = progs[-1]
    phi, psi = ((Diamond(AtomicProg(last), Atom("p")), Box(AtomicProg(last), Atom("q")))
                if reads_last else (And(Atom("p"), NegAtom("q")), Var("X")))
    edges, total = n * len(progs), n * len(progs) + 4  # the names are p, q, r and X
    one_block = len(blocks_of(params, 0, total)) == 1
    expected = blocks_of(params, 0 if one_block else edges, total)
    if reads_last:
        expected |= blocks_of(params, edges - n, edges)
    whole = eager_model(params)
    readers = {
        "succ and ext": lambda m: (m.succ, m.ext),
        "model_to_json": model_to_json,
        "relations": lambda m: m.relations,
        "repr": repr,
        "==": lambda m: (whole == m, m == whole),
        "!=": lambda m: (m != whole, whole != m),
        "pickle": lambda m: repr(pickle.loads(pickle.dumps(m))),
        "deepcopy": lambda m: repr(copy.deepcopy(m)),
        "iteration": lambda m: (list(m.succ), list(m.succ.items()), len(m.succ)),
    }
    for name, read in readers.items():
        hashed = hashed_blocks(monkeypatch)
        m = random_model(params)
        assert equivalent_on(m, phi, psi) == equivalent_on(whole, phi, psi)
        # Only the names' blocks and the read program's are hashed, each once:
        # a block that holds rows of unread programs alone is not.
        assert sorted(hashed) == sorted(expected), name
        assert read(m) == read(whole), name
        # A whole read draws every block left, and none twice.
        assert sorted(hashed) == sorted(blocks_of(params, 0, total)), name
    m = random_model(params)
    assert (m.succ, m.ext) == reference_masks(params)
    assert type(pickle.loads(pickle.dumps(m)).succ) is dict
    assert type(copy.deepcopy(m).succ) is dict


@pytest.mark.parametrize("worlds", [45, 100])
def test_a_lazily_drawn_program_is_read_like_a_dict(worlds, monkeypatch):
    params = ModelGenParams(world_count=worlds, prog_names=("a", "b", "c"), seed=7)
    whole = eager_model(params)
    m = random_model(params)
    assert m.succ.get("c") == whole.succ["c"] and m.succ["b"] == whole.succ["b"]
    assert m.succ.get("z") is None and m.succ.get("z", ()) == ()
    with pytest.raises(KeyError):
        m.succ["z"]
    assert "a" in m.succ and "z" not in m.succ
    assert list(m.succ) == ["a", "b", "c"] and m.succ == whole.succ
    assert copy.copy(m) == whole and str(m.succ) == repr(whole.succ)
    hashed = hashed_blocks(monkeypatch)
    assert list(reversed(m.succ)) == ["c", "b", "a"] and not hashed


def test_the_oracle_answers_the_same_on_lazily_drawn_and_eager_models():
    # The first failing world, or None, of the solution against its
    # instantiation (None) and against the equation itself, whose X is read
    # from the valuation (mostly a world), on 24 seeded inputs of both kinds.
    answers = []
    for i in range(24):
        kind = ("Pi", "Sigma")[i % 2]
        d = random_decomposition(random.Random(derive_seed(29, i)), kind=kind,
                                 leading=i % 4 > 1, max_pairs=3)
        phi = to_nested_form(d)
        lam = (solve_pi(d) if kind == "Pi" else solve_sigma(d)).formula
        pairs = [(lam, substitute(phi, "X", lam)), (lam, phi), (Var("X"), phi)]
        params = ModelGenParams(world_count=64 + 192 * i // 23, seed=derive_seed(30, i))
        lazy, whole = random_model(params), eager_model(params)
        for left, right in pairs:
            answer = equivalent_on(lazy, left, right)
            assert answer == equivalent_on(whole, left, right), (i, print_formula(right))
            answers.append(answer)
    assert None in answers and any(answer is not None for answer in answers)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(variable_free_formulas)
def test_negation_flip_on_variable_free_formulas(phi):
    m = random_model(ModelGenParams(world_count=4, seed=17))
    for w in m.worlds:
        assert satisfies(m, w, negate(phi)) == (not satisfies(m, w, phi))


def test_star_is_a_fixed_point_of_unfolding():
    rng = random.Random(5)
    gen = TermGen(rng)
    for trial in range(40):
        alpha = gen.program(depth=2)
        m = random_model(ModelGenParams(world_count=4, seed=derive_seed(23, trial)))
        star = relation(m, parse_program(f"({_text(alpha)})*"))
        step = relation(m, alpha)
        identity = {(w, w) for w in m.worlds}
        recomposed = identity | {(u, z) for (u, v) in step for (y, z) in star if v == y}
        assert star == recomposed
        assert identity <= star
        assert {(u, z) for (u, v) in star for (y, z) in star if v == y} <= star


def _text(alpha):
    from pdlfix.textio import print_program

    return print_program(alpha)


def test_equation_report_serializes():
    m = one_world(p=True, q=True)
    report = check_solution_on(m, "X", parse_formula("p & (q | X)"), parse_formula("p & q"))
    doc = report.to_json()
    assert doc["passed"] is True
    assert doc["candidate"] == "p & q"


def test_evaluation_stays_fast_on_star_heavy_formulas():
    # Closure-dominated evaluation: a generous ceiling, not a tight bound.
    import time

    rng = random.Random(1)
    gen = TermGen(rng)
    m = random_model(ModelGenParams(world_count=5, seed=2))
    big = gen.formula(depth=6)
    for _ in range(6):
        big = parse_formula(f"[(a ; p? ; b)*]({_text_f(big)}) & <b*>q")
    started = time.perf_counter()
    for w in m.worlds:
        satisfies(m, w, big)
    assert time.perf_counter() - started < 1.0


def _text_f(phi):
    from pdlfix.textio import print_formula

    return print_formula(phi)


# ---------------------------------------------------------------------------
# A reference evaluator that follows the definitions directly: relations are
# sets of world pairs, and the star composes until nothing changes.

def ref_extension(m, phi):
    worlds = set(m.worlds)
    if isinstance(phi, (Atom, Var)):
        return set(m.valuation.get(phi.name, ()))
    if isinstance(phi, NegAtom):
        return worlds - set(m.valuation.get(phi.name, ()))
    if isinstance(phi, Top):
        return worlds
    if isinstance(phi, Bot):
        return set()
    if isinstance(phi, Or):
        return ref_extension(m, phi.left) | ref_extension(m, phi.right)
    if isinstance(phi, And):
        return ref_extension(m, phi.left) & ref_extension(m, phi.right)
    rel = ref_relation(m, phi.prog)
    body = ref_extension(m, phi.body)
    if isinstance(phi, Diamond):
        return {u for u in worlds if any((u, v) in rel for v in body)}
    assert isinstance(phi, Box)
    return {u for u in worlds if all(v in body for (x, v) in rel if x == u)}


def _compose(r, s):
    return {(u, z) for (u, v) in r for (y, z) in s if v == y}


def ref_relation(m, alpha):
    if isinstance(alpha, AtomicProg):
        return set(m.relations.get(alpha.name, ()))
    if isinstance(alpha, Test):
        return {(w, w) for w in ref_extension(m, alpha.cond)}
    if isinstance(alpha, Seq):
        return _compose(ref_relation(m, alpha.first), ref_relation(m, alpha.second))
    if isinstance(alpha, Choice):
        return ref_relation(m, alpha.left) | ref_relation(m, alpha.right)
    assert isinstance(alpha, Star)
    body = ref_relation(m, alpha.body)
    closure = {(w, w) for w in m.worlds}
    while True:
        grown = closure | _compose(closure, body)
        if grown == closure:
            return closure
        closure = grown


def ref_first_difference(m, phi, psi):
    left, right = ref_extension(m, phi), ref_extension(m, psi)
    return next((w for w in m.worlds if (w in left) != (w in right)), None)


def assert_agrees_with_reference(m, alpha=None, formulas=()):
    if alpha is not None:
        assert relation(m, alpha) == ref_relation(m, alpha)
    for phi in formulas:
        ext = ref_extension(m, phi)
        assert [satisfies(m, w, phi) for w in m.worlds] == [w in ext for w in m.worlds]
    for phi, psi in zip(formulas, formulas[1:]):
        assert equivalent_on(m, phi, psi) == ref_first_difference(m, phi, psi)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    worlds=st.integers(1, 7),
    edge_probability=st.sampled_from([0.0, 0.15, 0.4, 0.8]),
)
def test_evaluator_agrees_with_the_reference(seed, worlds, edge_probability):
    rng = random.Random(seed)
    gen = TermGen(rng, variables=("X",))
    m = random_model(ModelGenParams(world_count=worlds, edge_probability=edge_probability,
                                    seed=seed))
    alpha = gen.program(depth=3)
    phi, psi = gen.formula(depth=3), gen.formula(depth=3)
    # phi[X := psi] shares the psi object at every X: a DAG, not a tree.
    shared = substitute(phi, "X", psi)
    assert_agrees_with_reference(m, alpha, (phi, psi, shared, psi))


def chain(n, **valuation):
    worlds = tuple(f"w{i}" for i in range(n))
    return KripkeModel(
        worlds=worlds,
        relations={"a": frozenset(zip(worlds, worlds[1:]))},
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )


def test_star_on_a_40_world_chain():
    m = chain(40, p={"w39"})
    star = relation(m, parse_program("a*"))
    assert len(star) == 40 * 41 // 2
    assert ("w0", "w39") in star and ("w39", "w0") not in star
    assert satisfies(m, "w0", parse_formula("<a*>p"))
    assert not satisfies(m, "w0", parse_formula("[a*]p"))
    assert_agrees_with_reference(m, parse_program("a*"),
                                 (parse_formula("<a*>p"), parse_formula("[a ; a*]~p")))


def test_nested_star_equals_star():
    for seed in range(5):
        m = random_model(ModelGenParams(world_count=5, edge_probability=0.25, seed=seed))
        assert relation(m, parse_program("(a*)*")) == relation(m, parse_program("a*"))
        assert_agrees_with_reference(m, parse_program("((a ; b*)* u b)*"),
                                     (parse_formula("<(a*)*>p"), parse_formula("[(a* ; b)*]q")))


@pytest.mark.parametrize("text", ["X?", "(X & p)? ; a", "((X | ~p)? ; a)*", "(a ; (<b>X)?)* u X?"])
def test_tests_that_contain_the_unknown(text):
    m = random_model(ModelGenParams(world_count=5, seed=11))
    alpha = parse_program(text)
    assert_agrees_with_reference(m, alpha, (Diamond(alpha, Var("X")), Box(alpha, Var("X"))))


def test_empty_relation():
    m = KripkeModel(worlds=("w0", "w1", "w2"), relations={"a": frozenset()},
                    valuation={"p": frozenset({"w1"})})
    assert relation(m, parse_program("a")) == frozenset()
    assert relation(m, parse_program("a*")) == {(w, w) for w in m.worlds}
    assert relation(m, parse_program("a ; a*")) == frozenset()
    assert not any(satisfies(m, w, parse_formula("<a>true")) for w in m.worlds)
    assert all(satisfies(m, w, parse_formula("[a]false")) for w in m.worlds)
    assert_agrees_with_reference(m, parse_program("(a u p?)*"),
                                 (parse_formula("<a*>p"), parse_formula("p")))


@pytest.mark.parametrize("loop", [False, True])
def test_one_world_model(loop):
    m = KripkeModel(worlds=("w0",), relations={"a": frozenset({("w0", "w0")} if loop else ())},
                    valuation={"p": frozenset({"w0"})})
    assert relation(m, parse_program("a*")) == {("w0", "w0")}
    assert satisfies(m, "w0", parse_formula("<a>p")) == loop
    assert satisfies(m, "w0", parse_formula("[a]~p")) == (not loop)
    assert_agrees_with_reference(m, parse_program("a ; (a u ~p?)*"),
                                 (parse_formula("<a>p"), parse_formula("[a*]p"), Top()))
