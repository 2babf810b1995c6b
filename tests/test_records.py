"""The surface of the frozen record classes outside the term core.

Each record is pinned on one sample: its repr, equality and hashing,
pickling and deep copies, refusal of assignment, its dataclass fields in
order with their defaults, ``dataclasses.replace``, construction by position
and by name, and the exact texts its validation raises.  Certificates, user
messages and callers of ``dataclasses`` depend on this surface, however the
classes are made.
"""

import copy
import dataclasses
import pickle
import sys

import pytest

from pdlfix.certify import (
    RULES,
    Certificate,
    CheckReport,
    FMeta,
    FNeg,
    PMeta,
    RewriteRule,
    RewriteStep,
    RuleValidationEntry,
)
from pdlfix.hierarchy import ClassifyResult, Decomposition, PaddingRecord, Pair, XFree
from pdlfix.semantics import EquationReport, KripkeModel, ModelGenParams
from pdlfix.synthesis import Solution
from pdlfix.syntax import And, Atom, AtomicProg, Box, Test, Top, Var

P, Q, X = Atom("p"), Atom("q"), Var("X")
A = AtomicProg("a")
PAIR = Pair(P, Q, None)
PI = Decomposition("Pi", "X", (PAIR,), False)
STEP = RewriteStep("E1", "LR", (0, 1), {"phi": P}, group=2)
MODEL = KripkeModel(["w0", "w1"], {"a": {("w0", "w1")}}, {"p": {"w1"}})

# record: (sample, repr, unhashable, fields with their defaults)
_SAMPLES = {
    Pair: (PAIR, "Pair(phi=Atom(name='p'), psi=Atom(name='q'), alpha=None)", False,
           {"phi": None, "psi": None, "alpha": None}),
    PaddingRecord: (
        PaddingRecord(2, psi_padded=True),
        "PaddingRecord(index=2, phi_padded=False, psi_padded=True, or_commuted=False, "
        "and_commuted=False)", False,
        {"index": None, "phi_padded": False, "psi_padded": False, "or_commuted": False,
         "and_commuted": False}),
    Decomposition: (
        PI, "Decomposition(kind='Pi', x='X', pairs=(Pair(phi=Atom(name='p'), psi=Atom(name='q'), "
        "alpha=None),), leading_modality=False)", False,
        {"kind": None, "x": None, "pairs": None, "leading_modality": None}),
    ClassifyResult: (
        ClassifyResult(PI, (PaddingRecord(1),)),
        "ClassifyResult(decomposition=Decomposition(kind='Pi', x='X', pairs=(Pair(phi=Atom("
        "name='p'), psi=Atom(name='q'), alpha=None),), leading_modality=False), padding=("
        "PaddingRecord(index=1, phi_padded=False, psi_padded=False, or_commuted=False, "
        "and_commuted=False),))", False,
        {"decomposition": None, "padding": None}),
    XFree: (XFree(P, "X"), "XFree(formula=Atom(name='p'), x='X')", False,
            {"formula": None, "x": None}),
    Solution: (
        Solution(Box(A, Q), "lambda1", "literal", None),
        "Solution(formula=Box(prog=AtomicProg(name='a'), body=Atom(name='q')), "
        "schema='lambda1', strategy='literal', decomposition=None)", False,
        {"formula": None, "schema": None, "strategy": None, "decomposition": None}),
    FMeta: (FMeta("phi"), "FMeta(name='phi')", False, {"name": None}),
    PMeta: (PMeta("alpha"), "PMeta(name='alpha')", False, {"name": None}),
    FNeg: (FNeg("phi"), "FNeg(name='phi')", False, {"name": None}),
    RewriteRule: (
        RewriteRule("E3", And(FMeta("phi"), FNeg("phi")), Top()),
        "RewriteRule(rule_id='E3', lhs=And(left=FMeta(name='phi'), right=FNeg(name='phi')), "
        "rhs=Top())", False,
        {"rule_id": None, "lhs": None, "rhs": None}),
    RewriteStep: (
        STEP, "RewriteStep(rule='E1', direction='LR', path=(0, 1), "
        "bindings={'phi': Atom(name='p')}, group=2)", True,
        {"rule": None, "direction": None, "path": None, "bindings": None, "group": 0}),
    Certificate: (
        Certificate(P, Q, (STEP,)),
        "Certificate(source=Atom(name='p'), target=Atom(name='q'), steps=(RewriteStep("
        "rule='E1', direction='LR', path=(0, 1), bindings={'phi': Atom(name='p')}, group=2),))",
        True, {"source": None, "target": None, "steps": None}),
    CheckReport: (
        CheckReport(False, 1, 1, "no", None),
        "CheckReport(ok=False, steps_applied=1, failed_step=1, reason='no', final=None)", False,
        {"ok": None, "steps_applied": None, "failed_step": None, "reason": None, "final": None}),
    RuleValidationEntry: (
        RuleValidationEntry("E2", 10, 1, {"world": "w0"}),
        "RuleValidationEntry(rule='E2', trials=10, counterexamples=1, "
        "first_failure={'world': 'w0'})", True,
        {"rule": None, "trials": None, "counterexamples": None, "first_failure": None}),
    KripkeModel: (
        MODEL, "KripkeModel(worlds=('w0', 'w1'), succ={'a': (2, 0)}, ext={'p': 2})", True,
        {"worlds": None, "succ": None, "ext": None}),
    EquationReport: (
        EquationReport(True, "X", And(P, X), P, And(P, P), None, MODEL),
        "EquationReport(passed=True, x='X', equation=And(left=Atom(name='p'), "
        "right=Var(name='X')), candidate=Atom(name='p'), instantiated=And(left=Atom(name='p'), "
        "right=Atom(name='p')), counterexample_world=None, model=KripkeModel(worlds=('w0', "
        "'w1'), succ={'a': (2, 0)}, ext={'p': 2}))", True,
        {"passed": None, "x": None, "equation": None, "candidate": None,
         "instantiated": None, "counterexample_world": None, "model": None}),
    ModelGenParams: (
        ModelGenParams(seed=5),
        "ModelGenParams(world_count=4, atom_names=('p', 'q', 'r'), var_names=('X',), "
        "prog_names=('a', 'b'), edge_probability=0.4, seed=5)", False,
        {"world_count": 4, "atom_names": ("p", "q", "r"), "var_names": ("X",),
         "prog_names": ("a", "b"), "edge_probability": 0.4, "seed": 0}),
}

# The records that carry a docstring; every other one is documented by its
# signature, as a dataclass is.
_DOCUMENTED = {Pair, PaddingRecord, XFree, FMeta, PMeta, FNeg, KripkeModel, EquationReport}


def _signature(cls) -> str:
    params = ", ".join(f"{f.name}: {f.type!r}" + (
        "" if f.default is dataclasses.MISSING else f" = {f.default!r}")
        for f in dataclasses.fields(cls))
    return f"{cls.__name__}({params})"


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_record_surface(cls):
    sample, text, unhashable, defaults = _SAMPLES[cls]
    assert type(sample) is cls
    assert repr(sample) == text
    assert pickle.loads(pickle.dumps(cls)) is cls
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    assert names == tuple(defaults) == cls.__match_args__
    assert {f.name: None if f.default is dataclasses.MISSING else f.default
            for f in fields} == defaults
    assert all(f.default_factory is dataclasses.MISSING for f in fields)
    assert dataclasses.fields(sample) == fields
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(sample)
    if cls not in _DOCUMENTED:
        assert cls.__doc__ == _signature(cls)
    values = tuple(getattr(sample, name) for name in names)
    twins = [pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample), copy.copy(sample)]
    if cls is not KripkeModel:  # its constructor takes relations and valuations
        twins += [cls(*values), cls(**dict(zip(names, values))),
                  dataclasses.replace(sample)]
        required = [name for name in names if defaults[name] is None]
        given = dict(zip(names, values))
        assert cls(*(given[name] for name in required)) == dataclasses.replace(
            sample, **{name: defaults[name] for name in names if name not in required})
    for twin in twins:
        assert type(twin) is cls and twin == sample and repr(twin) == text
        assert not twin != sample
    assert sample != object() and (sample == object()) is False
    if unhashable:
        for twin in (sample, *twins):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(twin)
    else:
        assert all(hash(twin) == hash(sample) for twin in twins)
        assert len({sample, *twins}) == 1
    for name in (*names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            setattr(sample, name, 0)
        assert str(err.value) == f"cannot assign to field {name!r}"
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            delattr(sample, name)
        assert str(err.value) == f"cannot delete field {name!r}"
    assert repr(sample) == text
    if sys.version_info >= (3, 13) and cls is not KripkeModel:
        assert copy.replace(sample) == sample


def test_replace_changes_one_field_and_validates():
    assert dataclasses.replace(STEP, path=(1,)) == RewriteStep("E1", "LR", (1,), {"phi": P}, 2)
    assert dataclasses.replace(PI, kind="Sigma").kind == "Sigma"
    assert dataclasses.replace(ModelGenParams(), world_count=9, seed=3) == ModelGenParams(9, seed=3)
    with pytest.raises(ValueError, match="direction must be LR or RL: 'RR'"):
        dataclasses.replace(STEP, direction="RR")
    # A model is built from relations and valuations, not from its fields.
    with pytest.raises(TypeError):
        dataclasses.replace(MODEL)


def test_record_classes_differ_even_on_equal_fields():
    assert FMeta("phi") != PMeta("phi") and FMeta("phi") != FNeg("phi")
    assert FMeta("phi") == FMeta("phi") and FMeta("phi") != FMeta("psi")


@pytest.mark.parametrize("make, message", [
    (lambda: Decomposition("Delta", "X", (PAIR,), False), "kind must be Pi or Sigma: 'Delta'"),
    (lambda: Decomposition("Pi", "X", (), False), "a decomposition needs at least one pair"),
    (lambda: Decomposition("Pi", "X", (PAIR,), True), "alpha_1 present iff leadingModality"),
    (lambda: Decomposition("Pi", "X", (PAIR, PAIR), False), "alpha_2 must be present"),
    (lambda: Decomposition("Sigma", "X", (Pair(P, X, None),), False),
     "components of pair 1 must be X-free"),
    (lambda: Decomposition(kind="Pi", x="X", pairs=(Pair(P, Q, Test(X)),), leading_modality=True),
     "alpha_1 must not contain X"),
    (lambda: RewriteStep("E99", "LR", (), {}), "unknown rule id 'E99'"),
    (lambda: RewriteStep(rule="E1", direction="up", path=(), bindings={}),
     "direction must be LR or RL: 'up'"),
    (lambda: ModelGenParams(world_count=0), "world_count must be at least 1"),
    (lambda: ModelGenParams(2, edge_probability=1.5), "probability out of range: 1.5"),
    (lambda: ModelGenParams(seed="abc"), "seed must be an integer, got 'abc'"),
    (lambda: ModelGenParams(seed=2.0), "seed must be an integer, got 2.0"),
    (lambda: ModelGenParams(world_count=2.5), "world_count must be an integer, got 2.5"),
    (lambda: ModelGenParams(world_count="3"), "world_count must be an integer, got '3'"),
    (lambda: ModelGenParams(world_count=True), "world_count must be an integer, got True"),
    (lambda: ModelGenParams(prog_names=("a", "a")), "duplicate program name 'a'"),
    (lambda: ModelGenParams(atom_names=("p",), var_names=("p",)),
     "duplicate atom or variable name 'p'"),
    (lambda: ModelGenParams(atom_names=("p", "q", "p")), "duplicate atom or variable name 'p'"),
    (lambda: ModelGenParams(var_names=("X", "Y", "X")), "duplicate atom or variable name 'X'"),
    (lambda: KripkeModel([], {}, {}), "a model needs at least one world"),
    (lambda: KripkeModel(["w", "w"], {}, {}), "duplicate world identifiers"),
    (lambda: KripkeModel(worlds=["w0"], relations={"a": [("w0", "w9")]}, valuation={}),
     "relation 'a' mentions unknown world ('w0', 'w9')"),
    (lambda: KripkeModel(["w0"], {}, {"p": ["w9"]}), "valuation of 'p' mentions unknown world 'w9'"),
], ids=["kind", "no-pairs", "leading", "alpha", "x-free", "alpha-x", "rule", "direction",
        "worlds", "probability", "seed-text", "seed-float", "worlds-float", "worlds-text",
        "worlds-bool", "program-twice", "atom-and-variable", "atom-twice", "variable-twice",
        "no-world", "duplicate", "relation", "valuation"])
def test_record_validation_texts(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_missing_and_unknown_arguments_are_type_errors():
    with pytest.raises(TypeError):
        Pair(P, Q)
    with pytest.raises(TypeError):
        PaddingRecord()
    with pytest.raises(TypeError):
        XFree(P, "X", extra=1)
    with pytest.raises(TypeError):
        RewriteStep("E1", "LR", (), {}, 0, 1)
    with pytest.raises(TypeError):
        ModelGenParams(4, world_count=4)


def test_rules_are_records_of_terms_and_metavariables():
    rule = RULES["E1"]
    assert dataclasses.replace(rule) == rule
    assert pickle.loads(pickle.dumps(rule)) == rule
