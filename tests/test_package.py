"""The package namespace: every public name, loaded from its home module on
first use (PEP 562)."""

import sys
import types
from importlib import import_module

import pytest

import pdlfix

# The public names of ``pdlfix``, by the submodule that defines each.
HOMES = {
    "certify": ["Certificate", "CheckReport", "RewriteStep", "apply_rule",
                "certificate_from_json", "certificate_to_json", "check_certificate",
                "generate_certificate", "grouped_rule_ids", "match_rule", "validate_rules"],
    "hierarchy": ["ClassifyResult", "Decomposition", "Pair", "PaddingRecord", "XFree",
                  "classify", "classify_pi", "classify_sigma", "diagnose", "reconstruct",
                  "to_chain_form", "to_nested_form"],
    "semantics": ["EquationReport", "KripkeModel", "ModelGenParams", "check_solution_on",
                  "equivalent_on", "model_from_json", "model_to_json", "random_model",
                  "relation", "satisfies"],
    "syntax": ["And", "Atom", "AtomicProg", "Bot", "Box", "Choice", "Diamond", "Formula",
               "NegAtom", "Or", "Program", "Seq", "Star", "Test", "Top", "Var",
               "equal_modulo_assoc", "iff", "implies", "is_x_free", "negate",
               "program_variables", "substitute", "variables"],
    "synthesis": ["NotInClass", "Solution", "odot", "solve", "solve_pi", "solve_sigma",
                  "tested_chain"],
    "textio": ["ParseError", "parse_formula", "parse_program", "print_formula",
               "print_program"],
}
NAMES = [name for names in HOMES.values() for name in names]


def test_all_lists_every_public_name_once():
    assert len(NAMES) == 69
    assert sorted(pdlfix.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_its_home_modules_object(module):
    home = import_module(f"pdlfix.{module}")
    for name in HOMES[module]:
        assert getattr(pdlfix, name) is getattr(home, name)


def test_star_import_binds_and_dir_lists_every_name():
    namespace = {}
    exec("from pdlfix import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(pdlfix))
    assert "__version__" in dir(pdlfix)


def test_submodules_are_still_importable_by_name():
    from pdlfix import certify

    assert isinstance(certify, types.ModuleType)
    assert certify is sys.modules["pdlfix.certify"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'pdlfix' has no attribute 'nope'$"):
        pdlfix.nope
    with pytest.raises(ImportError):
        from pdlfix import nope  # noqa: F401
