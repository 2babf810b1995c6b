"""Workbench for fixed-point equations x ≡ phi(x) in propositional dynamic logic.

The public names are loaded on first use (PEP 562): ``import pdlfix`` runs no
submodule, and ``pdlfix.solve`` imports ``pdlfix.synthesis`` and what it needs.
So a command-line run pays only for the modules its command executes.
"""

from importlib import import_module

# Each public name and the submodule that defines it.
_HOME = {name: module for module, names in {
    "certify": "Certificate CheckReport RewriteStep apply_rule certificate_from_json "
               "certificate_to_json check_certificate generate_certificate grouped_rule_ids "
               "match_rule validate_rules",
    "hierarchy": "ClassifyResult Decomposition Pair PaddingRecord XFree classify classify_pi "
                 "classify_sigma diagnose reconstruct to_chain_form to_nested_form",
    "semantics": "EquationReport KripkeModel ModelGenParams check_solution_on equivalent_on "
                 "model_from_json model_to_json random_model relation satisfies",
    "syntax": "And Atom AtomicProg Bot Box Choice Diamond Formula NegAtom Or Program Seq Star "
              "Test Top Var equal_modulo_assoc iff implies is_x_free negate program_variables "
              "substitute variables",
    "synthesis": "NotInClass Solution odot solve solve_pi solve_sigma tested_chain",
    "textio": "ParseError parse_formula parse_program print_formula print_program",
}.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
