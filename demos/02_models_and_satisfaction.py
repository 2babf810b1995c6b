"""Finite Kripke models: program relations, satisfaction, and equivalence.

Run:  python3 demos/02_models_and_satisfaction.py
"""

import json

from pdlfix import (
    KripkeModel,
    ModelGenParams,
    equivalent_on,
    model_to_json,
    parse_formula,
    parse_program,
    random_model,
    relation,
    satisfies,
)

# A two-world model with a single a-edge and p true at the far end.
m = KripkeModel(
    worlds=("w0", "w1"),
    relations={"a": frozenset({("w0", "w1")})},
    valuation={"p": frozenset({"w1"})},
)
print("model:", json.dumps(model_to_json(m)))

# Complex programs get their relations compositionally; the star is the
# reflexive-transitive closure.  The checker never builds these relations to
# evaluate a formula: a program acts on a world set by pre-image, and the star
# is the least fixpoint of T -> S | pre(a, T).  relation() reads the pairs
# back one target world at a time.
for text in ["a", "a ; a", "a*", "p?", "a u a*"]:
    print(f"R({text}) =", sorted(relation(m, parse_program(text))))

# Satisfaction clause by clause: boxes are vacuous over missing edges,
# diamonds follow reachability through stars.
for text in ["p", "<a>p", "<a*>p", "[a]p", "[b]false"]:
    print(f"w0 |= {text}:", satisfies(m, "w0", parse_formula(text)))

# Variables read from the valuation exactly like atoms.
mv = KripkeModel(worlds=("w0",), relations={}, valuation={"X": frozenset({"w0"})})
print("w0 |= X:", satisfies(mv, "w0", parse_formula("X")))

# equivalent_on returns the first world where two formulas disagree.
probe = equivalent_on(m, parse_formula("<a>p"), parse_formula("[a]p"))
print("<a>p vs [a]p first disagreement:", probe)

# Random models are deterministic in (params, seed) — every failing fuzzing
# run replays from its printed seed.
params = ModelGenParams(world_count=3, seed=42)
assert random_model(params) == random_model(params)
print("random model (seed 42):", json.dumps(model_to_json(random_model(params))))
