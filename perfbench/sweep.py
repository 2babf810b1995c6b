"""Per-layer scaling sweep, outside the gate.

Times each layer against the pair count ``n`` of a box-side equation and the
world count of the oracle's models.  Every stage of every point runs under a
cap of ``CAP_S`` seconds; a stage past the cap is recorded as ``"skipped"``,
and so is every stage that needs its result.
"""

from __future__ import annotations

import json
import random
import signal
import time

from pdlfix import (
    ModelGenParams,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    classify,
    equivalent_on,
    generate_certificate,
    random_model,
    solve,
    substitute,
    to_nested_form,
)
from pdlfix.generators import derive_seed

import tracing
from workloads import X, exact_decomposition, node_counts, parse_certificate_texts

CAP_S = 5.0
PAIR_COUNTS = (2, 4, 8, 16, 32, 64)
WORLD_COUNTS = (5, 64, 256, 512)
SKIPPED = "skipped"


class _OverCap(Exception):
    pass


def _alarm(signum, frame):
    raise _OverCap


def capped(fn):
    """``(seconds, value)`` of ``fn()``, or None if it ran past ``CAP_S`` seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        started = time.perf_counter()
        value = fn()
        return time.perf_counter() - started, value
    except _OverCap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _Point:
    def __init__(self):
        self.times: dict[str, float | str] = {}
        self.values: dict[str, object] = {}

    def stage(self, name: str, fn, needs: tuple[str, ...] = ()):
        got = None
        if all(self.values.get(need) is not None for need in needs):
            got = capped(fn)
        self.times[name] = SKIPPED if got is None else got[0]
        self.values[name] = None if got is None else got[1]
        return self.values[name]


def sweep_point(n: int, seed: int) -> dict:
    p = _Point()
    rng = random.Random(seed * 1_000 + n)
    null = tracing.NullTracer()
    d = p.stage("generators.decomposition", lambda: exact_decomposition(rng, n, "Pi", False, null))
    phi = p.stage("hierarchy.to_nested_form", lambda: to_nested_form(d), ("generators.decomposition",))
    result = p.stage("hierarchy.classify", lambda: classify(phi, X), ("hierarchy.to_nested_form",))
    sol = p.stage("synthesis.solve", lambda: solve(phi, X), ("hierarchy.to_nested_form",))
    cert = p.stage("certify.generate", lambda: generate_certificate(sol, padding=result.padding),
                   ("hierarchy.classify", "synthesis.solve"))
    text = p.stage("certify.to_json", lambda: json.dumps(certificate_to_json(cert)), ("certify.generate",))
    p.stage("certify.from_json", lambda: certificate_from_json(json.loads(text)), ("certify.to_json",))
    report = p.stage("certify.replay", lambda: check_certificate(cert), ("certify.generate",))
    chars = p.stage("textio.parse",
                    lambda: sum(len(t) for t, _, _ in parse_certificate_texts(json.loads(text), cert, null)),
                    ("certify.to_json", "certify.generate"))
    target = p.stage("syntax.substitute", lambda: substitute(phi, X, sol.formula), ("synthesis.solve",))
    nodes = p.stage("syntax.node_counts", lambda: node_counts([sol.formula, target]),
                    ("syntax.substitute",))
    failures = []
    for worlds in WORLD_COUNTS:
        params = ModelGenParams(world_count=worlds, seed=derive_seed(seed, worlds))
        model = p.stage(f"semantics.model_gen@{worlds}", lambda: random_model(params))
        found = p.stage(f"semantics.eval@{worlds}",
                        lambda: (equivalent_on(model, sol.formula, target),),
                        (f"semantics.model_gen@{worlds}", "syntax.substitute"))
        if found is not None and found[0] is not None:
            failures.append(f"lambda fails the oracle at {found[0]} of {worlds} worlds")
    if report is not None and not report.ok:
        failures.append(f"certificate does not replay: {report.reason}")
    return {
        "n": n,
        "steps": len(cert.steps) if cert is not None else SKIPPED,
        "cert_bytes": len(text.encode()) if text is not None else SKIPPED,
        "parse_chars": chars if chars is not None else SKIPPED,
        "tree_nodes": nodes[0] if nodes is not None else SKIPPED,
        "distinct_nodes": nodes[1] if nodes is not None else SKIPPED,
        "seconds": p.times,
        "failures": failures,
    }


def _cell(value) -> str:
    return value if value == SKIPPED else f"{value * 1e3:.1f}"


def run_sweep(seed: int, out_path, env: dict) -> list[dict]:
    points = []
    for n in PAIR_COUNTS:
        points.append(sweep_point(n, seed))
        print(f"n={n} done" + "".join(f"; FAILED: {f}" for f in points[-1]["failures"]), flush=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "cap_s": CAP_S, "env": env, "pair_counts": PAIR_COUNTS,
                   "world_counts": WORLD_COUNTS, "points": points}, handle, indent=1)
    stages = list(points[0]["seconds"])
    print(f"\nper-layer milliseconds (cap {CAP_S} s per stage; seed {seed}); written to {out_path}")
    print("| stage | " + " | ".join(f"n={p['n']}" for p in points) + " |")
    print("|---|" + "---|" * len(points))
    for key in ("steps", "cert_bytes", "parse_chars", "tree_nodes", "distinct_nodes"):
        print(f"| {key} | " + " | ".join(str(p[key]) for p in points) + " |")
    for stage in stages:
        print(f"| {stage} | " + " | ".join(_cell(p["seconds"][stage]) for p in points) + " |")
    return points
