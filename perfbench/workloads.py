"""The gated workloads: inputs made from a seed, one op, and the op's checks.

Every workload reaches pdlfix only through its public functions, and the
command line only through ``pdlfix.cli.main`` in a fresh interpreter.  Spans
go around each call into a layer; untraced runs pass a ``NullTracer``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time

from pdlfix import (
    Atom,
    AtomicProg,
    ClassifyResult,
    Formula,
    ModelGenParams,
    NegAtom,
    Program,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    classify,
    equal_modulo_assoc,
    equivalent_on,
    generate_certificate,
    grouped_rule_ids,
    is_x_free,
    parse_formula,
    parse_program,
    print_formula,
    random_model,
    solve,
    solve_pi,
    solve_sigma,
    substitute,
    to_nested_form,
)
from pdlfix.generators import derive_seed, random_decomposition
from tracing import NullTracer

X = "X"
EXAMPLE = "p & [a](q | (r & X))"
PAPER_LAMBDA1 = "[(true? ; a ; (~q)?)*]([true?]p & [true? ; a ; (~q)?]r)"
GOLDEN_GROUPS = [["E4"], ["E1", "E3"], ["E1", "E5"], ["E3"], ["E7"]]
CASES = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]
COMMANDS = ("classify", "solve", "verify-cert", "check")
CHECK_MODELS = 50
CHILD_TIMEOUT_S = 120.0
# No __main__.py exists, so every cold run enters the CLI through this shim.
CLI_SHIM = "import sys; sys.path.insert(0, 'src'); from pdlfix.cli import main; sys.exit(main())"
_TERM = (Formula, Program)
_NAMED = (Atom, NegAtom, AtomicProg)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def now() -> float:
    return time.perf_counter()


def exact_decomposition(rng: random.Random, n: int, kind: str, leading: bool, tr):
    """A ``random_decomposition`` with exactly ``n`` pairs (redrawn until so)."""
    with tr.span("generators.decomposition"):
        while True:
            d = random_decomposition(rng, kind=kind, leading=leading, max_pairs=n, depth=2)
            if d.n == n:
                return d


def typical_decomposition(rng: random.Random, n: int, kind: str, leading: bool, draws: int, tr):
    """Of ``draws`` decompositions with ``n`` pairs, the one whose nested form
    has the median tree size, so that runs on other seeds do similar work."""
    drawn = [exact_decomposition(rng, n, kind, leading, tr) for _ in range(draws)]
    drawn.sort(key=lambda d: node_counts([to_nested_form(d)])[0])
    return drawn[len(drawn) // 2]


def node_counts(terms) -> tuple[int, int]:
    """Tree nodes of ``terms`` and distinct subterms among them all."""
    ident: dict[int, int] = {}
    size: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    for root in terms:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in ident:
                stack.pop()
                continue
            parts = [getattr(node, f.name) for f in dataclasses.fields(node)]
            pending = [v for v in parts if isinstance(v, _TERM) and id(v) not in ident]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = (type(node), tuple(ident[id(v)] if isinstance(v, _TERM) else v for v in parts))
            ident[id(node)] = keys.setdefault(key, len(keys))
            size[id(node)] = 1 + sum(size[id(v)] for v in parts if isinstance(v, _TERM))
    return sum(size[id(t)] for t in terms), len(keys)


def renamed(term, suffix: str):
    """``term`` with ``suffix`` appended to every atom and atomic program name:
    the same shape, so the same work, but no subterm equal to one before."""
    if isinstance(term, _NAMED):
        return dataclasses.replace(term, name=term.name + suffix)
    parts = {f.name: getattr(term, f.name) for f in dataclasses.fields(term)}
    return dataclasses.replace(term, **{k: renamed(v, suffix) for k, v in parts.items()
                                        if isinstance(v, _TERM)})


def rep_suffix(r: int) -> str:
    """Two letters for repetition ``r``, so every renamed copy has names of one length."""
    return _LETTERS[r // 26 % 26] + _LETTERS[r % 26]


def parse_certificate_texts(doc, cert, tr) -> list[tuple[str, object, object]]:
    """Parse every text of a certificate document directly: ``(text, term
    parsed, term certificate_from_json made of it)`` for each.  The term made
    tells whether a binding text is a program or a formula."""
    jobs = [(parse_formula, doc["from"], cert.source), (parse_formula, doc["to"], cert.target)]
    for item, step in zip(doc["steps"], cert.steps):
        for name, text in item["bindings"].items():
            made = step.bindings[name]
            jobs.append((parse_program if isinstance(made, Program) else parse_formula, text, made))
    out = []
    for parse, text, made in jobs:
        with tr.span("textio.parse"):
            out.append((text, parse(text), made))
        tr.count("textio.parse_chars", len(text))
    return out


def worked_example(tr) -> str | None:
    """The paper's worked example through every library layer; an error or None."""
    with tr.span("selfcheck", op="selfcheck"):
        with tr.span("textio.parse"):
            phi = parse_formula(EXAMPLE)
            paper = parse_formula(PAPER_LAMBDA1)
        with tr.span("hierarchy.classify"):
            result = classify(phi, X)
        with tr.span("synthesis.solve"):
            sol = solve(phi, X)
        with tr.span("certify.generate"):
            cert = generate_certificate(sol, padding=result.padding)
        with tr.span("certify.to_json"):
            doc = certificate_to_json(cert)
        text = json.dumps(doc)
        with tr.span("certify.from_json"):
            back = certificate_from_json(json.loads(text))
        with tr.span("certify.replay"):
            report = check_certificate(back)
        with tr.span("syntax.substitute"):
            target = substitute(phi, X, sol.formula)
        with tr.span("semantics.model_gen"):
            model = random_model(ModelGenParams(world_count=5, seed=7))
        with tr.span("semantics.eval"):
            world = equivalent_on(model, sol.formula, target)
    tr.count("semantics.models")
    tr.count("semantics.worlds", 5)
    if not equal_modulo_assoc(sol.formula, paper):
        return f"worked example: lambda {print_formula(sol.formula)} is not the paper's lambda1"
    if grouped_rule_ids(cert) != GOLDEN_GROUPS:
        return f"worked example: groups {grouped_rule_ids(cert)} differ from {GOLDEN_GROUPS}"
    if not report.ok or report.final != target:
        return f"worked example: certificate does not replay to phi(lambda): {report.reason}"
    if world is not None:
        return f"worked example: lambda fails the oracle at {world}"
    return None


def run_child(argv, cwd, stderr_path) -> tuple[int, str, float, int]:
    """Run one child to its end: exit code, stdout, wall seconds, peak RSS KiB."""
    env = dict(os.environ)
    env.pop("PDLFIX_SEED", None)
    with open(stderr_path, "wb") as err:
        started = now()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        elapsed = now() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), elapsed, usage.ru_maxrss


class Workload:
    """One gated workload.  ``op(i)`` runs op ``i`` of the seeded sequence and
    returns its phase durations in seconds and an error message or None."""

    name = ""
    unit = ""
    phases: tuple[str, ...] = ("op",)

    def __init__(self, seed: int, tr, root, small: bool = False):
        self.seed, self.tr, self.root, self.small = seed, tr, root, small

    def build(self) -> None:
        raise NotImplementedError

    def digest_lines(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_lines()).encode()).hexdigest()

    def op(self, i: int):
        raise NotImplementedError

    def item_counts(self) -> dict[str, int]:
        """Counts over the run's inputs, each input once: the same for a seed."""
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class Oracle(Workload):
    """One solution checked on a fresh random model, as ``fuzz --scope
    solutions`` and ``check --random`` do.  The op makes the three calls that
    ``check_solution_on`` makes (``is_x_free``, ``substitute`` and
    ``equivalent_on``), each under its span, after ``random_model``.  Op ``i``
    draws its model from seed ``derive_seed(seed, i)``: a pair comes back
    every ``len(items)`` ops, but never with the same model."""

    unit = "model checks"

    def __init__(self, seed, tr, root, small=False, *, name, items, draws, worlds):
        super().__init__(seed, tr, root, small)
        self.name = name
        self.count = 8 if small else items
        self.draws = draws
        self.worlds = worlds

    def build(self) -> None:
        tr = self.tr
        rng = random.Random(self.seed)
        self.items = []
        for t in range(self.count):
            kind, leading = CASES[t % 4]
            # n cycles through 1..3, the pair counts fuzz draws uniformly.
            d = typical_decomposition(rng, 1 + (t // 4) % 3, kind, leading, self.draws, tr)
            with tr.span("hierarchy.to_nested_form"):
                phi = to_nested_form(d)
            with tr.span("synthesis.solve"):
                lam = (solve_pi(d) if kind == "Pi" else solve_sigma(d)).formula
            self.items.append((phi, lam))

    def digest_lines(self) -> list[str]:
        return [f"{print_formula(phi)} => {print_formula(lam)}" for phi, lam in self.items]

    def op(self, i: int):
        j = i % len(self.items)
        phi, lam = self.items[j]
        params = ModelGenParams(world_count=self.worlds(j), seed=derive_seed(self.seed, i))
        tr = self.tr
        started = now()
        with tr.span("op", op=i):
            with tr.span("semantics.model_gen"):
                model = random_model(params)
            with tr.span("syntax.is_x_free"):
                free = is_x_free(lam, X)
            with tr.span("syntax.substitute"):
                instantiated = substitute(phi, X, lam)
            with tr.span("semantics.eval"):
                world = equivalent_on(model, lam, instantiated)
        elapsed = now() - started
        tr.count("semantics.models")
        tr.count("semantics.worlds", params.world_count)
        if not free:
            return {"op": elapsed}, f"op {i}: {print_formula(lam)} contains the unknown"
        if world is None:
            return {"op": elapsed}, None
        return {"op": elapsed}, (f"op {i}: {print_formula(lam)} fails at {world} on a "
                                 f"{params.world_count}-world model, seed {params.seed}")

    def item_counts(self) -> dict[str, int]:
        tree = distinct = 0
        for phi, lam in self.items:
            t, d = node_counts([lam, substitute(phi, X, lam)])
            tree, distinct = tree + t, distinct + d
        return {"syntax.tree_nodes": tree, "syntax.distinct_nodes": distinct}


def oracle_small(seed, tr, root, small=False) -> Oracle:
    # Pair counts cycle with period 12 and world counts with period 5, so the
    # 400 inputs meet every (case, n, worlds) combination.
    return Oracle(seed, tr, root, small, name="oracle-small", items=400, draws=1,
                  worlds=lambda j: 1 + j % 5)


def oracle_large(seed, tr, root, small=False) -> Oracle:
    # Eight inputs for each of the 12 (case, n) combinations: the median op
    # then moves little from seed to seed.  5 is prime to 96, so the inputs
    # get world counts spread evenly over 64..256, and so do the eight inputs
    # of one combination.
    return Oracle(seed, tr, root, small, name="oracle-large", items=96, draws=9,
                  worlds=lambda j: 64 + 192 * ((j * 5) % 96) // 95)


class CertifyRW(Workload):
    """Write a certificate as ``solve --certify`` does, then read it back as
    ``verify-cert`` does.  One op is one equation: a write and a read.  Op
    ``i`` takes input ``i % len(items)`` with its names renamed for repetition
    ``i // len(items)``, so no op repeats the terms of an earlier one."""

    name = "certify-rw"
    unit = "equations (one write plus one read)"
    phases = ("write", "read")

    def build(self) -> None:
        tr = self.tr
        # An odd number of pair counts puts the median op inside one stratum.
        pair_counts, per_case = ((2, 3), 1) if self.small else ((2, 3, 4), 4)
        with tr.span("textio.parse"):
            self.items = [parse_formula(EXAMPLE)]
            self.paper = parse_formula(PAPER_LAMBDA1)
        rng = random.Random(self.seed)
        for _ in range(per_case):
            for kind, leading in CASES:
                for n in pair_counts:
                    d = typical_decomposition(rng, n, kind, leading, 9, tr)
                    with tr.span("hierarchy.to_nested_form"):
                        self.items.append(to_nested_form(d))

    def digest_lines(self) -> list[str]:
        return [print_formula(phi) for phi in self.items]

    @staticmethod
    def write(phi, tr):
        with tr.span("hierarchy.classify"):
            result = classify(phi, X)
        with tr.span("synthesis.solve"):
            sol = solve(phi, X)
        with tr.span("certify.generate"):
            cert = generate_certificate(sol, padding=result.padding)
        with tr.span("certify.to_json"):
            doc = certificate_to_json(cert)
        return result, sol, cert, json.dumps(doc)

    def read(self, text):
        tr = self.tr
        doc = json.loads(text)
        with tr.span("certify.from_json"):
            back = certificate_from_json(doc)
        with tr.span("certify.replay"):
            report = check_certificate(back)
        parsed = parse_certificate_texts(doc, back, tr) if tr.enabled else []
        return report, parsed

    def op(self, i: int):
        k = i % len(self.items)
        suffix = rep_suffix(i // len(self.items))
        phi = renamed(self.items[k], suffix)
        started = now()
        with self.tr.span("op", op=i):
            result, sol, cert, text = self.write(phi, self.tr)
            middle = now()
            report, parsed = self.read(text)
        ended = now()
        return {"write": middle - started, "read": ended - middle}, \
            self.verify(i, k, suffix, phi, result, sol, cert, report, parsed)

    def verify(self, i, k, suffix, phi, result, sol, cert, report, parsed) -> str | None:
        if not isinstance(result, ClassifyResult):
            return f"op {i}: equation {k} did not classify"
        if not report.ok:
            return f"op {i}: replay failed at step {report.failed_step}: {report.reason}"
        if report.final != cert.target:
            return f"op {i}: replay ends away from the written target"
        if report.final != substitute(phi, X, sol.formula):
            return f"op {i}: replay ends away from phi(lambda)"
        if k == 0:
            if not equal_modulo_assoc(sol.formula, renamed(self.paper, suffix)):
                return f"op {i}: worked example lambda is not the paper's lambda1"
            if grouped_rule_ids(cert) != GOLDEN_GROUPS:
                return f"op {i}: worked example groups {grouped_rule_ids(cert)}"
        if any(got != made for _, got, made in parsed):
            return f"op {i}: direct parse differs from certificate_from_json"
        return None

    def item_counts(self) -> dict[str, int]:
        """Node, step and byte counts over the inputs as built, each written once."""
        tree = distinct = steps = size = 0
        for phi in self.items:
            _, sol, cert, text = self.write(phi, NullTracer())
            t, d = node_counts([sol.formula, substitute(phi, X, sol.formula)])
            tree, distinct = tree + t, distinct + d
            steps, size = steps + len(cert.steps), size + len(text.encode())
        return {"syntax.tree_nodes": tree, "syntax.distinct_nodes": distinct,
                "certify.steps": steps, "certify.bytes": size}


class CliCold(Workload):
    """Fresh-interpreter CLI runs, one child at a time: classify, solve
    --certify, verify-cert and check --random on each equation in turn."""

    name = "cli-cold"
    unit = "CLI runs"
    phases = COMMANDS

    def __init__(self, seed, tr, root, small=False, *, seeded=2):
        super().__init__(seed, tr, root, small)
        self.seeded = min(seeded, 1) if small else seeded
        self.workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
        self.peak = 0

    def build(self) -> None:
        tr = self.tr
        with tr.span("textio.parse"):
            phis = [parse_formula(EXAMPLE)]
        rng = random.Random(self.seed)
        for j in range(self.seeded):
            kind, leading = CASES[(j + 1) % 4]
            d = exact_decomposition(rng, 2 + j % 2, kind, leading, tr)
            with tr.span("hierarchy.to_nested_form"):
                phis.append(to_nested_form(d))
        self.equations = []
        for phi in phis:
            with tr.span("synthesis.solve"):
                lam = solve(phi, X).formula
            with tr.span("textio.print"):
                self.equations.append((print_formula(phi), print_formula(lam), phi, lam))
        os.makedirs(self.workdir, exist_ok=True)

    def digest_lines(self) -> list[str]:
        return [f"{text} => {lam}" for text, lam, _, _ in self.equations]

    def argv(self, i: int) -> tuple[str, int, list[str]]:
        command = COMMANDS[i % len(COMMANDS)]
        k = (i // len(COMMANDS)) % len(self.equations)
        text, lam, _, _ = self.equations[k]
        cert = os.path.join(self.workdir, f"cert-{k}.json")
        args = {
            "classify": ["classify", "--json", "--var", X, text],
            "solve": ["solve", "--json", "--var", X, "--certify", cert, text],
            "verify-cert": ["verify-cert", "--json", cert],
            "check": ["check", "--json", "--var", X, "--equation", text, "--candidate", lam,
                      "--random", str(CHECK_MODELS), "--seed", str(derive_seed(self.seed, i))],
        }[command]
        return command, k, [sys.executable, "-c", CLI_SHIM, *args]

    def op(self, i: int):
        command, k, argv = self.argv(i)
        stderr_path = os.path.join(self.workdir, "stderr.txt")
        started = now()
        with self.tr.span("op", op=i):
            with self.tr.span(f"cli.{command}"):
                code, out, _, rss = run_child(argv, self.root, stderr_path)
        elapsed = now() - started
        self.peak = max(self.peak, rss)
        return {command: elapsed}, self.verify(i, command, k, code, out, stderr_path)

    def verify(self, i, command, k, code, out, stderr_path) -> str | None:
        if code != 0:
            with open(stderr_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-300:]
            return f"op {i}: {command} exited {code}: {tail}"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"op {i}: {command} stdout is not exactly one JSON document"
        lam = self.equations[k][1]
        good = {
            "classify": lambda: doc.get("status") == "classified",
            "solve": lambda: doc.get("lambda") == lam
            and (k != 0 or doc.get("certificateGroups") == GOLDEN_GROUPS),
            "verify-cert": lambda: doc.get("ok") is True,
            "check": lambda: doc.get("passed") is True and doc.get("checked") == CHECK_MODELS,
        }[command]()
        return None if good else f"op {i}: {command} reported {out.strip()[:300]}"

    def item_counts(self) -> dict[str, int]:
        tree = distinct = 0
        for _, _, phi, lam in self.equations:
            t, d = node_counts([lam, substitute(phi, X, lam)])
            tree, distinct = tree + t, distinct + d
        return {"syntax.tree_nodes": tree, "syntax.distinct_nodes": distinct}

    def peak_rss_kib(self) -> int:
        return self.peak

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "oracle-small": oracle_small,
    "oracle-large": oracle_large,
    "certify-rw": CertifyRW,
    "cli-cold": CliCold,
}
