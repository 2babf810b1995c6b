"""Command-line front end: classify, solve, check, fuzz, verify-cert.

Exit codes are a stable scripting contract: 0 success, 1 semantic
counterexample found, 2 input or usage error, 3 internal failure (a solution
that cannot be certified, any unexpected exception, or a failed write to
stdout, reported on stderr), 130 interrupted (SIGINT, reported on stderr).
``--json`` emits exactly one JSON document on stdout, for errors too.
The environment variable ``PDLFIX_SEED`` overrides ``--seed``.

Each command imports the modules it runs inside its own function, so a cold
``classify`` never loads the model checker or the certificate code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .syntax import Atom, AtomicProg, NegAtom, Var, is_x_free, substitute, subterms, variables
from .textio import parse_formula, print_formula

OK, COUNTEREXAMPLE, USAGE_ERROR, INTERNAL_FAILURE = 0, 1, 2, 3
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process it interrupted

__all__ = ["main", "console"]


class _InputError(Exception):
    """Bad input to a command; ``main`` reports it and exits 2."""


class _OutputError(Exception):
    """A failed write to stdout; ``main`` reports it on stderr and exits 3."""


def _read_formula_arg(text: str):
    """A formula given as text or as ``@file``."""
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as handle:
                text = handle.read()
        return parse_formula(text)
    except (OSError, ValueError) as exc:  # ParseError
        raise _InputError(str(exc)) from exc


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    try:
        for line in [json.dumps(doc, indent=2)] if args.json else human_lines:
            print(line)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _effective_seed(args) -> int:
    env = os.environ.get("PDLFIX_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise _InputError(f"PDLFIX_SEED must be an integer, got {env!r}") from None


def cmd_classify(args) -> int:
    from .hierarchy import XFree, _classify_or_reason, decomposition_to_json

    phi = _read_formula_arg(args.formula)
    outcome, reason = _classify_or_reason(phi, args.var, strict=args.strict)
    if isinstance(outcome, XFree):
        _emit(args, {"status": "x-free", "x": args.var},
              [f"{print_formula(phi)} is {args.var}-free: the equation is trivial"])
        return OK
    if outcome is None:
        message = f"not in class: {reason}"
        _emit(args, {"status": "not-in-class", "detail": message}, [message])
        return USAGE_ERROR
    doc = decomposition_to_json(outcome)
    doc["status"] = "classified"
    d = outcome.decomposition
    lines = [f"kind: {d.kind}", f"level: {d.level}", f"pairs: {d.n}",
             f"leading modality: {d.leading_modality}"]
    for i, pair in enumerate(d.pairs, 1):
        alpha = "-" if pair.alpha is None else doc["pairs"][i - 1]["alpha"]
        lines.append(f"  pair {i}: phi={doc['pairs'][i-1]['phi']}  psi={doc['pairs'][i-1]['psi']}  alpha={alpha}")
    for pad in doc["padding"]:
        slots = [name for name, flag in (("phi", pad["phiPadded"]), ("psi", pad["psiPadded"]))
                 if flag]
        notes = [f"{s} padded" for s in slots]
        notes += [n for n, flag in (("or commuted", pad["orCommuted"]),
                                    ("and commuted", pad["andCommuted"])) if flag]
        lines.append(f"  pair {pad['index']}: " + ", ".join(notes))
    _emit(args, doc, lines)
    return OK


def cmd_solve(args) -> int:
    from .synthesis import NotInClass, _solve

    phi = _read_formula_arg(args.formula)
    try:
        sol, outcome = _solve(phi, args.var, args.strategy)
    except NotInClass as exc:
        _emit(args, {"status": "not-in-class", "detail": str(exc)}, [f"error: {exc}"])
        return USAGE_ERROR
    doc = sol.to_json()
    lines = [print_formula(sol.formula)]
    if args.certify is not None:
        from .certify import (CertifyError, certificate_to_json, generate_certificate,
                              grouped_rule_ids)

        padding = () if sol.decomposition is None else outcome.padding
        try:
            cert = generate_certificate(sol, padding=padding)
        except CertifyError as exc:
            _emit(args, {"status": "certificate-failure", "lambda": doc["lambda"],
                         "message": str(exc)}, [f"certificate generation failed: {exc}"])
            return INTERNAL_FAILURE
        path = args.certify
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(certificate_to_json(cert), handle, indent=2)
        except OSError as exc:
            raise _InputError(str(exc)) from exc
        doc["certificate"] = path
        doc["certificateGroups"] = grouped_rule_ids(cert)
        lines.append(f"certificate: {path}")
    _emit(args, doc, lines)
    return OK


def cmd_check(args) -> int:
    from .semantics import check_solution_on, equivalent_on, load_model, model_to_json

    phi = _read_formula_arg(args.equation)
    candidate = _read_formula_arg(args.candidate)
    if not is_x_free(candidate, args.var):
        raise _InputError(f"candidate contains the unknown {args.var}")
    seed = _effective_seed(args)
    if args.model is not None:
        try:
            models = [load_model(args.model)]
        except (ValueError, OSError) as exc:
            raise _InputError(str(exc)) from exc
    else:
        import random

        from .generators import derive_seed
        from .semantics import ModelGenParams, random_model

        rng = random.Random(seed)
        atoms_e, progs_e = _collect_names(phi)
        atoms_c, progs_c = _collect_names(candidate)
        atoms = tuple(sorted(atoms_e | atoms_c)) or ("p",)
        var_names = tuple(sorted(variables(phi) | variables(candidate)))
        progs = tuple(dict.fromkeys(progs_e + progs_c)) or ("a",)
        # Drawn as they are checked: memory does not grow with N.
        models = (
            random_model(ModelGenParams(
                world_count=rng.randint(1, args.worlds),
                atom_names=atoms,
                var_names=var_names,
                prog_names=progs,
                seed=derive_seed(seed, i),
            ))
            for i in range(args.random)
        )
    instantiated = substitute(phi, args.var, candidate)
    checked = 0
    for model in models:
        checked += 1
        if equivalent_on(model, candidate, instantiated) is not None:
            report = check_solution_on(model, args.var, phi, candidate)
            doc = report.to_json()
            doc["checked"] = checked
            doc["seed"] = seed
            _emit(args, doc, [
                f"counterexample after {checked} model(s): world {report.counterexample_world}",
                f"  candidate:    {print_formula(report.candidate)}",
                f"  instantiated: {print_formula(report.instantiated)}",
                f"  model: {json.dumps(model_to_json(report.model))}",
            ])
            return COUNTEREXAMPLE
    _emit(args, {"passed": True, "checked": checked, "seed": seed},
          [f"all {checked} model(s) agree: candidate solves the equation"])
    return OK


def _collect_names(phi) -> tuple[set[str], list[str]]:
    """Atom names and atomic program names of a formula, the programs in order
    of first occurrence (it fixes the seeded models)."""
    atoms: set[str] = set()
    progs: list[str] = []
    for node in subterms(phi):
        if isinstance(node, (Atom, NegAtom)):
            atoms.add(node.name)
        elif isinstance(node, AtomicProg) and node.name not in progs:
            progs.append(node.name)
    return atoms, progs


def _fuzz_rules(seed: int, trials: int, models_per_trial: int) -> tuple[int, int, dict | None]:
    from .certify import validate_rules

    report = validate_rules(trials=trials, models_per_trial=models_per_trial, seed=seed)
    checks = sum(entry.trials for entry in report.values())
    failures = sum(entry.counterexamples for entry in report.values())
    first = next((entry.first_failure for entry in report.values() if entry.first_failure), None)
    return checks, failures, first


def _fuzz_solutions(seed: int, trials: int, models_per_trial: int,
                    max_pairs: int, depth: int) -> tuple[int, int, dict | None]:
    import random

    from .generators import derive_seed, random_decomposition
    from .hierarchy import to_nested_form
    from .semantics import ModelGenParams, check_solution_on, equivalent_on, random_model
    from .synthesis import solve_pi, solve_sigma

    rng = random.Random(seed)
    failures = 0
    first = None
    cases = [("Pi", False), ("Pi", True), ("Sigma", False), ("Sigma", True)]
    try:
        for trial in range(trials):
            kind, leading = cases[trial % 4]
            d = random_decomposition(rng, kind=kind, leading=leading,
                                     max_pairs=max_pairs, depth=depth)
            phi_x = to_nested_form(d)
            sol = solve_pi(d) if kind == "Pi" else solve_sigma(d)
            instantiated = substitute(phi_x, d.x, sol.formula)
            for k in range(models_per_trial):
                params = ModelGenParams(world_count=1 + (k % 5),
                                        seed=derive_seed(seed + trial, k))
                model = random_model(params)
                if equivalent_on(model, sol.formula, instantiated) is not None:
                    failures += 1
                    if first is None:
                        first = check_solution_on(model, d.x, phi_x, sol.formula).to_json()
                        first["trial"] = trial
    except RecursionError:
        # The equation's nesting grows with its pair count, which only the
        # flags bound, so this is a usage error, not an internal one.
        raise _InputError(f"--max-pairs {max_pairs} drew an equation nested too deeply "
                          f"(trial {trial}); use a smaller --max-pairs") from None
    return trials * models_per_trial, failures, first


def cmd_fuzz(args) -> int:
    """One document for the scopes run: their summed checks and failures, and
    the first counterexample, which replays from the seed."""
    import time

    seed = _effective_seed(args)
    started = time.perf_counter()
    scopes = []
    if args.scope in ("rules", "both"):
        scopes.append(_fuzz_rules(seed, args.trials, args.models_per_trial))
    if args.scope in ("solutions", "both"):
        scopes.append(_fuzz_solutions(seed, args.trials, args.models_per_trial,
                                      args.max_pairs, args.depth))
    checks = sum(c for c, _, _ in scopes)
    failures = sum(f for _, f, _ in scopes)
    first = next((cex for _, _, cex in scopes if cex), None)
    wall_time = time.perf_counter() - started
    doc = {
        "command": (f"pdlfix fuzz --scope {args.scope} --trials {args.trials} "
                    f"--models-per-trial {args.models_per_trial} "
                    f"--max-pairs {args.max_pairs} --depth {args.depth} --seed {seed}"),
        "scope": args.scope,
        "seed": seed,
        "trials": args.trials,
        "checks": checks,
        "failures": failures,
        "firstCounterexample": first,
        "wallTime": round(wall_time, 3),
    }
    _emit(args, doc, [
        f"scope={args.scope} seed={seed} trials={args.trials}",
        f"checks: {checks}  failures: {failures}  ({wall_time:.2f}s)",
    ] + ([f"first counterexample: {json.dumps(first)}"] if first else []))
    return OK if failures == 0 else COUNTEREXAMPLE


def cmd_verify_cert(args) -> int:
    from .certify import _read, grouped_rule_ids

    try:
        with open(args.certificate, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed certificate file {args.certificate}: {exc}") from exc
        cert, report = _read(doc)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    doc = {
        "ok": report.ok,
        "stepsApplied": report.steps_applied,
        "failedStep": report.failed_step,
        "reason": report.reason,
        "groups": grouped_rule_ids(cert),
    }
    lines = [f"steps applied: {report.steps_applied}"]
    if report.ok:
        lines.insert(0, "certificate verified")
    else:
        lines.insert(0, f"certificate REJECTED: {report.reason}")
    _emit(args, doc, lines)
    return OK if report.ok else COUNTEREXAMPLE


def _at_least(minimum: int):
    """An argparse ``type`` for integers no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _variable_name(text: str) -> str:
    """An argparse ``type`` for the equation unknown: a name ``Var`` accepts."""
    try:
        return Var(text).name
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting so that ``main``
    can report it in the run's output mode."""


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError of its own write, so that --help on a full
        # stdout would exit 0 unbuffered; let it reach main, which exits 3.
        file = file or sys.stderr
        if message and file is not None:  # None: the stream was closed at start
            file.write(message)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _wants_json(argv: list[str]) -> bool:
    # argparse accepts any unambiguous prefix of an option, such as --js.
    return any(len(arg) > 2 and "--json".startswith(arg) for arg in argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pdlfix",
        description="Fixed-point equations in propositional dynamic logic: "
                    "classify, solve, verify, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="hierarchy membership and components")
    p.add_argument("--var", required=True, type=_variable_name,
                   help="equation unknown (uppercase identifier)")
    p.add_argument("--strict", action="store_true", help="disable commutation matching")
    p.add_argument("--json", action="store_true")
    p.add_argument("formula", help="formula text or @file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="synthesize an explicit solution")
    p.add_argument("--var", required=True, type=_variable_name)
    p.add_argument("--strategy", choices=["duality", "literal"], default="duality")
    p.add_argument("--certify", nargs="?", const="certificate.json", default=None,
                   metavar="FILE", help="also write a rewrite certificate")
    p.add_argument("--json", action="store_true")
    p.add_argument("formula", help="formula text or @file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="model-check a candidate solution")
    p.add_argument("--var", required=True, type=_variable_name)
    p.add_argument("--equation", required=True, help="formula text or @file")
    p.add_argument("--candidate", required=True, help="formula text or @file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model JSON file")
    group.add_argument("--random", type=_at_least(1), metavar="N",
                       help="check on N random models")
    p.add_argument("--worlds", type=_at_least(1), default=5, help="max worlds per random model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="randomized soundness runs")
    p.add_argument("--scope", choices=["rules", "solutions", "both"], default="both")
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--models-per-trial", type=_at_least(1), default=10)
    p.add_argument("--max-pairs", type=_at_least(1), default=3)
    p.add_argument("--depth", type=_at_least(0), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("verify-cert", help="replay a certificate file")
    p.add_argument("--json", action="store_true")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()  # so that a failed write is reported here, not at exit
    except (_OutputError, OSError) as exc:  # only output escapes _run as OSError
        _drop_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return INTERNAL_FAILURE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED
    return code


def _run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        if _wants_json(argv):
            print(json.dumps({"status": "error", "message": str(exc)}, indent=2))
        return USAGE_ERROR
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except _InputError as exc:
        _emit(args, {"status": "error", "message": str(exc)}, [f"error: {exc}"])
        return USAGE_ERROR
    except _OutputError:
        raise  # the document is lost: write no second one
    except Exception as exc:  # the last boundary: no traceback reaches the user
        message = f"{type(exc).__name__}: {exc}"
        _emit(args, {"status": "internal-error", "message": message},
              [f"internal error: {message}"])
        return INTERNAL_FAILURE


def _drop_stdout() -> None:
    """Point stdout at the null device, so that what a failed write left in
    its buffer goes nowhere and the interpreter's flush at exit succeeds."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stdout with no descriptor of its own
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
