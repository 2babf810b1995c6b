#!/usr/bin/env python3
"""The pdlfix benchmark.

Gated runs (one workload, untraced; end-to-end metrics)::

    python3 perfbench/run.py --workload oracle-small --seed 1 --seconds 25 --trace 0

Traced run (per-layer metrics from spans around every call into pdlfix)::

    python3 perfbench/run.py --workload certify-rw --seed 1 --seconds 25 --trace 1

Every workload in turn, and the scaling sweep outside the gate::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --sweep

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
report every metric by name and unit.  Full reports and spans are written to
``perfbench/out/``.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOAD_NAMES = ("oracle-small", "oracle-large", "certify-rw", "cli-cold")
SETUP_PROBES = 5
WARMUP_S = 0.5
# Share of the window rerun (half untraced, half traced) to price the tracing.
OVERHEAD_SHARE = 0.25
PROBE_REPEATS = 3
P90_MIN_SAMPLES = 100
# The reference loop takes about REF_S on a quiet core of the host described
# in perfbench/README.md; it runs again once REF_EVERY_S of ops have passed.
REF_S = 1e-3
REF_LOOPS = 6000
REF_EVERY_S = 0.02
# A set-up probe times the reference loop SETUP_REFS times once it is ready.
SETUP_REFS = 20
LAYERS = ("textio", "syntax", "hierarchy", "synthesis", "generators", "semantics", "certify", "cli")
SPAN_METRICS = {
    "semantics.eval_s": "semantics.eval",
    "semantics.model_gen_s": "semantics.model_gen",
    "syntax.substitute_s": "syntax.substitute",
    "generators.decomposition_s": "generators.decomposition",
    "hierarchy.classify_s": "hierarchy.classify",
    "synthesis.solve_s": "synthesis.solve",
    "certify.generate_s": "certify.generate",
    "certify.to_json_s": "certify.to_json",
    "certify.from_json_s": "certify.from_json",
    "certify.replay_s": "certify.replay",
    "textio.parse_s": "textio.parse",
}


def now() -> float:
    return time.perf_counter()


def load_workloads():
    """Import pdlfix from this checkout's ``src/`` and nowhere else."""
    init = ROOT / "src" / "pdlfix" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no pdlfix sources at {init}; run it from a pdlfix checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pdlfix
    if Path(pdlfix.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported pdlfix from {pdlfix.__file__}, not {init}")
    import workloads
    return workloads


def reference_s() -> float:
    """Wall seconds of a fixed loop of the benchmark's own, with the collector
    off so that no garbage left by pdlfix is collected in it: the speed of the
    host at this moment, which no change to pdlfix can move."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = now()
        table: dict[tuple[int, int], int] = {}
        for i in range(REF_LOOPS):
            key = (i & 63, i % 7)
            table[key] = table.get(key, 0) + i
        return now() - started
    finally:
        if collecting:
            gc.enable()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def code_counters() -> dict[str, int]:
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))]
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle)["project"].get("dependencies", [])
    return {
        "code.src_lines": sum(text.count("\n") for text in texts),
        "code.isinstance_checks": sum(text.count("isinstance(") for text in texts),
        "code.runtime_deps": len(deps),
    }


def environment(load: tuple[float, float, float]) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
        "platform": platform.platform(),
    }


def setup_probe(wl_mod, name: str, seed: int, small: bool) -> tuple[float, str, float]:
    """Seconds from starting a fresh interpreter until it has imported pdlfix
    and built the workload's inputs, the line it then printed, and the median
    time of the reference loop that it ran after that line."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name,
            "--seed", str(seed)] + (["--small"] if small else [])
    started = now()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = now() - started
        ref = proc.stdout.read().split()
        proc.wait(timeout=wl_mod.CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return ready, line.decode("utf-8", "replace").strip(), float(ref[-1]) if ref else math.nan


class Tally:
    """Ops attempted and failed; the first few failures are kept verbatim."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def note(self, error: str | None) -> None:
        if error is not None and len(self.errors) < 10:
            self.errors.append(error)

    def run(self, wl, i: int) -> dict | None:
        self.attempted += 1
        try:
            durations, error = wl.op(i)
        except Exception as exc:  # a crashing op is a failed op: count it, go on
            durations, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.note(error)
        return durations


def timed_import(wl_mod, module: str, stderr_path: str) -> float:
    code = (f"import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    status, out, _, _ = wl_mod.run_child([sys.executable, "-c", code], str(ROOT), stderr_path)
    if status != 0:
        raise RuntimeError(f"importing {module} in a fresh interpreter exited {status}")
    return float(out)


def cli_probe(wl_mod, wl, tr, seed: int, tally: Tally) -> dict[str, float]:
    """Cold start-up costs, and one run of each command on the worked example."""
    cli = wl if isinstance(wl, wl_mod.CliCold) else wl_mod.CliCold(seed, tr, str(ROOT), seeded=0)
    try:
        with tr.span("probe", op="cli-probe"):
            if cli is not wl:
                cli.build()
            stderr_path = os.path.join(cli.workdir, "stderr.txt")
            interpreter, imports, numpy = [], [], []
            for _ in range(PROBE_REPEATS):
                with tr.span("cli.interpreter"):
                    status, _, seconds, _ = wl_mod.run_child([sys.executable, "-c", "pass"],
                                                             str(ROOT), stderr_path)
                if status != 0:
                    raise RuntimeError(f"an empty interpreter run exited {status}")
                interpreter.append(seconds)
                imports.append(timed_import(wl_mod, "pdlfix", stderr_path))
                numpy.append(timed_import(wl_mod, "numpy", stderr_path))
        for j in range(len(wl_mod.COMMANDS)):
            tally.run(cli, j)
    finally:
        if cli is not wl:
            cli.close()
    out = {
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy) * 1e3,
    }
    for command in wl_mod.COMMANDS:
        out[f"cli.{command.replace('-', '_')}_ms"] = statistics.median(tr.durations(f"cli.{command}")) * 1e3
    return out


def run_workload(wl_mod, name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    load = os.getloadavg()
    tr = tracing.Tracer() if trace else tracing.NullTracer()
    wl = wl_mod.WORKLOADS[name](seed, tr, str(ROOT), small)
    tally = Tally()
    try:
        with tr.span("setup", op="setup"):
            wl.build()
        tally.attempted += 1
        error = wl_mod.worked_example(tr)
        if error is not None:
            tally.failed += 1
            tally.note(error)
        digest = wl.digest()
        # Each probe is scaled by the reference loop timed in that same
        # child, right after its set-up (see "Host speed" in the README).
        setups, setups_wall = [], []
        for _ in range(1 if small or trace else SETUP_PROBES):
            seconds_taken, line, ref = setup_probe(wl_mod, name, seed, small)
            setups.append(seconds_taken * REF_S / ref)
            setups_wall.append(seconds_taken)
            if line != f"ready {digest}":
                tally.errors.append(f"a fresh interpreter built other inputs for seed {seed}: "
                                    f"{line[:300]}")

        started, i = now(), 0
        while now() - started < WARMUP_S or i == 0:
            tally.run(wl, i)
            i += 1

        # A shared host switches, within seconds or minutes, between a fast
        # state and one about 1.75 times slower.  So each op is also timed in
        # units of the reference loop run just before it: its wall time times
        # REF_S / that loop's time.  The window goes on from the warm-up's op
        # ids, so no op in it repeats one of those.  Flat arrays keep the
        # benchmark's own memory out of peak RSS.
        latencies = array.array("d")
        normalised = array.array("d")
        refs = array.array("d")
        phases = {phase: array.array("d") for phase in wl.phases}
        since_ref = math.inf
        started = now()
        while True:
            if since_ref >= REF_EVERY_S:
                refs.append(reference_s())
                scale, since_ref = REF_S / refs[-1], 0.0
            durations = tally.run(wl, i)
            if durations is None:
                since_ref = math.inf
            else:
                total = sum(durations.values())
                since_ref += total
                latencies.append(total)
                normalised.append(total * scale)
                for phase, seconds_taken in durations.items():
                    phases[phase].append(seconds_taken * scale)
            i += 1
            if now() - started >= seconds:
                break
        window = now() - started

        extra = {}
        if trace:
            extra["trace.coverage"] = tr.coverage()
            extra["trace.overhead_s"] = tracing_overhead(wl, latencies, seconds, tally)
            extra.update(cli_probe(wl_mod, wl, tr, seed, tally))
        counts = wl.item_counts()
        rss_kib = wl.peak_rss_kib()
    finally:
        wl.close()

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "window_s": window, "unit": wl.unit, "samples": len(latencies),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "errors": tally.errors, "digest": digest,
        "env": environment(load), "code": code_counters(),
    }
    if trace:
        report["line"] = layer_metrics(tr, counts, extra, report["code"])
        report["metrics"] = dict(report["line"])
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"{name}-seed{seed}-spans.json", {"workload": name, "seed": seed})
    else:
        gated = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(normalised) / sum(normalised), "1/s"),
            "op_p50_ms": (statistics.median(normalised) * 1e3, "ms"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
        }
        report["line"] = gated
        report["metrics"] = {**gated, **report_only_metrics(wl, phases, normalised, counts)}
        report["metrics"].update({
            "setup_wall_s": (statistics.median(setups_wall), "s"),
            "ops_per_wall_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_wall_ms": (statistics.median(latencies) * 1e3, "ms"),
            "ref_p50_ms": (statistics.median(refs) * 1e3, "ms"),
            "failed_ratio": (report["failed_ratio"], "ratio"),
        })
        report["setup_samples_s"] = setups
    return report


def tracing_overhead(wl, latencies, seconds: float, tally: Tally) -> float:
    """Traced minus untraced seconds over the first ops of the window, each
    run again untraced and traced in turn so that drifts in machine speed
    fall on both sides.  The spans of these reruns are dropped."""
    tr = wl.tr
    mark, counts = len(tr.spans), tr.counts.copy()
    budget, spent, count = seconds * OVERHEAD_SHARE / 2, 0.0, 0
    while count < len(latencies) and spent < budget:
        spent += latencies[count]
        count += 1
    traced = untraced = 0.0
    try:
        for i in range(count):
            wl.tr = tracing.NullTracer()
            plain = tally.run(wl, i)
            wl.tr = tr
            timed = tally.run(wl, i)
            if plain is not None and timed is not None:
                untraced += sum(plain.values())
                traced += sum(timed.values())
    finally:
        wl.tr = tr
        del tr.spans[mark:]
        tr.counts = counts
    return traced - untraced


def report_only_metrics(wl, phases, latencies, counts: dict) -> dict:
    out = {}
    if len(latencies) >= P90_MIN_SAMPLES:
        out["op_p90_ms"] = (percentile(latencies, 90) * 1e3, "ms")
    if len(wl.phases) > 1:
        for phase, values in phases.items():
            if values:
                out[f"{phase}_p50_ms"] = (statistics.median(values) * 1e3, "ms")
            if len(values) >= P90_MIN_SAMPLES:
                out[f"{phase}_p90_ms"] = (percentile(values, 90) * 1e3, "ms")
    if "certify.bytes" in counts:
        out["cert_bytes"] = (counts["certify.bytes"], "bytes")
    return out


def layer_metrics(tr, counts: dict, extra: dict, code: dict) -> dict:
    totals = tr.totals()
    out = {metric: (totals.get(span, 0.0), "s") for metric, span in SPAN_METRICS.items()}
    for name in ("semantics.models", "semantics.worlds", "textio.parse_chars"):
        out[name] = (tr.counts[name], "count")
    for name in ("syntax.tree_nodes", "syntax.distinct_nodes", "certify.steps"):
        out[name] = (counts.get(name, 0), "count")
    out["certify.bytes"] = (counts.get("certify.bytes", 0), "bytes")
    for name, value in extra.items():
        out[name] = (value, "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "ratio")
    self_times = tr.self_times()
    for layer in LAYERS + ("op",):
        out[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    out["trace.spans"] = (len(tr.spans), "count")
    for name, value in code.items():
        out[name] = (value, "count")
    return out


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"window {report['window_s']:.2f} s  samples {report['samples']} ({report['unit']})  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    for name, (value, unit) in report["metrics"].items():
        gate = "  (gated)" if name in report["line"] and not report["trace"] else ""
        print(f"  {name:28s} {value:>16.6g} {unit}{gate}")
    env = report["env"]
    print(f"  env: python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}")
    print("  code: " + "  ".join(f"{k} {v}" for k, v in report["code"].items()))
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def result_line(report: dict) -> dict:
    return {
        "correct": report["failed"] == 0 and not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["line"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pdlfix benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for smoke tests")
    parser.add_argument("--sweep", action="store_true", help="per-layer scaling sweep, not gated")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("give --workload or --sweep")

    # One CPU for this process and every child it starts, so that the
    # reference loop times the CPU that the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl_mod = load_workloads()
    if args.probe_setup:
        wl = wl_mod.WORKLOADS[args.workload](args.seed, tracing.NullTracer(), str(ROOT), args.small)
        try:
            wl.build()
            error = wl_mod.worked_example(tracing.NullTracer())
            print(f"ready {wl.digest()}" if error is None else f"error {error}", flush=True)
            print(statistics.median(reference_s() for _ in range(SETUP_REFS)), flush=True)
        finally:
            wl.close()
        return 0
    if args.sweep:
        import sweep
        OUT.mkdir(exist_ok=True)
        points = sweep.run_sweep(args.seed, OUT / "sweep.json", environment(os.getloadavg()))
        return 1 if any(point["failures"] for point in points) else 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        report = run_workload(wl_mod, name, args.seed, args.seconds, bool(args.trace), args.small)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print_report(report)
        results[name] = result_line(report)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": {name: r["metrics"] for name, r in results.items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
