"""The benchmark's own tests: a smoke run of every workload at tiny sizes, and
determinism of the inputs and counts made from a seed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

WL = run.load_workloads()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_of(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_untraced_reports_every_end_to_end_metric(capsys, workload):
    line = result_of(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--small"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["oracle-small", "certify-rw"])
def test_smoke_traced_reports_every_per_layer_metric(capsys, workload):
    line = result_of(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.3",
                              "--small", "--trace", "1"])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert 0.5 < line["metrics"]["trace.coverage"]["value"] <= 1.0


def built(name: str, seed: int):
    wl = WL.WORKLOADS[name](seed, tracing.NullTracer(), str(run.ROOT), small=True)
    wl.build()
    return wl


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_and_counts(workload):
    first, again, other = built(workload, 11), built(workload, 11), built(workload, 12)
    try:
        assert first.digest() == again.digest()
        assert first.digest() != other.digest()
        counts = first.item_counts()
        assert counts == again.item_counts()
        if isinstance(first, WL.CertifyRW):
            assert counts["certify.bytes"] > 0 and counts["certify.steps"] > 0
    finally:
        for wl in (first, again, other):
            wl.close()


def test_node_counts_share_equal_subterms():
    phi = WL.parse_formula("[a]p & [a]p")
    assert WL.node_counts([phi]) == (7, 4)
    assert WL.node_counts([phi, WL.parse_formula("[a]p")]) == (10, 4)


def test_renamed_copy_has_the_same_shape_and_other_names():
    phi = WL.parse_formula(WL.EXAMPLE)
    copy = WL.renamed(phi, WL.rep_suffix(27))
    assert WL.print_formula(copy) == "pbb & [abb](qbb | rbb & X)"
    assert copy != phi and WL.renamed(phi, WL.rep_suffix(27)) == copy
    assert WL.node_counts([copy]) == WL.node_counts([phi])
