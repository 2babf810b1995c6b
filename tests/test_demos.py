"""Every demo prints, byte for byte, the transcript kept in demos/expected/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_transcript(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()


def test_every_transcript_has_its_demo():
    kept = {path.stem for path in (ROOT / "demos" / "expected").glob("*.txt")}
    assert kept == {demo.stem for demo in DEMOS}
