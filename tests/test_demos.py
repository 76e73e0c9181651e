"""Every demo prints exactly its golden output.

The golden files hold each demo's stdout; the demos are seeded, so any
difference is a change in behaviour (or in the demo itself).
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"{demo.stem}.out").read_text()
