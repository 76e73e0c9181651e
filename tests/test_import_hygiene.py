"""The runtime needs numpy alone: importing the package loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    code = (
        "import sys, sienna, sienna.cli, sienna.bench; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
