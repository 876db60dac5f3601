"""The package loads neither scipy nor sympy: both are test-only oracles."""

import os
import subprocess
import sys
from pathlib import Path

import skostka

SRC = str(Path(skostka.__file__).resolve().parents[1])


def test_cli_import_loads_neither_scipy_nor_sympy():
    code = (
        "import skostka.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'sympy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.strip() == "[]"
