"""The demos run to completion.

Demo 04 (about 47 s) is left out: its `run_trials`/`emit_csv` path is
covered by the CLI tests and the benchmark's CSV digests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_rings_and_linear_systems.py",
    "02_modules_rank_and_products.py",
    "03_lrpc_codes_encode_decode.py",
    "05_composite_rings_crt.py",
])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
