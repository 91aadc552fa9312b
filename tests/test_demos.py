"""The demos run to completion and print exactly their pinned output.

Each demo's stdout is fixed by its seeds, so a refactor that claims
unchanged behaviour must keep these SHA-256 digests. A change that means
to alter a demo's output updates its digest here and says so.

Demo 04 (about 47 s) is left out: its `run_trials`/`emit_csv` path is
covered by the CLI tests and the benchmark's CSV digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_rings_and_linear_systems.py":
        "7123cecbac3a8549411f538868ec1d40efbf0310b7ff7338da26ea78a4708a22",
    "02_modules_rank_and_products.py":
        "42459847eeeb7bc6d5c132f37f8ded0aa0aab3c3159efdfb8ad71ea9824d37cc",
    "03_lrpc_codes_encode_decode.py":
        "6a3588a0ee7aae8ac656c5a4db84e199e9ca9e0a444634c4180ccc35d01b388e",
    "05_composite_rings_crt.py":
        "750550886908ad22da883c5777c3f36b925bb69ae15db9568485b714cec22aea",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
