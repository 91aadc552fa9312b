"""The benchmark's output checks, its timing arithmetic, and its CSVs
against `lrpc-sim simulate`.

The parity test runs each workload for a few trials per t in-process,
through the same `run_pass` the benchmark times, and through `python -m
lrpc_rings simulate` with the same flags and seed; the two CSVs must be
identical.

    python3 -m pytest perfbench -q
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_args  # noqa: E402

TRIALS = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_in_process_csv_matches_cli(name, tmp_path):
    from lrpc_rings import lrpc, product_ring, simulate

    config = simulate.ExperimentConfig(
        seed=DEFAULT_SEED, **dict(WORKLOADS[name], trials=TRIALS))
    ours = tmp_path / "bench.csv"
    result = run.run_pass((lrpc, product_ring, simulate), config, ours)
    assert result["errors"] == [] and result["op_errors"] == 0
    assert result["trials"] == TRIALS * len(config.t_values)

    theirs = tmp_path / "cli.csv"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lrpc_rings", "simulate",
         *cli_args(name, DEFAULT_SEED, TRIALS), "--out", str(theirs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ours.read_bytes() == theirs.read_bytes()


def _small_code():
    import numpy as np
    from lrpc_rings import CodeParams, ExtensionDesc, Zmod, encode, generate_code

    rng = np.random.default_rng(7)
    ext = ExtensionDesc(Zmod(4), 10)
    code = generate_code(CodeParams(10, 4, 2, 2), ext, rng)
    return code, encode(code, ext.rand(rng, (4,)))


def test_checker_counts_a_non_codeword():
    from lrpc_rings import lrpc, product_ring, simulate

    code, cw = _small_code()
    checker = run.Checker((lrpc, product_ring, simulate))
    checker(1, 0, code, cw, cw)
    checker(1, 1, code, cw, lrpc.DecodingFailure(14))
    bad = cw.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 4
    checker(1, 2, code, cw, bad)
    assert checker.tally == {1: {0: 1, 14: 1}}
    assert checker.non_codewords == 1 and len(checker.errors) == 1


def test_outcome_digest_tells_trials_apart():
    from lrpc_rings import lrpc, product_ring, simulate

    code, cw = _small_code()
    lib = (lrpc, product_ring, simulate)
    first, second = run.Checker(lib), run.Checker(lib)
    # The same per-t counts, reached by different trials.
    first(1, 0, code, cw, cw)
    first(1, 1, code, cw, lrpc.DecodingFailure(14))
    second(1, 0, code, cw, lrpc.DecodingFailure(14))
    second(1, 1, code, cw, cw)
    assert first.tally == second.tally
    assert first.outcomes.hexdigest() != second.outcomes.hexdigest()


@pytest.mark.parametrize("key, table", [("digest", "EXPECTED_CSV_SHA256"),
                                        ("outcomes", "EXPECTED_OUTCOME_SHA256")])
def test_digest_mismatch_is_an_error(monkeypatch, key, table):
    for other in ("EXPECTED_CSV_SHA256", "EXPECTED_OUTCOME_SHA256"):
        monkeypatch.setitem(getattr(run, other), "ref-z4", {})
    monkeypatch.setitem(getattr(run, table), "ref-z4", {5: "0" * 64})
    passes = [{"digest": "1" * 64, "outcomes": "1" * 64, "op_errors": 0} for _ in range(2)]
    assert run.check_digests("ref-z4", 6, passes) == []
    assert len(run.check_digests("ref-z4", 5, passes)) == 2
    assert [p["op_errors"] for p in passes] == [1, 1]
    passes[1][key] = "2" * 64
    assert run.check_digests("ref-z4", 6, passes)


def test_trial_timings_scale_by_the_kernel():
    import calibrate

    ref = calibrate.REFERENCE_S
    # The second pass ran on a host twice as slow, as its kernel shows.
    passes = [{"gaps": [0.001, 0.002, 0.003], "kernel": [ref] * 3},
              {"gaps": [0.002, 0.004, 0.006], "kernel": [2 * ref] * 3}]
    scaled = run.trial_timings(passes, scaled=True)
    assert scaled["trial_ms_p50"] == pytest.approx(2.0)
    assert scaled["trials_per_s"] == pytest.approx(3 / 0.006)
    raw = run.trial_timings(passes, scaled=False)
    assert raw["trial_ms_p50"] == pytest.approx(3.0)


def test_calibration_flags_a_kernel_moved_by_the_trials():
    steady = [{"kernel": [1.0, 1.02], "settled": [1.0, 1.0]}]
    assert run.calibration(steady, [])["within_tolerance"]
    moved = [{"kernel": [1.2, 1.2], "settled": [1.0, 1.0]}]
    calib = run.calibration(moved, [(0.1, 2.0)])
    assert calib["first_over_second"] == pytest.approx(1.2)
    assert not calib["within_tolerance"] and calib["setup_child_kernel_s"] == 2.0
