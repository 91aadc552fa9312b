import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lrpc_rings import (CodeParams, DecodingFailure, ExperimentConfig,
                        ProductDecodingFailure, TrialRecord, emit_csv, errors,
                        parse_ring_spec, product_theoretical_bound, read_csv,
                        run_trials, theoretical_bound)
from lrpc_rings.cli import main as cli_main
from lrpc_rings.simulate import CSV_HEADER

from conftest import assert_same_code


class TestParseRingSpec:
    def test_reference_setup(self):
        ring, ext = parse_ring_spec("Z4 ext m=20")
        assert ring.rho == 1 and ring.factors[0].char == 4
        assert ext.m == 20

    def test_quotient_ring_spec(self):
        ring, ext = parse_ring_spec("Z4[x]/(x^2) ext m=3")
        assert ring.factors[0].gamma == 2 and ext.m == 3

    def test_not_local_quotient(self):
        with pytest.raises(errors.NotLocal):
            parse_ring_spec("Z5[x]/(x^2+1) ext m=2")

    def test_composite_and_products(self):
        ring, ext = parse_ring_spec("Z6 ext m=2")
        assert [r.char for r in ring.factors] == [2, 3]
        assert ring.modulus == 6
        ring2, _ = parse_ring_spec("Z4 x GR(9,2) ext m=2")
        assert [r.char for r in ring2.factors] == [4, 9]
        assert ring2.factors[1].mu == 2

    def test_explicit_modulus(self):
        ring, ext = parse_ring_spec("Z4 ext m=5 f=x^5+x^2+1")
        f = ext.factors[0].f[:, 0].tolist()
        assert f == [1, 0, 1, 0, 0, 1]

    def test_parse_error_positions(self):
        with pytest.raises(errors.ParseError) as ei:
            parse_ring_spec("Z4 ext m=")
        assert ei.value.position == len("Z4 ext m=")
        with pytest.raises(errors.ParseError) as ei:
            parse_ring_spec("Q4 ext m=2")
        assert ei.value.position == 0
        with pytest.raises(errors.ParseError):
            parse_ring_spec("Z4 ext m=2 junk")


class TestTheoreticalBound:
    def test_t_zero(self):
        assert theoretical_bound(2, 2, 0, 20, 20, 8) == 1

    def test_spot_value_independent_evaluation(self):
        got = theoretical_bound(2, 2, 4, 20, 20, 8)
        # independent exact evaluation of (1 - 2^-6) prod_{i=0}^{7} (1 - 2^(i-12))
        head = Fraction(1) - Fraction(1, 2 ** 6)
        tail = Fraction(1)
        for i in range(8):
            tail *= Fraction(1) - Fraction(1, 2 ** (12 - i))
        assert got == head * tail

    def test_negative_head_clamped(self):
        assert theoretical_bound(2, 2, 6, 20, 20, 8) == 0

    def test_hypotheses(self):
        with pytest.raises(errors.HypothesisViolated):
            theoretical_bound(2, 2, 7, 20, 20, 8)
        with pytest.raises(errors.HypothesisViolated):
            theoretical_bound(2, 2, 5, 40, 20, 12)

    def test_product_bound_multiplicative(self):
        b2 = theoretical_bound(2, 2, 1, 10, 10, 4)
        b3 = theoretical_bound(3, 2, 1, 10, 10, 4)
        assert product_theoretical_bound([2, 3], 2, 1, 10, 10, 4) == b2 * b3
        # one factor: the product bound is the local bound (run_trials
        # computes every ring's bound_failure column through the product)
        for q in (2, 4):
            for t in (0, 1, 2, 4, 6):
                assert (product_theoretical_bound([q], 2, t, 20, 20, 8)
                        == theoretical_bound(q, 2, t, 20, 20, 8))


class TestRunTrials:
    def test_zero_trials_rejected(self):
        with pytest.raises(errors.HypothesisViolated):
            ExperimentConfig(ring_spec="Z4", m=8, n=8, k=3, lam=2,
                             t_values=(1,), trials=0, seed=1)

    def test_histogram_sums_to_failures(self, tmp_path):
        config = ExperimentConfig(ring_spec="Z4", m=8, n=8, k=3, lam=2,
                                  t_values=(2,), trials=150, seed=9)
        (rec,) = run_trials(config)
        assert rec.failures == sum(rec.failure_reason_histogram.values())
        assert rec.failures > 0  # t=2 is at the edge for these parameters

    def test_determinism_and_csv_roundtrip(self, tmp_path):
        config = ExperimentConfig(ring_spec="Z4", m=6, n=6, k=2, lam=2,
                                  t_values=(1,), trials=60, seed=4)
        recs1 = run_trials(config)
        recs2 = run_trials(config)
        assert recs1 == recs2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(recs1, p1)
        emit_csv(recs2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_csv(p1)
        assert len(back) == 1
        assert back[0].failures == recs1[0].failures
        assert back[0].failure_reason_histogram == recs1[0].failure_reason_histogram

    def test_product_ring_trials(self):
        config = ExperimentConfig(ring_spec="Z6", m=6, n=6, k=2, lam=2,
                                  t_values=(1,), trials=40, seed=3)
        (rec,) = run_trials(config)
        assert rec.trials == 40
        assert 0.0 <= rec.empirical_failure_rate <= 1.0

    def test_fresh_code_per_trial(self):
        config = ExperimentConfig(ring_spec="Z4", m=6, n=6, k=2, lam=2,
                                  t_values=(1,), trials=10, seed=4,
                                  fresh_code_per_trial=True)
        (rec,) = run_trials(config)
        assert rec.trials == 10


def _outcome_line(cw, res) -> int:
    """0 for a decode to the sent codeword, else the line it counts under;
    accepts local (array) and product (tuple) results alike."""
    if isinstance(res, DecodingFailure):
        return res.line
    if isinstance(res, ProductDecodingFailure):
        return min(f.line for f in res.failures.values())
    cws, words = (cw, res) if isinstance(res, tuple) else ((cw,), (res,))
    return 0 if all(np.array_equal(a, b) for a, b in zip(cws, words)) else 18


# (config, SHA-256 of the emitted CSV, SHA-256 of the hook's
# "t,trial,line" sequence); both are fixed by the seed.
PINNED_RUNS = {
    "z4": (dict(ring_spec="Z4", m=8, n=8, k=3, lam=2, t_values=(1, 2),
                trials=40, seed=9),
           "f3a20fbfb793536d0f02805490fdf88ecf88886c3fbc669c152e0de1025400f9",
           "a1f6ca4bc04d5e34519d64cd36f750b17d5e51ecbc16091c6fc51972386a573b"),
    "z4x2-fresh": (dict(ring_spec="Z4[x]/(x^2)", m=6, n=6, k=2, lam=2,
                        t_values=(1,), trials=30, seed=4,
                        fresh_code_per_trial=True),
                   "3c54d892a62b706bdc0166ecc1717e0b1f1a51959afdc18dfe3304408fac8830",
                   "dd735271358b09816825ce4cd4ac9d892c76854aaf27858b972aa09ec3509a10"),
    "z6": (dict(ring_spec="Z6", m=6, n=6, k=2, lam=2, t_values=(1,),
                trials=30, seed=3),
           "644687fae06f2089231052ba7c408d4e26272df45bb681c8271248535eb54177",
           "42fd8a0fcb77e02b209900abcb01d20f28983307ad51d2303498ab9ba59c3f20"),
    # 35 = 2 * TRIAL_CHUNK + 3 trials per t: two full chunks and a short
    # one of 3 words, each chunk decoded as one stack; the digests were
    # made by the trial loop that decoded every trial alone
    "z4-chunks": (dict(ring_spec="Z4", m=10, n=10, k=4, lam=2, t_values=(1, 2, 3),
                       trials=35, seed=17),
                  "8426698bde03b3e78ca95bd7fd128bd67c5992d5fae1d74e889cfdb183ccfa7e",
                  "f7332c910db5206e4d1665c844b7cb215a7fdd1d69759708536718764c7ab27b"),
    "z4x2-chunks": (dict(ring_spec="Z4[x]/(x^2)", m=8, n=8, k=3, lam=2, t_values=(1, 2),
                         trials=35, seed=17),
                    "baa7e678545b9185474eec0d98e6b596740ea4c210b8f17e08cde26de523681a",
                    "d89f2969c55f01eca3acabec53618066e5fadcdc77e3bcc3723dba4c3c8ca248"),
    # fresh codes in two full chunks and a short one; the digests were made
    # by the trial loop that generated each trial's code alone
    "z6-fresh-chunks": (dict(ring_spec="Z6", m=8, n=8, k=3, lam=2, t_values=(1, 2),
                             trials=35, seed=17, fresh_code_per_trial=True),
                        "9e6d6627cf2468a15f0a4e89839075cbae3abd162590667967d2cfbf749565ec",
                        "9e9cf82f338c55ad11e0c48bae0a06a02533fe23eb3617e73463f8ee93356054"),
}


def test_chunk_pins_straddle_two_chunks():
    """The chunk-boundary pins hold two full chunks and a short one."""
    from lrpc_rings.simulate import TRIAL_CHUNK
    for name in ("z4-chunks", "z4x2-chunks", "z6-fresh-chunks"):
        assert PINNED_RUNS[name][0]["trials"] == 2 * TRIAL_CHUNK + 3


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_simulator_output(name, tmp_path):
    """The CSV and the per-trial outcomes of a seeded run are pinned, so a
    refactor of the trial loop that claims unchanged behaviour keeps them."""
    kwargs, csv_sha, seq_sha = PINNED_RUNS[name]
    seq = hashlib.sha256()

    def hook(t, trial, code, cw, err, res):
        seq.update(f"{t},{trial},{_outcome_line(cw, res)}\n".encode())

    path = tmp_path / "out.csv"
    emit_csv(run_trials(ExperimentConfig(**kwargs), per_trial_hook=hook), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
    assert seq.hexdigest() == seq_sha


def test_fresh_chunks_decode_as_one_stack(monkeypatch):
    """A chunk of fresh codes is decoded as one stack: the z6-fresh-chunks
    run (35 trials per t, two t, two factors) makes one decode_batch call
    per factor per chunk, 2 * 3 * 2 = 12 in all, whose stacks hold the
    140 factor words, and not one call per word."""
    from lrpc_rings import lrpc, product_ring
    sizes = []
    decode_batch = lrpc.decode_batch

    def counted(code, words):
        sizes.append(len(words))
        return decode_batch(code, words)

    monkeypatch.setattr(lrpc, "decode_batch", counted)
    monkeypatch.setattr(product_ring, "decode_batch", counted)
    run_trials(ExperimentConfig(**PINNED_RUNS["z6-fresh-chunks"][0]))
    assert sizes == [16, 16, 16, 16, 3, 3] * 2


# fresh-code runs whose chunks hold NoInvertibleMinor refusals and F that
# fail the square property (m = 4: an F with b_2 in F_(q^2) fails), over the
# composite Z6, a non-Galois chain ring and an odd-characteristic Galois
# ring; 20 trials are a full chunk and a short one
FRESH_STREAM_RUNS = {
    "Z6": dict(ring_spec="Z6", m=4, n=6, k=2, lam=2, t_values=(1,), trials=20, seed=5),
    "Z4[x]/(x^2)": dict(ring_spec="Z4[x]/(x^2)", m=4, n=6, k=2, lam=2, t_values=(1,),
                        trials=20, seed=5),
    "Z9": dict(ring_spec="Z9", m=4, n=6, k=2, lam=2, t_values=(1,), trials=20, seed=5),
}


def _run_fresh(kwargs):
    """run_trials with a fresh code per trial: the records and the hook's
    arguments, in order."""
    seen = []
    config = ExperimentConfig(fresh_code_per_trial=True, **kwargs)
    return run_trials(config, per_trial_hook=lambda *args: seen.append(args)), seen


@pytest.mark.parametrize("name", sorted(FRESH_STREAM_RUNS))
def test_fresh_chunks_keep_every_trials_stream(name, monkeypatch):
    """Every trial of a chunk of fresh codes gets the code that
    generate_product_code makes from its own stream alone (H, the F basis,
    the flags and every precomputed array), and the codeword and error
    that the stream then gives, as in the loop that ran one trial at a
    time.  The chunks hold F redraws and NoInvertibleMinor refusals of
    several trials at once."""
    from lrpc_rings import lrpc
    from lrpc_rings.product_ring import (encode_product, generate_product_code,
                                         sample_error_product)
    from lrpc_rings.simulate import _trial_rng
    counts = {"refused": 0, "redrawn": 0}
    build, witnesses = lrpc._build_codes, lrpc.square_witnesses

    def counted_build(ext, params, h, *args):
        out = build(ext, params, h, *args)
        if len(h) > 1:
            counts["refused"] += sum(isinstance(c, errors.NoInvertibleMinor) for c in out)
        return out

    def counted_witnesses(ext, basis):
        has, i0 = witnesses(ext, basis)
        if len(basis) > 1:
            counts["redrawn"] += int((~has).sum())
        return has, i0

    monkeypatch.setattr(lrpc, "_build_codes", counted_build)
    monkeypatch.setattr(lrpc, "square_witnesses", counted_witnesses)
    kwargs = FRESH_STREAM_RUNS[name]
    _, seen = _run_fresh(kwargs)
    assert counts["refused"] and counts["redrawn"]
    monkeypatch.undo()
    _, ext = parse_ring_spec(f"{kwargs['ring_spec']} ext m={kwargs['m']}")
    params = CodeParams(kwargs["n"], kwargs["k"], kwargs["lam"], max(kwargs["t_values"]))
    assert [(t, trial) for t, trial, *_ in seen] == [(1, j) for j in range(1, 21)]
    for t, trial, code, cw, err, _ in seen:
        rng = _trial_rng(kwargs["seed"], t, trial)
        want = generate_product_code(params, ext, rng)
        for got_c, want_c in zip(code.codes, want.codes, strict=True):
            assert_same_code(got_c, want_c)
        msg = ext.rand_vector(rng, kwargs["k"])
        want_err = sample_error_product(ext, kwargs["n"], t, rng)
        want_cw = encode_product(want, tuple(x[None] for x in msg))
        assert all(np.array_equal(a, b[0]) for a, b in zip(cw, want_cw, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(err, want_err, strict=True))


@pytest.mark.parametrize("name", sorted(FRESH_STREAM_RUNS))
def test_fresh_records_do_not_depend_on_the_chunk(name, monkeypatch, tmp_path):
    """TRIAL_CHUNK = 1, 5 and 16 give the same CSV bytes and the same hook
    calls: trial, code, codeword, error and result."""
    from lrpc_rings import simulate
    runs = []
    for chunk in (1, 5, 16):
        monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
        records, seen = _run_fresh(FRESH_STREAM_RUNS[name])
        path = tmp_path / f"{chunk}.csv"
        emit_csv(records, path)
        calls = [(t, trial, tuple(c.H.tobytes() for c in code.codes),
                  tuple(x.tobytes() for x in cw), tuple(x.tobytes() for x in err),
                  _outcome_line(cw, res)) for t, trial, code, cw, err, res in seen]
        runs.append((path.read_bytes(), calls))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("spec, attempts, seed", [("Z6", 1, 5), ("Z4[x]/(x^2)", 2, 3)])
def test_generation_budgets_stay_per_trial(spec, attempts, seed, monkeypatch):
    """With GENERATION_ATTEMPTS so low that trials of a chunk exhaust their
    F, row or H budgets, the chunked run raises the GenerationFailed of the
    run that makes one code at a time: the first failing trial's, although
    later trials fail in earlier rounds (Z6: trial 2 runs out of H draws,
    trial 3 of F draws; Z4[x]/(x^2): trial 3 of H draws, trial 4 of draws of
    one row)."""
    from lrpc_rings import lrpc, simulate
    monkeypatch.setattr(lrpc, "GENERATION_ATTEMPTS", attempts)
    config = ExperimentConfig(ring_spec=spec, m=4, n=6, k=2, lam=2, t_values=(1,),
                              trials=16, seed=seed, fresh_code_per_trial=True)
    raised = []
    for chunk in (1, 16):
        monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
        with pytest.raises(errors.GenerationFailed) as info:
            run_trials(config)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][1].startswith("retry budget exhausted while sampling H")


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_row_count_and_format(self, tmp_path):
        recs = [TrialRecord(t, 10, 1, 0.1, 0.25, {5: 1, 8: 0, 14: 0, 16: 0, 18: 0})
                for t in (1, 2, 3)]
        path = tmp_path / "r.csv"
        emit_csv(recs, path, precision=3)
        lines = path.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len([ln for ln in lines[1:] if ln]) == 3
        assert lines[1] == "1,10,1,0.100,0.250,1,0,0,0,0,0"

    def test_io_error(self, tmp_path):
        with pytest.raises(errors.LrpcError):
            emit_csv([], tmp_path / "nodir" / "x.csv")

    def test_record_validation(self):
        with pytest.raises(errors.HypothesisViolated):
            TrialRecord(1, 10, 11, 1.1, 0.0, {})


class TestCli:
    def test_bound_subcommand(self, capsys):
        rc = cli_main(["bound", "--ring", "Z4", "--ext", "m=20", "--n", "20",
                       "--k", "8", "--lambda", "2", "--t", "1..3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("t=") == 3

    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        args = ["simulate", "--ring", "Z4", "--ext", "m=6", "--n", "6",
                "--k", "2", "--lambda", "2", "--t", "1", "--trials", "40",
                "--seed", "7"]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        assert cli_main(args + ["--out", str(p1)]) == 0
        assert cli_main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_selftest(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_module_entrypoint(self):
        # the subprocess does not inherit pytest's pythonpath setting
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "lrpc_rings", "bound",
                               "--ring", "Z6", "--ext", "m=10", "--n", "10",
                               "--k", "4", "--lambda", "2", "--t", "2"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "t=2" in proc.stdout
