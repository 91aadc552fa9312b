"""Monte Carlo decoding-failure experiments and the theoretical bound.

The success bound for a single local factor with residue field size q is

    (1 - t q^(t l (l+1)/2 - m)) * prod_{i=0}^{t l - 1} (1 - q^(i - (n-k)))

evaluated in exact rational arithmetic (clamped below at 0, since the raw
formula can go negative for large t while remaining a valid lower bound);
over a product ring the per-factor bounds multiply.

Experiments are deterministic: every trial draws from an RNG stream keyed
by (master seed, t, trial index), so results are independent of execution
order and two runs with the same configuration produce identical records.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import specparse
from .errors import HypothesisViolated, IndexOutOfRange, LrpcError
# decode_local is unused here: a module attribute that perfbench/test_spans.py patches
from .lrpc import CodeParams, decode_local  # noqa: F401
from .product_ring import (ProductDecodingFailure, ProductExtensionDesc,
                           ProductRingDesc, decode_product_batch,
                           encode_product, generate_product_code,
                           generate_product_codes, sample_errors_product)


class IoError(LrpcError):
    """Wrapper for filesystem errors during CSV emission."""


REASON_LINES = (5, 8, 14, 16, 18)
# Trials of one code are sampled, encoded and decoded this many at a time.
TRIAL_CHUNK = 16
CSV_HEADER = ("t,trials,failures,empirical_failure,bound_failure,"
              "reason_line5,reason_line8,reason_line14,reason_line16,"
              "reason_line18,wall_ms")


@dataclass
class ExperimentConfig:
    """Configuration of a failure-rate experiment."""

    ring_spec: str
    m: int
    n: int
    k: int
    lam: int
    t_values: tuple
    trials: int
    seed: int
    f_poly: Optional[str] = None
    fresh_code_per_trial: bool = False
    timings: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise HypothesisViolated("need at least one trial per t")
        if not self.t_values:
            raise HypothesisViolated("need at least one error rank t")
        self.t_values = tuple(int(t) for t in self.t_values)

    def full_spec(self) -> str:
        spec = f"{self.ring_spec} ext m={self.m}"
        if self.f_poly:
            spec += f" f={self.f_poly}"
        return spec


@dataclass
class TrialRecord:
    """Aggregated outcome of the trials for one error rank t."""

    t: int
    trials: int
    failures: int
    empirical_failure_rate: float
    bound_failure: float
    failure_reason_histogram: dict
    wall_ms: int = 0

    def __post_init__(self):
        if not 0 <= self.failures <= self.trials:
            raise HypothesisViolated("failures must lie in [0, trials]")
        if not (0.0 <= self.empirical_failure_rate <= 1.0
                and 0.0 <= self.bound_failure <= 1.0):
            raise HypothesisViolated("rates must lie in [0, 1]")


def parse_ring_spec(text: str):
    """Parse `<local> [x <local> ...] ext m=<int> [f=<poly>]` into validated
    product-ring and product-extension descriptors."""
    factors, modulus, m, f_poly = specparse.parse_spec_parts(text)
    ring = ProductRingDesc(factors, modulus=modulus)
    ext = ProductExtensionDesc(ring, m, f_poly)
    return ring, ext


def theoretical_bound(q: int, lam: int, t: int, m: int, n: int, k: int) -> Fraction:
    """Exact rational lower bound on the single-factor decoding success
    probability; raises HypothesisViolated outside the bound's validity range."""
    if t == 0:
        return Fraction(1)
    if t * lam * (lam + 1) // 2 >= m:
        raise HypothesisViolated("need t * lambda * (lambda + 1) / 2 < m")
    if t * lam >= n - k + 1:
        raise HypothesisViolated("need t * lambda < n - k + 1")
    exp = t * lam * (lam + 1) // 2 - m
    head = 1 - t * Fraction(1, q ** (-exp))
    tail = Fraction(1)
    for i in range(t * lam):
        tail *= 1 - Fraction(1, q ** ((n - k) - i))
    return max(Fraction(0), head * tail)


def product_theoretical_bound(qs, lam: int, ts, m: int, n: int, k: int) -> Fraction:
    """Product-ring success bound: the product of the per-factor bounds."""
    if isinstance(ts, int):
        ts = [ts] * len(qs)
    if len(ts) != len(qs):
        raise IndexOutOfRange("need one error rank per factor")
    out = Fraction(1)
    for q, t in zip(qs, ts):
        out *= theoretical_bound(q, lam, t, m, n, k)
    return out


def _trial_rng(seed, t, trial):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, trial)))


def run_trials(config: ExperimentConfig,
               per_trial_hook: Optional[Callable] = None) -> list:
    """Run the Monte Carlo experiment described by the configuration.

    Every ring runs through the product-ring code; a local ring is its
    one-factor case.  For each t: generate one code (or one per trial
    when fresh_code_per_trial is set), then per trial sample a random
    message and a uniform error of free support rank t in every factor,
    decode, and record the outcome.  A failure is tallied under the
    smallest decoder line among the failing factors; a decode to a wrong
    codeword (possible only when the success conditions fail) is tallied
    under line 18.

    The trials go in chunks of TRIAL_CHUNK, and each trial draws from its
    own stream.  With a fresh code per trial, the chunk's codes are made
    first, in lockstep (:func:`product_ring.generate_product_codes`), each
    from its trial's stream as generate_product_code would make it; then
    every trial of the chunk draws its message, and the chunk's errors are
    sampled in lockstep (:func:`product_ring.sample_errors_product`), each
    from its trial's stream as sample_error_product would draw it.
    Then the chunk's words are encoded as one stack and decoded as one
    stack (:func:`product_ring.decode_product_batch`), each by its trial's
    code, whether the chunk shares one code or has a fresh code per trial.
    Decoding draws no random numbers, so the records do not depend on the
    chunking.
    ``per_trial_hook(t, trial, code, codeword, error, result)`` is invoked
    once per trial, in trial order, after the trial's chunk is decoded;
    it receives the ``ProductLrpcCode`` and per-factor tuples (one-element
    tuples for a local ring), and ``result`` is a tuple or a
    ``ProductDecodingFailure``.
    """
    _, ext = parse_ring_spec(config.full_spec())
    params = CodeParams(config.n, config.k, config.lam, max(config.t_values))
    fresh = config.fresh_code_per_trial
    records = []
    for t in config.t_values:
        start = time.perf_counter()
        failures = 0
        hist = {line: 0 for line in REASON_LINES}
        code = None  # frees the previous t's code before the next is built
        if not fresh:
            code = generate_product_code(params, ext, _trial_rng(config.seed, t, 0))
        for first in range(1, config.trials + 1, TRIAL_CHUNK):
            trials = range(first, min(first + TRIAL_CHUNK, config.trials + 1))
            rngs = [_trial_rng(config.seed, t, trial) for trial in trials]
            codes = (generate_product_codes(params, ext, rngs) if fresh
                     else [code] * len(rngs))
            msgs = _stack([ext.rand_vector(rng, config.k) for rng in rngs])
            errs = sample_errors_product(ext, config.n, t, rngs)
            cws = encode_product(codes, msgs)
            results = decode_product_batch(codes, ext.add(cws, errs))
            for i, trial in enumerate(trials):
                cw, res = tuple(c[i] for c in cws), results[i]
                if isinstance(res, ProductDecodingFailure):
                    line = min(f.line for f in res.failures.values())
                else:
                    # both words are canonical residues: compare them as they are
                    line = None if all(map(np.array_equal, res, cw)) else 18
                if line is not None:
                    failures += 1
                    hist[line] += 1
                if per_trial_hook is not None:
                    per_trial_hook(t, trial, codes[i], cw, tuple(e[i] for e in errs), res)
            codes = None  # frees the chunk's codes before the next chunk's are built
        bound = product_theoretical_bound([f.base.q for f in ext.factors],
                                          config.lam, t, config.m,
                                          config.n, config.k)
        wall = int(round((time.perf_counter() - start) * 1000)) if config.timings else 0
        records.append(TrialRecord(
            t=t, trials=config.trials, failures=failures,
            empirical_failure_rate=failures / config.trials,
            bound_failure=float(1 - bound),
            failure_reason_histogram=hist,
            wall_ms=wall))
    return records


def _stack(vectors):
    """Per-factor stacks (B, length, D_S) of B per-factor tuples of vectors."""
    return tuple(np.array(parts) for parts in zip(*vectors))


def emit_csv(records, path, precision: int = 6):
    """Write trial records as CSV: pinned header, one row per t, UTF-8,
    LF line endings, fixed-precision decimals."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in records:
                hist = rec.failure_reason_histogram
                row = [str(rec.t), str(rec.trials), str(rec.failures),
                       f"{rec.empirical_failure_rate:.{precision}f}",
                       f"{rec.bound_failure:.{precision}f}"]
                row += [str(hist.get(line, 0)) for line in REASON_LINES]
                row.append(str(rec.wall_ms))
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_csv(path) -> list:
    """Parse an emitted CSV back into trial records (reparse oracle)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            out = []
            for row in reader:
                hist = {line: int(row[f"reason_line{line}"]) for line in REASON_LINES}
                out.append(TrialRecord(
                    t=int(row["t"]), trials=int(row["trials"]),
                    failures=int(row["failures"]),
                    empirical_failure_rate=float(row["empirical_failure"]),
                    bound_failure=float(row["bound_failure"]),
                    failure_reason_histogram=hist,
                    wall_ms=int(row["wall_ms"])))
            return out
    except OSError as exc:
        raise IoError(str(exc)) from exc
