"""Benchmark of `lrpc-sim simulate`, driven through `run_trials`/`emit_csv`.

    python3 perfbench/run.py --workload ref-z4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  One process is one closed-loop client: trials run one
after another in this process, with no worker threads.  The run repeats
`run_trials` on the workload's configuration (one "pass") until
`--seconds` are used up; an untraced run makes at least MIN_PASSES passes.

Times are scaled by the calibration kernel (see calibrate.py), which the
hook times after every trial, so that a slow stretch of a shared host does
not read as a slower program; the raw times are printed as `raw_*`.
The hook times the kernel twice in a row after an untimed run; if the
first reading still differs from the second by more than
CALIBRATION_TOLERANCE (median over the run), what the trial left behind
has moved the kernel, and the run is flagged with a warning.
With `--trace 0` the run reports the end-to-end metrics that
BENCHMARK.json lists.  With `--trace 1` it makes one untraced pass, then
traced passes with every function in `spans.TARGETS` wrapped, and reports
the per-layer metrics.  The last line of standard output is one JSON
object; the full result, with the environment stamp, goes to
`perfbench/out/`, and a traced run also saves its spans there.

Every decoder output is checked: a returned word must have zero syndrome,
a failure must carry a decoder line, and the hook's own tally must agree
with the records.  Every pass must write the same CSV and decode every
trial to the same outcome; where `workloads.EXPECTED_CSV_SHA256` and
`workloads.EXPECTED_OUTCOME_SHA256` list the seed, the CSV and the
sequence of per-trial outcomes must have those digests.  A failed check
prints `"correct": false` and exits with 1; a checkout without
`src/lrpc_rings` exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
CALIBRATION_TOLERANCE = 0.05

# Timed in a fresh interpreter: importing the package plus parsing the
# workload's ring spec, which is what `lrpc-sim simulate` pays before its
# first trial.  Then the calibration kernel, for the host's speed.
SETUP_CHILD = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import lrpc_rings
lrpc_rings.parse_ring_spec(sys.argv[2])
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import calibrate
print(took, statistics.median(calibrate.kernel_runs(9)))
"""

sys.path.insert(0, str(BENCH_DIR))
from workloads import EXPECTED_CSV_SHA256, EXPECTED_OUTCOME_SHA256, WORKLOADS  # noqa: E402


class CheckFailed(Exception):
    """A decoder output, a tally or a CSV failed the benchmark's checks."""


class NonCodeword(CheckFailed):
    """A word with nonzero syndrome where a codeword was due."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def time_setup(spec: str) -> list:
    """(set-up seconds, kernel seconds) of SETUP_REPEATS fresh interpreters,
    run one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), spec, str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up child failed: {proc.stderr.strip()}")
        took, kernel = proc.stdout.split()[-2:]
        samples.append((float(took), float(kernel)))
    return samples


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


class Checker:
    """Per-trial output checks, an independent failure tally and a digest
    of the per-trial outcomes."""

    def __init__(self, lib):
        import numpy
        lrpc, product_ring, simulate = lib
        self.array_equal = numpy.array_equal
        self.syndrome = lrpc.syndrome
        self.local_failure = lrpc.DecodingFailure
        self.product_failure = product_ring.ProductDecodingFailure
        self.reason_lines = simulate.REASON_LINES
        self.tally = {}
        self.errors = []
        self.non_codewords = 0
        self.outcomes = hashlib.sha256()

    def _codeword(self, code, word) -> bool:
        return not self.syndrome(code, word).any()

    def outcome(self, code, cw, res) -> int:
        """0 for a decode to the sent codeword, else the line it counts under."""
        if isinstance(res, self.local_failure):
            return res.line
        if isinstance(res, self.product_failure):
            return min(f.line for f in res.failures.values())
        codes, cws, words = ((code.codes, cw, res) if isinstance(res, tuple)
                             else ([code], [cw], [res]))
        for c, sent, word in zip(codes, cws, words):
            if not self._codeword(c, sent):
                raise NonCodeword("encode returned a non-codeword")
            if not self._codeword(c, word):
                raise NonCodeword("decoder returned a non-codeword")
        same = all(self.array_equal(a, b) for a, b in zip(cws, words))
        return 0 if same else 18

    def __call__(self, t, trial, code, cw, res):
        try:
            line = self.outcome(code, cw, res)
            if line not in (0,) + self.reason_lines:
                raise CheckFailed(f"failure tagged with unknown line {line}")
        except CheckFailed as exc:
            self.errors.append(str(exc))
            self.non_codewords += isinstance(exc, NonCodeword)
            self.outcomes.update(f"{t},{trial},error\n".encode())
            return
        self.outcomes.update(f"{t},{trial},{line}\n".encode())
        hist = self.tally.setdefault(t, {})
        hist[line] = hist.get(line, 0) + 1

    def compare(self, records):
        """The records must count what the hook saw."""
        for rec in records:
            hist = self.tally.get(rec.t, {})
            if rec.failures != sum(v for k, v in hist.items() if k):
                self.errors.append(f"t={rec.t}: records count {rec.failures} "
                                   f"failures, the hook saw otherwise")
            for line, count in rec.failure_reason_histogram.items():
                if count != hist.get(line, 0):
                    self.errors.append(f"t={rec.t}: line {line} count differs")


def run_pass(lib, config, csv_path, recorder=None) -> dict:
    """One `run_trials` call with a hook that stamps times and checks outputs.

    The pass's wall time leaves out the hook's own time.  The gap between
    consecutive hook calls is one trial's latency; the first trial's gap
    starts at the call, so it carries parsing and the first code generation.
    After each trial the hook also times the calibration kernel twice: the
    first reading scales the trial, the second checks the first.
    """
    import calibrate
    simulate = lib[2]
    checker = Checker(lib)
    gaps, kernel, settled = [], [], []
    last = [0.0]
    hook_s = [0.0]

    def hook(t, trial, code, cw, err, res):
        entered = time.perf_counter()
        gaps.append(entered - last[0])
        if recorder is None:
            checker(t, trial, code, cw, res)
        else:
            with recorder.pause():
                checker(t, trial, code, cw, res)
            recorder.current_trial += 1
        first, second = calibrate.kernel_runs(2)
        kernel.append(first)
        settled.append(second)
        last[0] = time.perf_counter()
        hook_s[0] += last[0] - entered

    if recorder is not None:
        hook = recorder.wrap("bench.hook", hook)
    exceptions = 0
    records = []
    start = time.perf_counter()
    last[0] = start
    try:
        records = simulate.run_trials(config, hook)
    except Exception as exc:  # an exception in the library is a failed trial
        exceptions = 1
        checker.errors.append(f"run_trials raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start - hook_s[0]
    checker.compare(records)
    digest = None
    if records:
        simulate.emit_csv(records, csv_path)
        digest = hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()
    return {"wall": wall, "gaps": gaps, "kernel": kernel, "settled": settled,
            "trials": len(gaps) + exceptions,
            "failures": sum(r.failures for r in records),
            "op_errors": exceptions + checker.non_codewords,
            "errors": checker.errors, "digest": digest,
            "outcomes": checker.outcomes.hexdigest()}


def run_passes(lib, config, csv_path, seconds, recorder=None, min_passes=1):
    """At least `min_passes` passes, then more until the next would overrun
    `seconds`."""
    passes = []
    begun = time.perf_counter()
    while True:
        passes.append(run_pass(lib, config, csv_path, recorder))
        if (len(passes) >= min_passes
                and time.perf_counter() - begun + passes[-1]["wall"] > seconds):
            return passes


def check_digests(name, seed, passes) -> list:
    """Every pass must give the same CSV and the same per-trial outcomes,
    and those of a listed seed must have the expected digests; a pass that
    misses an expected digest counts as an operation error."""
    errors = []
    for key, what, expected in (("digest", "CSV", EXPECTED_CSV_SHA256),
                                ("outcomes", "outcome sequence", EXPECTED_OUTCOME_SHA256)):
        digests = {p[key] for p in passes}
        if len(digests) != 1:
            errors.append(f"passes at one seed gave different {what}s: "
                          f"{sorted(map(str, digests))}")
        want = expected.get(name, {}).get(seed)
        for p in passes:
            if want is not None and p[key] != want:
                errors.append(f"{what} sha256 {p[key]} differs from the expected {want}")
                p["op_errors"] += 1
    return errors


def calibration(passes, setup) -> dict:
    """Median first and second kernel readings after the trials, and
    whether their ratio stays within CALIBRATION_TOLERANCE of 1."""
    first = statistics.median(k for p in passes for k in p["kernel"])
    second = statistics.median(k for p in passes for k in p["settled"])
    ratio = first / second
    report = {"kernel_s": first, "settled_kernel_s": second, "first_over_second": ratio,
              "within_tolerance": abs(ratio - 1) <= CALIBRATION_TOLERANCE}
    if setup:
        report["setup_child_kernel_s"] = statistics.median(k for _, k in setup)
    return report


def trial_timings(passes, scaled: bool) -> dict:
    """trials_per_s, trial_ms_p50 and trial_ms_p90 of identical passes.

    Each trial's time is its median over the passes, raw or scaled by the
    calibration kernel timed after it; trials_per_s is the trials of a pass
    over the sum of those times.
    """
    import calibrate
    import numpy as np
    n = min(len(p["gaps"]) for p in passes)
    per_pass = []
    for p in passes:
        gaps = np.asarray(p["gaps"][:n])
        if scaled:
            gaps = gaps * calibrate.REFERENCE_S / calibrate.smoothed(p["kernel"][:n])
        per_pass.append(gaps)
    ms = np.median(per_pass, axis=0) * 1e3
    return {"trials_per_s": n / (ms.sum() / 1e3),
            "trial_ms_p50": float(np.percentile(ms, 50)),
            "trial_ms_p90": float(np.percentile(ms, 90))}


def end_to_end(name, seed, seconds, lib, config, csv_path) -> dict:
    passes = run_passes(lib, config, csv_path, seconds, min_passes=MIN_PASSES)
    first = passes[0]
    metrics = trial_timings(passes, scaled=True)
    metrics.update({f"raw_{k}": v for k, v in trial_timings(passes, scaled=False).items()})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["decode_failure_rate"] = first["failures"] / max(len(first["gaps"]), 1)
    return {"passes": passes, "metrics": metrics,
            "trial_samples": min(len(p["gaps"]) for p in passes)}


def layer_shares(layer: dict) -> dict:
    """Shares of trial time (run_trials minus the benchmark's hook)."""
    trial_ms = layer["simulate.run_trials.ms"] - layer["bench.hook.ms"]

    def share(*names):
        return sum(layer[f"{n}.ms"] for n in names) / trial_ms

    return {"lrpc.generate_code": share("lrpc.generate_code"),
            "encode+sample_error+decode_local": share(
                "lrpc.encode", "lrpc.sample_error", "lrpc.decode_local"),
            "rings.mul": share("rings.mul")}


def check_predictions(name, shares) -> list:
    """The predicted shares of trial time for this workload, each with its
    verdict."""
    checks = []
    if name == "crt-z6-fresh":
        checks.append(("lrpc.generate_code covers most trial time",
                       shares["lrpc.generate_code"] > 0.5))
    else:
        checks.append(("encode + sample_error + decode_local cover most trial time",
                       shares["encode+sample_error+decode_local"] > 0.5))
    if name != "quot-z4x2":
        checks.append(("rings.mul is negligible (< 5% of trial time)",
                       shares["rings.mul"] < 0.05))
    return [{"prediction": text, "holds": bool(ok)} for text, ok in checks]


def per_layer(name, seed, seconds, lib, config, csv_path) -> dict:
    import spans  # imports numpy, so only after the thread settings
    reference = run_pass(lib, config, csv_path)
    recorder = spans.Recorder()
    recorder.install()
    try:
        left = max(seconds - reference["wall"], 0.0)
        passes = run_passes(lib, config, csv_path, left, recorder)
    finally:
        recorder.uninstall()
    layer = spans.reduce_spans(recorder.names, recorder.arrays())
    traced = trial_timings(passes, scaled=True)["trials_per_s"]
    layer["trace.overhead"] = 1 - traced / trial_timings([reference], scaled=True)["trials_per_s"]
    shares = layer_shares(layer)
    recorder.save(OUT / f"spans-{name}-seed{seed}.npz")
    return {"passes": [reference] + passes, "metrics": layer, "shares": shares,
            "predictions": check_predictions(name, shares),
            "spans": len(recorder.kind)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lrpc_rings" / "__init__.py").is_file():
        print(f"error: no lrpc_rings package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    wanted = declared_metrics(args.trace)
    workload = dict(WORKLOADS[args.workload])

    setup = [] if args.trace else time_setup(
        f"{workload['ring_spec']} ext m={workload['m']}")
    sys.path.insert(0, str(SRC))
    import lrpc_rings
    from lrpc_rings import lrpc, product_ring, simulate
    if Path(lrpc_rings.__file__).resolve().parent != SRC / "lrpc_rings":
        print(f"error: imported lrpc_rings from {lrpc_rings.__file__}", file=sys.stderr)
        return 2
    config = simulate.ExperimentConfig(seed=args.seed, **workload)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{args.workload}-seed{args.seed}.csv"
    lib = (lrpc, product_ring, simulate)
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, lib, config, csv_path)
    passes = result.pop("passes")
    errors = [e for p in passes for e in p["errors"]]
    errors += check_digests(args.workload, args.seed, passes)
    calib = calibration(passes, setup)
    attempted = sum(p["trials"] for p in passes)
    failed = sum(p["op_errors"] for p in passes)
    metrics = result["metrics"]
    if not args.trace:
        import calibrate
        metrics["setup_s"] = statistics.median(
            took * calibrate.REFERENCE_S / kernel for took, kernel in setup)
        metrics["raw_setup_s"] = statistics.median(took for took, _ in setup)
        metrics["op_error_rate"] = failed / attempted
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed),
              "workload_config": workload, "csv_sha256": passes[0]["digest"],
              "outcome_sha256": passes[0]["outcomes"], "calibration": calib,
              "passes": len(passes), "pass_wall_s": [p["wall"] for p in passes],
              "setup_samples_s": setup, "errors": errors, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    for key in ("environment", "csv_sha256", "outcome_sha256", "calibration", "passes",
                "trial_samples", "spans", "shares", "predictions"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    if not calib["within_tolerance"]:
        print(f"WARNING: the first calibration reading after a trial is "
              f"{calib['first_over_second']:.3f} times the second (tolerance "
              f"{CALIBRATION_TOLERANCE}); the library's work may have moved it")
    for err in errors[:20]:
        print(f"ERROR: {err}")
    if len(errors) > 20:
        print(f"ERROR: ... {len(errors) - 20} more in the result file")
    units = dict(wanted, decode_failure_rate="ratio", op_error_rate="ratio")
    units.update({f"raw_{k}": u for k, u in wanted.items()})
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units.get(key, '')}".rstrip())
    correct = not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
