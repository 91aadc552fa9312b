"""Run every workload, untraced and then traced, and print the metrics.

    python3 perfbench/suite.py --seed 1 --seconds 30 [--out perfbench/baseline/BENCH_seed.json]

Each run is its own `run.py` process, started after the previous one has
ended.  The table gives every end-to-end metric with its unit, including
`decode_failure_rate` and `op_error_rate`, which BENCHMARK.json does not
bound, and the ratio of the first to the second calibration reading of
each run, which should be 1 on every workload; the traced run adds the predicted layer shares and whether each
prediction held.  `--out` writes the full results of all runs, environment
stamp included, as one JSON file.  Exits with 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import OUT, declared_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_one(name, seed, seconds, trace) -> dict | None:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    if not path.is_file():
        return None
    result = json.loads(path.read_text())
    result["exit_code"] = proc.returncode
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    table = dict(declared_metrics(0), decode_failure_rate="ratio", op_error_rate="ratio")
    results, ok = {}, True
    for name in WORKLOADS:
        untraced = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        results[name] = {"untraced": untraced, "traced": traced}
        if untraced is None or traced is None:
            ok = False
            continue
        ok &= untraced["exit_code"] == 0 and traced["exit_code"] == 0
        print(f"== {name}  (seed {args.seed}, {untraced['passes']} passes, "
              f"{untraced['trial_samples']} trial samples, "
              f"csv sha256 {untraced['csv_sha256'][:16]}...)")
        for metric, unit in table.items():
            print(f"  {metric:<22} {untraced['metrics'][metric]:>12.6g} {unit}")
        for mode, result in (("untraced", untraced), ("traced", traced)):
            calib = result["calibration"]
            print(f"  calibration kernel, {mode}: first/second {calib['first_over_second']:.3f}"
                  f"{'' if calib['within_tolerance'] else '  (out of tolerance)'}")
        print(f"  {'trace.overhead':<22} {traced['metrics']['trace.overhead']:>12.4f} ratio")
        for share, value in traced["shares"].items():
            print(f"  share of trial time: {share:<34} {value:.3f}")
        for pred in traced["predictions"]:
            print(f"  prediction {'holds' if pred['holds'] else 'FAILS'}: {pred['prediction']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
