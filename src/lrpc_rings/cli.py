"""Command-line interface: failure-rate simulation, bound evaluation, and
the built-in golden self-checks."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import LrpcError


def _parse_t_range(text: str):
    if ".." in text:
        a, b = text.split("..", 1)
        return tuple(range(int(a), int(b) + 1))
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return (int(text),)


def _parse_ext(text: str):
    """`m=<int>[ f=<poly>]` (space or comma separated)."""
    m = None
    f_poly = None
    for part in text.replace(",", " ").split():
        if part.startswith("m="):
            m = int(part[2:])
        elif part.startswith("f="):
            f_poly = part[2:]
        else:
            raise argparse.ArgumentTypeError(f"bad extension clause {part!r}")
    if m is None:
        raise argparse.ArgumentTypeError("extension clause needs m=<int>")
    return m, f_poly


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrpc-sim",
        description="LRPC codes over finite commutative rings: Monte Carlo "
                    "decoding-failure simulation and bound evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a failure-rate experiment")
    sim.add_argument("--ring", required=True,
                     help="ring spec, e.g. 'Z4', 'Z6', 'Z4[x]/(x^2) x Z9'")
    sim.add_argument("--ext", required=True, type=_parse_ext,
                     help="extension clause, e.g. 'm=20' or 'm=20 f=x^20+x^3+1'")
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--k", required=True, type=int)
    sim.add_argument("--lambda", dest="lam", required=True, type=int)
    sim.add_argument("--t", required=True, type=_parse_t_range,
                     help="error rank range 'a..b', list 'a,b,c', or single value")
    sim.add_argument("--trials", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument("--fresh-code-per-trial", action="store_true",
                     help="regenerate the code for every trial instead of "
                          "reusing one code per t")
    sim.add_argument("--precision", type=int, default=6)
    sim.add_argument("--timings", action="store_true",
                     help="record wall-clock times (makes output "
                          "non-reproducible byte-for-byte)")

    bnd = sub.add_parser("bound", help="evaluate the theoretical success bound")
    bnd.add_argument("--ring", required=True)
    bnd.add_argument("--ext", required=True, type=_parse_ext)
    bnd.add_argument("--n", required=True, type=int)
    bnd.add_argument("--k", required=True, type=int)
    bnd.add_argument("--lambda", dest="lam", required=True, type=int)
    bnd.add_argument("--t", required=True, type=_parse_t_range)
    bnd.add_argument("--precision", type=int, default=6)

    sub.add_parser("selftest", help="run the built-in golden vectors")
    return parser


def _cmd_simulate(args) -> int:
    from .simulate import ExperimentConfig, emit_csv, run_trials
    m, f_poly = args.ext
    config = ExperimentConfig(
        ring_spec=args.ring, m=m, f_poly=f_poly, n=args.n, k=args.k,
        lam=args.lam, t_values=args.t, trials=args.trials, seed=args.seed,
        fresh_code_per_trial=args.fresh_code_per_trial, timings=args.timings)
    records = run_trials(config)
    emit_csv(records, args.out, precision=args.precision)
    for rec in records:
        print(f"t={rec.t}: failures {rec.failures}/{rec.trials} "
              f"(empirical {rec.empirical_failure_rate:.{args.precision}f}, "
              f"bound {rec.bound_failure:.{args.precision}f})")
    print(f"wrote {args.out}")
    return 0


def _cmd_bound(args) -> int:
    from .simulate import parse_ring_spec, product_theoretical_bound
    m, f_poly = args.ext
    spec = f"{args.ring} ext m={m}" + (f" f={f_poly}" if f_poly else "")
    ring, ext = parse_ring_spec(spec)
    qs = [f.base.q for f in ext.factors]
    for t in args.t:
        b = product_theoretical_bound(qs, args.lam, t, m, args.n, args.k)
        print(f"t={t}: success >= {float(b):.{args.precision}f} "
              f"(failure <= {float(1 - b):.{args.precision}f})")
    return 0


def _cmd_selftest(_args) -> int:
    """Golden vectors: the reference linear system, the worked module
    example over Z4[t]/(t^5+t^2+1), and an encode/decode round trip."""
    import numpy as np

    from . import extension, modlin, rings
    from .lrpc import CodeParams, decode_local, encode, generate_code, sample_error

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    ring = rings.quotient_ring(2, 2, [0, 0, 1])
    e = lambda c0, c1=0: ring.from_poly([c0, c1]).flat
    a_mat = np.array([[e(2), e(1, 1)], [e(0, 1), e(1, 2)]])
    b_vec = np.array([e(0), e(2, 1)])
    sol = modlin.solve_linear(ring, a_mat, b_vec)
    got = {s.tobytes() for s in sol.all_solutions()}
    want = {np.array(v, dtype=np.int64).tobytes()
            for v in [((3, 2), (2, 2)), ((1, 3), (2, 0)),
                      ((3, 0), (2, 2)), ((1, 1), (2, 0))]}
    check("reference 2x2 linear system (4 solutions)", got == want)

    z4 = rings.Zmod(4)
    s_ext = extension.ExtensionDesc(z4, 5, f=[1, 0, 1, 0, 0, 1])
    a_mod = s_ext.support([s_ext.from_poly([3, 2, 0, 3, 0]).flat,
                           s_ext.from_poly([1, 3, 0, 2, 2]).flat])
    b_mod = s_ext.support([s_ext.from_poly([1, 0, 0, 2, 1]).flat,
                           s_ext.from_poly([3, 2, 0, 3, 2]).flat])
    check("worked example: A free of rank 2",
          modlin.free_module_test(a_mod) == (2, True))
    check("worked example: B free of rank 2",
          modlin.free_module_test(b_mod) == (2, True))
    check("worked example: A+B has free rank 3, not free",
          modlin.free_module_test(a_mod.sum(b_mod)) == (3, False))
    cap = modlin.intersect_with_free(a_mod, b_mod)
    target = s_ext.support([s_ext.from_poly([2, 0, 0, 2, 0]).flat])
    check("worked example: A cap B = <2t^3+2>, not free",
          cap.equals(target) and not modlin.free_module_test(cap)[1])
    ab = modlin.module_product(s_ext, a_mod, b_mod)
    check("worked example: AB not free", not modlin.free_module_test(ab)[1])

    rng = np.random.default_rng(7)
    ext20 = extension.ExtensionDesc(z4, 10)
    code = generate_code(CodeParams(10, 4, 2, 2), ext20, rng)
    msg = ext20.rand(rng, (4,))
    cw = encode(code, msg)
    err = sample_error(ext20, 10, 2, rng)
    out = decode_local(code, (cw + err) % 4)
    check("encode/decode round trip (Z4, m=10, n=10, k=4, t=2)",
          isinstance(out, np.ndarray) and np.array_equal(out, cw))

    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bound":
            return _cmd_bound(args)
        return _cmd_selftest(args)
    except LrpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
