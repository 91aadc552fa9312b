"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run with fixed seeds so the suite is deterministic;
thresholds follow the stated tolerances (exact where exact, 3-sigma where
statistical).
"""

import itertools
import time

import numpy as np
import pytest

import lrpc_rings as lr
from lrpc_rings import (CodeParams, ExperimentConfig, ExtensionDesc, Submodule,
                        decode_product, encode_product, free_module_test,
                        free_rank, intersect_with_free, module_product,
                        run_trials, sample_error_product,
                        sample_free_submodule, solve_linear, syndrome,
                        theoretical_bound)

from conftest import brute_solution_set


def _report(num, text):
    print(f"\nACCEPTANCE criterion {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: golden linear system


def test_criterion_01_golden_linear_system(rxi):
    e = lambda c0, c1=0: rxi.from_poly([c0, c1]).flat
    a = np.array([[e(2), e(1, 1)], [e(0, 1), e(1, 2)]])
    b = np.array([e(0), e(2, 1)])
    t0 = time.perf_counter()
    sol = solve_linear(rxi, a, b)
    got = {s.tobytes() for s in sol.all_solutions()}
    elapsed = time.perf_counter() - t0
    want = {np.array(v, dtype=np.int64).tobytes()
            for v in [((3, 2), (2, 2)), ((1, 3), (2, 0)),
                      ((3, 0), (2, 2)), ((1, 1), (2, 0))]}
    assert got == want
    assert elapsed < 1.0
    _report(1, f"exact solution set of the reference system in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: worked-example golden suite


def test_criterion_02_worked_example_suite(z4, s5):
    t0 = time.perf_counter()
    sup = lambda *polys: s5.support([s5.from_poly(p).flat for p in polys])
    a_mod = sup([3, 2, 0, 3, 0], [1, 3, 0, 2, 2])
    b_mod = sup([1, 0, 0, 2, 1], [3, 2, 0, 3, 2])
    assert free_module_test(a_mod) == (2, True)
    assert free_module_test(b_mod) == (2, True)
    assert free_module_test(a_mod.sum(b_mod)) == (3, False)
    cap = intersect_with_free(a_mod, b_mod)
    assert cap.equals(sup([2, 0, 0, 2, 0]))
    assert not free_module_test(cap)[1]
    ab = module_product(s5, a_mod, b_mod)
    assert not free_module_test(ab)[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"rank/intersection/product golden values in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 3: brute-force oracle equivalence


def _pack_codes(ring, arr):
    flat = arr.reshape(arr.shape[0], -1)
    weights = ring.char ** np.arange(flat.shape[-1], dtype=np.int64)
    return flat @ weights


def _brute_free_test(ring, sub):
    """Exhaustive free-module test: the free rank is the largest size of a
    linearly independent element subset, and the module is free iff some
    independent subset generates it.  Span sizes come from exhaustive
    kernel counting over all coefficient pairs."""
    elems_e = sub.elements()
    n_e = len(elems_e)
    size = ring.size
    scalars = ring.enumerate_elements()
    amb = sub.ambient
    if n_e == 1:
        return 0, True
    # rank-1: span size |R| / #annihilators, per element
    prods = ring.mul(scalars[:, None, None, :], elems_e[None, :, :, :])
    codes = _pack_codes(ring, prods.reshape(size * n_e, amb, ring.D)).reshape(size, n_e)
    ann = (codes == 0).sum(axis=0)
    span1 = size // ann
    indep1 = span1 == size
    best_r = 1 if indep1.any() else 0
    gen_free = bool((span1[indep1] == n_e).any()) if indep1.any() else False
    pairs = np.array(list(itertools.combinations(range(n_e), 2)))
    if len(pairs):
        c1 = codes[:, pairs[:, 0]]
        neg = ring.neg(prods)
        codes_neg = _pack_codes(ring, neg.reshape(size * n_e, amb, ring.D)).reshape(size, n_e)
        c2n = codes_neg[:, pairs[:, 1]]
        kernel = (c1[:, None, :] == c2n[None, :, :]).sum(axis=(0, 1))
        span2 = size * size // kernel
        indep2 = span2 == size * size
        if indep2.any():
            best_r = 2
            if (span2[indep2] == n_e).any():
                gen_free = True
    return best_r, gen_free


def test_criterion_03_brute_force_equivalence(z4, z9, rxi):
    rng = np.random.default_rng(0xACCE55)
    t0 = time.perf_counter()
    rings_all = [z4, z9, rxi]

    solve_count = 0
    for ring in rings_all:
        for trial in range(70):
            m_, n_ = rng.integers(1, 3, 2)
            a = ring.rand(rng, (m_, n_))
            if trial % 2:
                x0 = ring.rand(rng, (n_,))
                b = ring.mul(a, x0[None, :, :]).sum(axis=1) % ring.char
            else:
                b = ring.rand(rng, (m_,))
            sol = solve_linear(ring, a, b)
            mine = ({s.tobytes() for s in sol.all_solutions()}
                    if sol.is_consistent else set())
            assert mine == brute_solution_set(ring, a, b)
            solve_count += 1

    inter_count = 0
    for ring in rings_all:
        for _ in range(70):
            n_mod = Submodule(ring, 2, ring.rand(rng, (2, 2)))
            g_mod = sample_free_submodule(ring, 2, int(rng.integers(1, 3)), rng)
            got = intersect_with_free(n_mod, g_mod)
            e1 = {x.tobytes() for x in n_mod.elements()}
            e2 = {x.tobytes() for x in g_mod.elements()}
            assert {x.tobytes() for x in got.elements()} == (e1 & e2)
            inter_count += 1

    free_count = 0
    for ring, reps in ((z4, 100), (z9, 70), (rxi, 40)):
        for _ in range(reps):
            gens = ring.rand(rng, (int(rng.integers(1, 3)), 2))
            sub = Submodule(ring, 2, gens)
            assert free_module_test(sub) == _brute_free_test(ring, sub)
            free_count += 1

    prod_count = 0
    for ring in rings_all:
        ext = ExtensionDesc(ring, 2)
        for _ in range(70):
            a_mod = ext.support(ext.rand(rng, (2,)))
            b_mod = ext.support(ext.rand(rng, (2,)))
            got = module_product(ext, a_mod, b_mod)
            ea, eb = a_mod.elements(), b_mod.elements()
            prods = ext.mul(ext.unrep(ea)[:, None, :],
                            ext.unrep(eb)[None, :, :]).reshape(-1, ext.D)
            brute = Submodule(ring, 2, ext.vec_rep(np.unique(prods, axis=0)))
            assert got.equals(brute)
            prod_count += 1

    elapsed = time.perf_counter() - t0
    assert min(solve_count, inter_count, free_count, prod_count) >= 200
    assert elapsed < 120.0
    _report(3, f"{solve_count}/{inter_count}/{free_count}/{prod_count} "
               f"instances (solve/intersect/free/product) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: counting oracle


def _enumerate_vectors(ring, n):
    char = ring.char
    grids = np.meshgrid(*([np.arange(char, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, -1).reshape(-1, n)


def _span_array(ring, vecs, base):
    """All R-combinations of the base vectors (arrays of shape (k, n))."""
    char = ring.char
    cur = np.zeros((1, base.shape[1]), dtype=np.int64)
    for g in base:
        shifted = (cur[None, :, :] + (np.arange(char)[:, None, None] * g[None, None, :])) % char
        cur = np.unique(shifted.reshape(-1, base.shape[1]), axis=0)
    return cur


def _stepwise_count(ring, n, r, rng):
    """Exhaustive stepwise enumeration of independent r-tuples in R^n.

    Extension counts are enumerated over all of R^n at each step (a vector
    v extends an independent tuple iff p^(s-1) v lies outside the tuple's
    span, enumerated exactly); the count's independence from the base
    tuple is cross-checked against freshly sampled independent tuples.
    """
    char, p, s = ring.char, ring.p, ring.s
    vecs = _enumerate_vectors(ring, n)
    weights = char ** np.arange(n, dtype=np.int64)
    scaled_codes = ((p ** (s - 1)) * vecs % char) @ weights
    total = 1
    base = np.zeros((0, n), dtype=np.int64)

    def ext_count(tuple_base):
        span = _span_array(ring, vecs, tuple_base)
        span_codes = np.sort(span @ weights)
        bad = np.isin(scaled_codes, span_codes, assume_unique=False)
        return int((~bad).sum()), span_codes

    for i in range(r):
        count_i, span_codes = ext_count(base)
        for _ in range(2):  # cross-check base independence of the count
            while True:
                alt = vecs[rng.integers(0, len(vecs), size=i)]
                if len(_span_array(ring, vecs, alt)) == char ** i:
                    break
            alt_count, _ = ext_count(alt)
            assert alt_count == count_i
        total *= count_i
        good = np.nonzero(~np.isin(scaled_codes, span_codes))[0]
        base = np.concatenate([base, vecs[good[:1]]], axis=0)
    return total


def _full_tuple_count(ring, n, r):
    vecs = _enumerate_vectors(ring, n)
    cnt = 0
    for tup in itertools.product(range(len(vecs)), repeat=r):
        base = vecs[list(tup)]
        if len(_span_array(ring, vecs, base)) == ring.char ** r:
            cnt += 1
    return cnt


def test_criterion_04_counting_oracle(z4, z8):
    rng = np.random.default_rng(44)
    t0 = time.perf_counter()
    checked = 0
    for ring in (z4, z8):
        n_max = 1
        while ring.size ** (n_max + 1) <= 2 ** 16:
            n_max += 1
        for n in range(1, n_max + 1):
            for r in range(0, n + 1):
                formula = lr.count_independent_tuples(ring, n, r)
                if r == 0:
                    assert formula == 1
                    continue
                assert formula == _stepwise_count(ring, n, r, rng)
                checked += 1
    # small cases double-checked by full tuple enumeration
    for ring, n, r in ((z4, 1, 1), (z4, 2, 1), (z4, 2, 2), (z8, 1, 1)):
        assert lr.count_independent_tuples(ring, n, r) == _full_tuple_count(ring, n, r)
    elapsed = time.perf_counter() - t0
    _report(4, f"{checked} (n, r) pairs over Z4 and Z8 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 + 6: the reference Monte Carlo experiment (shared run)


@pytest.fixture(scope="session")
def reference_setup_run():
    config = ExperimentConfig(ring_spec="Z4", m=20, n=20, k=8, lam=2,
                              t_values=(1, 2, 3, 4, 5, 6), trials=10000,
                              seed=0x5EED)
    lam = config.lam
    cond = {t: [0, 0] for t in config.t_values}  # filtered trials, successes

    def hook(t, trial, code, cw, err, res):
        # Z4 is the one-factor case of the product-ring trial path
        (code,), (cw,), (err,) = code.codes, cw, err
        if isinstance(res, tuple):
            (res,) = res
        ext = code.ext
        s = syndrome(code, err)
        if not s.any():
            return
        s_sup = ext.support(s)
        nu, s_free = free_module_test(s_sup)
        if nu != lam * t:
            return
        assert s_free  # frk(S) = lambda t forces S = EF, a free module
        # the product condition is implied by the syndrome condition; check it
        ef = module_product(ext, ext.support(err), code.F_module)
        assert free_rank(ef) == lam * t
        # intersection condition, computed independently of the decoder
        basis = ext.unrep(s_sup.basis())
        inter = s_sup
        for i in range(1, lam):
            gens_i = ext.mul(basis, code.F_inv[i][None, :])
            inter = intersect_with_free(
                inter, Submodule(ext.base, ext.m, ext.vec_rep(gens_i)))
        r_i, free_i = free_module_test(inter)
        if not (free_i and r_i == t):
            return
        cond[t][0] += 1
        if isinstance(res, np.ndarray) and np.array_equal(res, cw):
            cond[t][1] += 1

    t0 = time.perf_counter()
    records = run_trials(config, per_trial_hook=hook)
    elapsed = time.perf_counter() - t0
    return config, records, cond, elapsed


def test_criterion_05_completeness_under_conditions(reference_setup_run):
    config, records, cond, elapsed = reference_setup_run
    total_filtered = 0
    for t in config.t_values:
        filtered, successes = cond[t]
        assert successes == filtered, (
            f"t={t}: {filtered - successes} exceptions among {filtered} "
            "condition-satisfying trials")
        total_filtered += filtered
    assert total_filtered > 30000
    assert elapsed < 600.0
    _report(5, f"0 exceptions in {total_filtered} condition-satisfying trials "
               f"of {len(config.t_values) * config.trials} ({elapsed:.0f}s)")


def test_criterion_06_bound_consistency(reference_setup_run):
    config, records, cond, elapsed = reference_setup_run
    lines = []
    for rec in records:
        bound = theoretical_bound(2, config.lam, rec.t, config.m,
                                  config.n, config.k)
        bf = float(1 - bound)
        sigma = (float(bound) * bf / rec.trials) ** 0.5
        assert rec.empirical_failure_rate <= bf + 3 * sigma, (
            f"t={rec.t}: empirical {rec.empirical_failure_rate} exceeds "
            f"bound failure {bf} + 3 sigma")
        lines.append(f"t={rec.t}:{rec.empirical_failure_rate:.4f}<={bf:.4f}+3s")
    _report(6, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 7: product-bound statistics


def test_criterion_07_product_bound_statistics(z4):
    rng = np.random.default_rng(33)
    ext = ExtensionDesc(z4, 20)
    n_draws = 10000
    results = []
    for alpha, beta in ((1, 1), (1, 2), (2, 1), (2, 2)):
        b_mod = sample_free_submodule(z4, 20, beta, rng)
        good = 0
        for _ in range(n_draws):
            a_mod = sample_free_submodule(z4, 20, alpha, rng)
            ab = module_product(ext, a_mod, b_mod)
            if free_rank(ab) == alpha * beta:
                good += 1
        bound = 1 - alpha * 2.0 ** (alpha * beta - 20)
        sigma = (bound * (1 - bound) / n_draws) ** 0.5
        assert good / n_draws >= bound - 3 * sigma, (alpha, beta, good)
        results.append(f"a={alpha},b={beta}:{good}/{n_draws}")
    _report(7, "; ".join(results))


# ---------------------------------------------------------------------------
# criterion 8: factor recovery


def test_criterion_08_recover_factor_identity(z4):
    rng = np.random.default_rng(88)
    ext = ExtensionDesc(z4, 20)
    f_mod = ext.support([ext.one, ext.theta().flat])
    report = lr.square_property_check(ext, f_mod)
    assert report.has_square_property and report.beta2 == 3
    f2 = module_product(ext, f_mod, f_mod)
    done = 0
    while done < 100:
        rank = 1 + done % 3
        a_mod = sample_free_submodule(z4, 20, rank, rng)
        if free_rank(module_product(ext, a_mod, f2)) != rank * report.beta2:
            continue  # hypothesis violated; resample
        ab = module_product(ext, a_mod, f_mod)
        assert lr.recover_factor(ext, ab, report).equals(a_mod)
        done += 1
    _report(8, "100 exact recoveries for ranks 1..3 with F = <1, theta>")


# ---------------------------------------------------------------------------
# criterion 9: product-ring end-to-end


def test_criterion_09_product_ring_end_to_end():
    rng = np.random.default_rng(99)
    ring = lr.decompose_ring(6)
    ext = lr.ProductExtensionDesc(ring, 10)
    params = CodeParams(10, 4, 2, 2)
    code = lr.generate_product_code(params, ext, rng)
    lam = params.lam
    t_js = (2, 2)
    n_trials = 3000
    cond_ok = cond_success = successes = 0
    for _ in range(n_trials):
        msg = ext.rand_vector(rng, params.k)
        cw = encode_product(code, msg)
        err = sample_error_product(ext, params.n, list(t_js), rng)
        out = decode_product(code, ext.add(cw, err))
        ok = not isinstance(out, lr.ProductDecodingFailure) and ext.equal(out, cw)
        successes += 1 if ok else 0
        both = True
        for j in range(ring.rho):
            fac = ext.factors[j]
            s_j = syndrome(code.codes[j], err[j])
            s_sup = fac.support(s_j)
            if free_rank(s_sup) != lam * t_js[j]:
                both = False
                break
            basis = fac.unrep(s_sup.basis())
            inter = s_sup
            for i in range(1, lam):
                gens_i = fac.mul(basis, code.codes[j].F_inv[i][None, :])
                inter = intersect_with_free(
                    inter, Submodule(fac.base, fac.m, fac.vec_rep(gens_i)))
            r_i, free_i = free_module_test(inter)
            if not (free_i and r_i == t_js[j]):
                both = False
                break
        if both:
            cond_ok += 1
            cond_success += 1 if ok else 0
    assert cond_success == cond_ok and cond_ok > 0
    bound = float(lr.product_theoretical_bound([2, 3], lam, list(t_js),
                                               ext.m, params.n, params.k))
    sigma = (bound * (1 - bound) / n_trials) ** 0.5
    assert successes / n_trials >= bound - 3 * sigma
    _report(9, f"{cond_success}/{cond_ok} under conditions; overall "
               f"{successes}/{n_trials} >= {bound:.3f} - 3 sigma")


# ---------------------------------------------------------------------------
# criterion 10: exhaustive erasure uniqueness


def test_criterion_10_erasure_uniqueness_exhaustive(z4):
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    ext = ExtensionDesc(z4, 4)
    params = CodeParams(4, 2, 2, 1)
    code = lr.generate_code(params, ext, rng)
    # all free rank-1 supports of R^4: independent singletons up to units
    vecs = _enumerate_vectors(z4, 4)
    units = (vecs % 2).any(axis=1)
    weights = 4 ** np.arange(4, dtype=np.int64)
    seen = set()
    supports = []
    for v in vecs[units]:
        key = min(int(v @ weights), int((3 * v % 4) @ weights))
        if key not in seen:
            seen.add(key)
            supports.append(v)
    assert len(supports) == lr.count_free_submodules(z4, 4, 1) == 120
    # all coefficient matrices with full-rank residue: support exactly <eps>
    coeffs = _enumerate_vectors(z4, 4)
    coeffs = coeffs[(coeffs % 2).any(axis=1)]  # 240 of them
    checked = 0
    for v in supports:
        eps = ext.unrep(np.asarray(v, dtype=np.int64)[None, :, None])[0]
        ef = module_product(ext, ext.support([eps]), code.F_module)
        if free_rank(ef) != params.lam:
            continue  # support violates the uniqueness hypothesis
        # syndromes of e = C x eps for all coefficient vectors C at once
        h_eps = ext.mul(code.H, eps[None, None, :])  # (n-k, n, D)
        synds = np.einsum("cj,ijd->cid", coeffs, h_eps) % 4
        flat = synds.reshape(len(coeffs), -1)
        assert len(np.unique(flat, axis=0)) == len(coeffs)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 100
    assert elapsed < 120.0
    _report(10, f"{checked} valid supports x {len(coeffs)} errors, all "
                f"syndromes distinct ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical simulation output


def test_criterion_11_simulate_determinism(tmp_path):
    from lrpc_rings.cli import main as cli_main
    args = ["simulate", "--ring", "Z4", "--ext", "m=20", "--n", "20",
            "--k", "8", "--lambda", "2", "--t", "1..2", "--trials", "60",
            "--seed", "123"]
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(p1)]) == 0
    assert cli_main(args + ["--out", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    _report(11, f"two simulate runs produced identical {len(b1)}-byte CSVs")
