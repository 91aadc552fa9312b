import zlib
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np
import pytest

from lrpc_rings import (MatR, Submodule, count_free_submodules,
                        count_independent_tuples, errors, free_module_test,
                        free_rank, general_intersection, intersect_with_free,
                        module_product, module_rank, recover_factor,
                        sample_free_submodule, solve_linear,
                        square_property_check, unit_pivot_factor)
from lrpc_rings import ExtensionDesc, Zmod, galois_ring, modlin
from lrpc_rings.modlin import (column_jordan, gauss_inverse, intersect_preimages,
                               scale_module, square_witnesses)
from lrpc_rings.specparse import parse_local_atom

from conftest import (brute_solution_set, gauss_inverse_oracle,
                      module_rank_oracle, recover_factor_oracle,
                      square_property_oracle, unit_pivot_factor_oracle,
                      unit_pivot_loop_oracle)

# Galois rings, chain quotients and the quotient by (x^2+x+1)^2 over Z4,
# whose Galois subring GR(4,2) is found by Hensel lifting
RANK_RINGS = ("Z2", "Z4", "Z9", "GR(4,2)", "Z4[x]/(x^2)", "Z2[x]/(x^3)",
              "Z4[x]/(x^4+2*x^3+3*x^2+2*x+1)")


def _golden_system(rxi):
    e = lambda c0, c1=0: rxi.from_poly([c0, c1]).flat
    a = np.array([[e(2), e(1, 1)], [e(0, 1), e(1, 2)]])
    b = np.array([e(0), e(2, 1)])
    return a, b


def _support(s5, *polys):
    return s5.support([s5.from_poly(p).flat for p in polys])


class TestSolveLinear:
    def test_golden_system(self, rxi):
        a, b = _golden_system(rxi)
        sol = solve_linear(rxi, a, b)
        got = {s.tobytes() for s in sol.all_solutions()}
        want = {np.array(v, dtype=np.int64).tobytes()
                for v in [((3, 2), (2, 2)), ((1, 3), (2, 0)),
                          ((3, 0), (2, 2)), ((1, 1), (2, 0))]}
        assert got == want

    def test_identity_system(self, z9, rng):
        b = z9.rand(rng, (3,))
        eye = Submodule.full(z9, 3).gens
        sol = solve_linear(z9, eye, b)
        assert sol.is_consistent and np.array_equal(sol.particular, b)
        assert len(sol.all_solutions()) == 1

    def test_inconsistent(self, z4):
        sol = solve_linear(z4, np.array([[[2]]]), np.array([[1]]))
        assert not sol.is_consistent
        assert len(sol.all_solutions()) == 0

    def test_matr_wrapper(self, z4):
        m = MatR(z4, [[2, 1], [0, 2]])
        sol = solve_linear(z4, m, np.array([[2], [0]]))
        assert sol.is_consistent

    @pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi"])
    def test_random_vs_brute(self, ring_name, request, rng):
        ring = request.getfixturevalue(ring_name)
        for trial in range(20):
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


class TestUnitPivotFactor:
    def test_worked_example_rows(self, z4, s5):
        a_sup = _support(s5, [3, 2, 0, 3, 0], [1, 3, 0, 2, 2])
        w, perm, r = unit_pivot_factor(z4, a_sup.gens)
        assert r == 2 and perm.tolist() == [0, 1, 2, 3, 4]
        jordan = [[1, 0, 0, 3, 0], [0, 1, 0, 1, 2]]
        assert np.array_equal(w[..., 0], jordan)
        assert np.array_equal(a_sup.basis()[..., 0], jordan)

    def test_zero_and_identity(self, z4):
        w, perm, r = unit_pivot_factor(z4, np.zeros((2, 3, 1), dtype=np.int64))
        assert r == 0 and not w.any() and perm.tolist() == [0, 1, 2]
        eye = Submodule.full(z4, 3).gens
        w, perm, r = unit_pivot_factor(z4, eye)
        assert r == 3 and np.array_equal(w, eye)

    def test_malformed_input_raises_lrpc_errors(self, z4, gr42):
        """A matrix must be (s, N, D) or a stack (B, s, N, D) for the ring's
        D, and 0 <= ncols <= N; anything else raises RingMismatch (the
        shape) or BadRank (ncols), not an IndexError or a numpy error."""
        one = np.ones((1, 2, 1), dtype=np.int64)
        for ncols in (5, 3, -1):
            with pytest.raises(errors.BadRank):
                unit_pivot_factor(z4, one, ncols)
            with pytest.raises(errors.BadRank):
                unit_pivot_factor(z4, one[None], ncols)
        for shape in ((2, 2, 3), (2, 2), (2,), (), (1, 1, 2, 2, 1)):
            with pytest.raises(errors.RingMismatch):
                unit_pivot_factor(z4, np.ones(shape, dtype=np.int64))
        with pytest.raises(errors.RingMismatch):  # D = 2 entries need 2 coordinates
            unit_pivot_factor(gr42, np.ones((2, 2, 1), dtype=np.int64))
        for ncols in (0, 2):  # both ends of the range are valid
            assert unit_pivot_factor(z4, one, ncols)[2] == min(ncols, 1)

    @pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi", "gr42"])
    def test_ptq_exact_and_p_invertible(self, ring_name, request, rng):
        """A Q = P W exactly for the column permutation Q = perm and an
        invertible P = U^-1, with W in Jordan form: the forward-elimination
        oracle's r, perm and rows r:, W[:, :r] = (I; 0), and W's rows span
        the module of A[:, perm]."""
        ring = request.getfixturevalue(ring_name)
        for _ in range(12):
            s_, n_ = rng.integers(1, 5, 2)
            a = ring.rand(rng, (s_, n_))
            w, perm, r = unit_pivot_factor(ring, a)
            t, o_perm, o_r = unit_pivot_factor_oracle(ring, a)
            assert r == o_r and np.array_equal(perm, o_perm)
            assert np.array_equal(w[r:], t[r:])
            eye = Submodule.full(ring, s_).gens
            assert np.array_equal(w[:, :r], eye[:, :r])
            assert Submodule(ring, n_, w).equals(Submodule(ring, n_, a[:, perm]))
            # U from the same elimination of (A | I): its pivots lie in A
            wu, u_perm, u_r = unit_pivot_factor(
                ring, np.concatenate([a, eye], axis=1), ncols=n_)
            u = wu[:, n_:]
            assert u_r == r and np.array_equal(u_perm[:n_], perm)
            assert np.array_equal(wu[:, :n_], w)
            assert np.array_equal(ring.matmul(u, a[:, perm]), w)
            assert ring.residue_field.matrix_rank(ring.residue_codes(u)) == s_


def test_pivot_order_without_units_in_first_column(z4, rxi):
    """Leftmost unit column, topmost unit row: perm, r and the rows below
    r pinned from the column-by-column scans that preceded the vectorized
    ones; the rows above r are those rows reduced by the pivot rows."""
    a4 = np.array([[2, 2, 1, 0], [0, 3, 2, 1], [2, 1, 0, 3]])[..., None]
    ax = np.array([[[2, 1], [0, 3], [1, 1]],
                   [[0, 1], [2, 2], [3, 0]],
                   [[2, 0], [1, 2], [0, 1]]])
    for ring, a, perm, t in (
            (z4, a4, [1, 2, 0, 3], [[1, 0, 0, 3], [0, 1, 2, 2], [0, 0, 2, 0]]),
            (rxi, ax, [1, 2, 0], [[[1, 0], [0, 0], [2, 0]],
                                  [[0, 0], [1, 0], [0, 3]],
                                  [[0, 0], [0, 0], [2, 0]]])):
        w, w_perm, r = unit_pivot_factor(ring, a)
        assert w_perm.tolist() == perm and r == 2
        assert np.array_equal(w, np.reshape(t, a.shape))
    b4 = np.array([[2, 3, 1, 0], [1, 2, 2, 3]])[..., None]
    bx = np.array([[[2, 1], [1, 3], [0, 1]], [[1, 0], [2, 1], [3, 3]]])
    for ring, b, t in (
            (z4, b4, [[2, 1, 0, 1], [3, 2, 1, 2], [0, 0, 1, 0], [0, 0, 0, 1]]),
            (rxi, bx, [[[2, 1], [1, 0], [1, 3]],
                       [[1, 1], [2, 1], [2, 2]],
                       [[0, 0], [0, 0], [1, 0]]])):
        assert np.array_equal(column_jordan(ring, b), np.reshape(t, (b.shape[1],) * 2 + (ring.D,)))
    g4 = np.array([[2, 1, 0], [1, 2, 1], [3, 1, 2]])[..., None]
    gx = np.array([[[2, 1], [1, 0]], [[1, 1], [0, 1]]])
    for ring, g, inv in (
            (z4, g4, [[1, 2, 3], [3, 0, 2], [1, 3, 1]]),
            (rxi, gx, [[[0, 3], [1, 1]], [[1, 2], [2, 1]]])):
        assert np.array_equal(gauss_inverse(ring, g), np.reshape(inv, g.shape))


def _same_factor(got, want):
    """(W, perm, r) byte for byte: dtypes, shapes and values."""
    for g, e in zip(got[:2], want[:2]):
        assert (g.dtype, g.shape, g.tobytes()) == (e.dtype, e.shape, e.tobytes())
    assert type(got[2]) is int and got[2] == want[2]


def _rand_non_units(ring, rng, shape):
    """Uniform over the maximal ideal: ``rand_ideal`` of a base ring; over
    an extension S of R, the elements whose coordinates over R all lie in
    R's maximal ideal."""
    if isinstance(ring, ExtensionDesc):
        return ring.unrep(ring.base.rand_ideal(rng, tuple(shape) + (ring.m,)))
    return ring.rand_ideal(rng, shape)


def _factor_cases(ring, rng):
    """Inputs (A, ncols) for unit_pivot_factor: empty and single-column
    shapes, no unit at all (r = 0), unreduced entries, hand-built residue
    patterns, random matrices with sparse residues, zero columns,
    residue-dependent rows and ncols < N, the (A | I) blocks that
    gauss_inverse, column_jordan and left_kernel build, and rows that are
    p times or copies of others.  Non-units are drawn by
    :func:`_rand_non_units`."""
    char, d = ring.char, ring.D
    rand = lambda *shape: ring.rand(rng, shape)
    ideal = lambda *shape: _rand_non_units(ring, rng, shape)
    eye = lambda k: Submodule.full(ring, k).gens
    cases = [(np.zeros((0, 5, d), dtype=np.int64), None),
             (np.zeros((0, 5, d), dtype=np.int64), 2),
             (np.zeros((3, 0, d), dtype=np.int64), None),
             (rand(1, 1), None), (rand(4, 1), None), (ideal(4, 1), None),
             (ideal(5, 7), None),
             (rand(3, 4) - char, None)]
    # residues needing row and column swaps; a residue-dependent third row
    for bits in ([[0, 0, 1], [0, 1, 0], [1, 1, 1]],
                 [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        cases.append((np.array(bits)[..., None] * ring.one + ideal(3, 3), None))
    for _ in range(60):
        rows, cols = int(rng.integers(1, 14)), int(rng.integers(1, 30))
        a = rand(rows, cols)
        sparse = rng.random((rows, cols)) < rng.random()  # sparse residues
        a[sparse] = ideal(int(sparse.sum()))
        a[:, rng.random(cols) < 0.2] = 0
        for i in range(1, rows):
            if rng.random() < 0.3:
                j, k = rng.integers(0, i, 2)
                a[i] = (a[j] + a[k] + ideal(cols)) % char
        ncols = None if rng.random() < 0.5 else int(rng.integers(0, cols + 1))
        cases.append((a, ncols))
    for size in (1, 3, 6):
        cases.append((np.concatenate([rand(size, size), eye(size)], axis=1), size))
        bt = np.swapaxes(rand(max(size - 2, 1), 20), 0, 1)
        cases.append((np.concatenate([bt, eye(20)], axis=1), bt.shape[1]))
        cases.append((np.concatenate([rand(size + 4, size), eye(size + 4)], axis=1), size))
    for rows, cols in ((4, 7), (6, 5)):
        a = rand(rows, cols)
        a[1] = ring.p * a[0] % char
        a[3] = a[2]
        cases.append((a, None))
        cases.append((np.concatenate([a, eye(rows)], axis=1), cols))
    return cases


# D > 1 rings with residue field F_2; Z2[x]/(x^8) has char 2 and
# upsilon = 8, so its lift takes three Newton steps
F2_RINGS = ("Z4[x]/(x^2)", "Z4[x]/(x^2+2)", "Z2[x]/(x^3)", "Z8[x]/(x^2)",
            "Z16[x]/(x^3)", "Z2[x]/(x^8)")


@pytest.mark.parametrize("spec", (2, 4, 8, 16, 1024, 2 ** 31) + F2_RINGS)
def test_residue_first_elimination_matches_the_per_pivot_loop(spec):
    """Over Z_spec for an int spec, or the D > 1 ring a spec string names,
    all with residue field F_2: the pivots, swaps and r are chosen on
    packed residue rows and W is the Schur form from a Newton-lifted
    A11^-1 (five steps over Z_{2^31}, the largest D = 1 ring, where sums
    of products are split; products through the structure tensor when
    D > 1).  (W, perm, r) equals the per-pivot loop (is_unit, inverse and
    mul per pivot) byte for byte."""
    ring = Zmod(spec) if isinstance(spec, int) else parse_local_atom(spec)
    assert ring.q == 2
    rng = np.random.default_rng(zlib.crc32(str(spec).encode()))
    for a, ncols in _factor_cases(ring, rng):
        _same_factor(unit_pivot_factor(ring, a, ncols),
                     unit_pivot_loop_oracle(ring, a, ncols))


@pytest.mark.parametrize("spec", ("Z2", "Z4", "Z1024", "Z2147483648", "Z9") + F2_RINGS)
def test_upsilon_bounds_the_nilpotency_of_the_maximal_ideal(spec):
    """The residue-first lift takes ceil(log2 upsilon) Newton steps, which
    is exact only if m^upsilon = 0: every product of upsilon generators of
    the maximal ideal (with repetition) is 0, and so is every product of
    upsilon elements drawn by ``rand_ideal``."""
    ring = parse_local_atom(spec)
    gens = ring.maximal_ideal_gens
    for combo in combinations_with_replacement(gens, ring.upsilon):
        assert not reduce(ring.mul, combo, ring.one).any()
    rng = np.random.default_rng(0)
    draws = ring.rand_ideal(rng, (ring.upsilon, 200))
    assert not reduce(ring.mul, draws, ring.one).any()


# D > 1 rings with a residue field larger than F_2, base rings and
# extensions: the stacked kernel's deferred inverses, on a stack of one
DEFERRED_RINGS = {
    "GR(4,2)": lambda: galois_ring(2, 2, 2),
    "Z9[x]/(x^2)": lambda: parse_local_atom("Z9[x]/(x^2)"),
    "Z4 ext m=3": lambda: ExtensionDesc(Zmod(4), 3),
    "Z3 ext m=4": lambda: ExtensionDesc(Zmod(3), 4),
    "Z2 ext m=6": lambda: ExtensionDesc(Zmod(2), 6),
    "Z4[x]/(x^2) ext m=3": lambda: ExtensionDesc(parse_local_atom("Z4[x]/(x^2)"), 3),
}


@pytest.mark.parametrize("name", sorted(DEFERRED_RINGS))
def test_deferred_inverse_elimination_matches_the_per_pivot_loop(name, monkeypatch):
    """Over D > 1 rings with q > 2 the pivot rows are never normalised
    inside the loop: every row ends scaled by a product of pivots, and one
    array ``inverse`` call undoes the scales.  (W, perm, r) equals the
    per-pivot loop (is_unit, inverse and mul per pivot) byte for byte, also
    on rank-deficient and non-free inputs, whose rows below the pivots
    carry the product of all pivots."""
    ring = DEFERRED_RINGS[name]()
    assert ring.D > 1 and ring.q > 2
    calls = []
    inverse = type(ring).inverse

    def counted(self, a):
        calls.append(np.shape(a))
        return inverse(self, a)

    monkeypatch.setattr(type(ring), "inverse", counted)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for a, ncols in _factor_cases(ring, rng):
        calls.clear()
        got = unit_pivot_factor(ring, a, ncols)
        assert calls == ([(got[2], ring.D)] if got[2] else [])
        _same_factor(got, unit_pivot_loop_oracle(ring, a, ncols))


def test_residue_field_f2_selects_the_residue_first_path(z4, z9, rxi, gr42, s5, rng,
                                                         monkeypatch):
    """Every ring with residue field F_2 takes the residue-first path,
    whatever its D; odd p and larger residue fields (Z9, Z3, GR(4,2) and
    the extension s5) do not.  Every path equals the oracle."""
    taken = []
    residue_first = modlin._factor_residue_f2

    def spy(arith, *args):
        taken.append(arith)
        return residue_first(arith, *args)

    monkeypatch.setattr(modlin, "_factor_residue_f2", spy)
    f2 = (z4, rxi, parse_local_atom("Z2[x]/(x^3)"))
    for ring in f2 + (z9, Zmod(3), gr42, s5):
        for _ in range(10):
            a = ring.rand(rng, tuple(rng.integers(1, 9, 2)))
            taken.clear()
            _same_factor(unit_pivot_factor(ring, a), unit_pivot_loop_oracle(ring, a))
            assert len(taken) == (ring in f2) and all(t is ring for t in taken)


# the F_2 rings whose stacks take the stacked residue-first kernel, the
# larger residue fields (D = 1 with odd p, and D > 1), and an extension over
# each (every extension with m > 1 has q > 2): these take the stacked
# unit-pivot kernel
STACK_RINGS = {
    "Z3": lambda: Zmod(3),
    "Z9": lambda: Zmod(9),
    "Z3 ext m=10": lambda: ExtensionDesc(Zmod(3), 10),
    "Z4": lambda: Zmod(4),
    "Z8": lambda: Zmod(8),
    "Z4[x]/(x^2)": lambda: parse_local_atom("Z4[x]/(x^2)"),
    "Z2[x]/(x^3)": lambda: parse_local_atom("Z2[x]/(x^3)"),
    "GR(4,2)": lambda: galois_ring(2, 2, 2),
    "Z9[x]/(x^2)": lambda: parse_local_atom("Z9[x]/(x^2)"),
    "Z4 ext m=3": lambda: ExtensionDesc(Zmod(4), 3),
    "Z8 ext m=2": lambda: ExtensionDesc(Zmod(8), 2),
    "Z4[x]/(x^2) ext m=2": lambda: ExtensionDesc(parse_local_atom("Z4[x]/(x^2)"), 2),
    "Z2[x]/(x^3) ext m=2": lambda: ExtensionDesc(parse_local_atom("Z2[x]/(x^3)"), 2),
    "GR(4,2) ext m=2": lambda: ExtensionDesc(galois_ring(2, 2, 2), 2),
}


def _stacks(ring, rng):
    """Stacks (B, s, N, D) with their ncols, for B = 0, 1, 2, around
    UNITS_STACK_MIN and STACK_MIN, and around the trial chunk.  Each stack mixes random matrices
    with unreduced entries, matrices without a unit (r = 0), rows that are
    p times another, repeated rows and sparse residues; the shapes include
    ncols < N, more rows than columns, and (A | I) blocks of full rank."""
    from lrpc_rings.simulate import TRIAL_CHUNK
    char, d = ring.char, ring.D
    eye = lambda k: Submodule.full(ring, k).gens
    for s, cols, ncols, with_eye in ((3, 5, None, False), (6, 9, 4, False),
                                     (5, 3, None, False), (4, 4, 4, True)):
        for size in (0, 1, 2, modlin.UNITS_STACK_MIN - 1, modlin.UNITS_STACK_MIN,
                     modlin.STACK_MIN - 1, modlin.STACK_MIN, TRIAL_CHUNK - 1, TRIAL_CHUNK + 1):
            mats = []
            for b in range(size):
                a = ring.rand(rng, (s, cols))
                kind = b % 5
                if kind == 0:
                    a = a - char
                elif kind == 1:
                    a = _rand_non_units(ring, rng, (s, cols))
                elif kind == 2:
                    a[1] = ring.p * a[0] % char
                elif kind == 3:
                    a[-1] = a[0]
                else:
                    sparse = rng.random((s, cols)) < 0.6
                    a[sparse] = _rand_non_units(ring, rng, (int(sparse.sum()),))
                mats.append(np.concatenate([a, eye(s)], axis=1) if with_eye else a)
            width = cols + s if with_eye else cols
            yield np.array(mats, dtype=np.int64).reshape(size, s, width, d), ncols


@pytest.mark.parametrize("name", sorted(STACK_RINGS))
def test_stacked_factor_matches_one_call_per_matrix(name, monkeypatch):
    """unit_pivot_factor of a stack returns, for every matrix, the (W, perm,
    r) of its own call byte for byte, and of the per-pivot loop.  Over
    residue field F_2 a stack of at least STACK_MIN matrices runs the
    residue-first stacked kernel; over Z_char with odd p a stack of at
    least UNITS_STACK_MIN, and at D > 1 with q > 2 every nonempty stack,
    the stacked unit-pivot kernel; every other stack loops.  So at D > 1
    with q > 2 the matrix alone is also the stacked kernel's, and only the
    loop oracle checks it independently."""
    ring = STACK_RINGS[name]()
    stacked = []

    def spy(kernel):
        def counted(arith, w, n):
            stacked.append((kernel.__name__, len(w)))
            return kernel(arith, w, n)
        return counted

    for kernel in ("_factor_residue_f2_stack", "_factor_units_stack"):
        monkeypatch.setattr(modlin, kernel, spy(getattr(modlin, kernel)))
    if ring.q == 2:
        kernel, least = "_factor_residue_f2_stack", modlin.STACK_MIN
    else:
        kernel, least = "_factor_units_stack", 1 if ring.D > 1 else modlin.UNITS_STACK_MIN
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for a, ncols in _stacks(ring, rng):
        stacked.clear()
        w, perm, r = unit_pivot_factor(ring, a, ncols)
        assert stacked == ([(kernel, len(a))] if len(a) >= least else [])
        assert (w.dtype, w.shape) == (np.int64, a.shape)
        assert (perm.dtype, perm.shape) == (np.intp, a.shape[:1] + a.shape[2:3])
        assert (r.dtype, r.shape) == (np.intp, a.shape[:1])
        for i in range(len(a)):
            one = unit_pivot_factor(ring, a[i], ncols)
            _same_factor((w[i], perm[i], int(r[i])), one)
            _same_factor(one, unit_pivot_loop_oracle(ring, a[i], ncols))


def _column_jordan_oracle(arith, b):
    """Column operations on B and on T = I as two separate arrays, the loop
    that preceded column_jordan's single pass over B stacked over I."""
    w = np.asarray(b, dtype=np.int64) % arith.char
    r, n = w.shape[0], w.shape[1]
    t = np.zeros((n, n, arith.D), dtype=np.int64)
    t[np.arange(n), np.arange(n)] = arith.one
    for i in range(r):
        punit = i + int(np.nonzero(arith.is_unit(w[i, i:]))[0][0])
        w[:, [i, punit]] = w[:, [punit, i]]
        t[:, [i, punit]] = t[:, [punit, i]]
        ui = arith.inverse(w[i, i].copy())
        w[:, i] = arith.mul(w[:, i], ui)
        t[:, i] = arith.mul(t[:, i], ui)
        coefs = w[i].copy()
        coefs[i] = 0
        w = (w - arith.mul(coefs[None, :, :], w[:, i][:, None, :])) % arith.char
        t = (t - arith.mul(coefs[None, :, :], t[:, i][:, None, :])) % arith.char
    return t


@pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi", "s5"])
def test_eliminations_match_two_block_loops(ring_name, request, rng):
    """gauss_inverse and column_jordan on random matrices equal the loops
    that kept the identity block apart, and singular or dependent input
    raises;
    unit_pivot_factor brings (M | B) to (I | M1^-1 B1) on permuted columns."""
    ring = request.getfixturevalue(ring_name)
    for size in (1, 2, 4, 6):
        for _ in range(4):
            m = ring.rand(rng, (size, size))
            if unit_pivot_factor_oracle(ring, m)[2] < size:
                with pytest.raises(errors.NotFree):
                    gauss_inverse(ring, m)
                continue
            inv = gauss_inverse(ring, m)
            assert np.array_equal(inv, gauss_inverse_oracle(ring, m))
            eye = np.zeros_like(m)
            eye[np.arange(size), np.arange(size)] = ring.one
            assert np.array_equal(ring.matmul(m, inv), eye)
            b = ring.rand(rng, (max(size - 2, 1), size))
            if unit_pivot_factor_oracle(ring, b)[2] < b.shape[0]:
                with pytest.raises(errors.NotFree):
                    column_jordan(ring, b)
                continue
            t = column_jordan(ring, b)
            assert np.array_equal(t, _column_jordan_oracle(ring, b))
            a = np.concatenate([m, b.reshape(size, -1, ring.D)], axis=1)
            w, perm, r = unit_pivot_factor(ring, a)  # (I | A1^-1 A2) on columns perm
            assert r == size and sorted(perm) == list(range(a.shape[1]))
            assert np.array_equal(w[:, :size], eye)
            a1_inv = gauss_inverse_oracle(ring, a[:, perm[:size]])
            assert np.array_equal(w[:, size:], ring.matmul(a1_inv, a[:, perm[size:]]))


class TestMembership:
    def test_coefficients_reproduce_members(self, rxi, rng):
        for gens in (rxi.rand(rng, (2, 3)), np.zeros((2, 3, rxi.D), dtype=np.int64)):
            sub = Submodule(rxi, 3, gens)
            x = rxi.rand(rng, (2,))
            v = rxi.matmul(x[None], sub.gens)[0]
            assert sub.contains(v)
            coeffs = sub.coefficients_of(v)
            assert coeffs.shape == (2, rxi.D)
            assert np.array_equal(rxi.matmul(coeffs[None], sub.gens)[0], v)

    @pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi", "gr42"])
    def test_contains_agrees_with_coefficients_of(self, ring_name, request, rng):
        """contains (the plain Howell form) answers as coefficients_of (the
        Howell form with a tracking block) does, on members x . gens and on
        random vectors, for free and non-free generator sets."""
        ring = request.getfixturevalue(ring_name)
        answers = set()
        for _ in range(30):
            k, n = (int(x) for x in rng.integers(1, 4, 2))
            gens = ring.rand(rng, (k, n))
            if rng.integers(2):
                gens = ring.mul(gens, ring.rand_ideal(rng, (k, n)))  # non-units
            sub = Submodule(ring, n, gens)
            member = ring.matmul(ring.rand(rng, (1, k)), sub.gens)[0]
            for v in (member, ring.rand(rng, (n,)), ring.mul(ring.rand(rng, (n,)), gens[0])):
                answer = sub.contains(v)
                assert answer == (sub.coefficients_of(v) is not None)
                answers.add(answer)
            assert sub.contains(member)
        assert answers == {True, False}

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_raises_ambient_mismatch(self, rxi, rng, length):
        for gens in (rxi.rand(rng, (2, 3)), np.zeros((2, 3, rxi.D), dtype=np.int64)):
            sub = Submodule(rxi, 3, gens)
            v = rxi.rand(rng, (length,))
            with pytest.raises(errors.AmbientMismatch):
                sub.contains(v)
            with pytest.raises(errors.AmbientMismatch):
                sub.coefficients_of(v)


class TestFreeAndRank:
    def test_worked_example_suite(self, s5):
        a_sup = _support(s5, [3, 2, 0, 3, 0], [1, 3, 0, 2, 2])
        b_sup = _support(s5, [1, 0, 0, 2, 1], [3, 2, 0, 3, 2])
        assert free_module_test(a_sup) == (2, True)
        assert free_module_test(b_sup) == (2, True)
        assert free_rank(b_sup) == 2
        assert free_module_test(a_sup.sum(b_sup)) == (3, False)
        assert free_module_test(_support(s5, [2, 0, 0, 2, 0])) == (0, False)

    def test_trivial_ranks(self, z4):
        assert free_rank(Submodule.zero(z4, 3)) == 0
        assert free_rank(Submodule.full(z4, 3)) == 3
        assert module_rank(Submodule.zero(z4, 2)) == 0

    def test_free_rank_equals_pivot_count(self, rxi, z9, rng):
        for ring in (rxi, z9):
            for _ in range(15):
                gens = ring.rand(rng, (rng.integers(1, 4), rng.integers(1, 4)))
                sub = Submodule(ring, gens.shape[1], gens)
                assert free_rank(sub) == free_module_test(sub)[0]

    def test_module_rank_examples(self, rxi):
        # rk(R) = 1, rk(<2, xi>) = 2 as modules over Z4[x]/(x^2)
        full = Submodule(rxi, 1, np.array([[rxi.one]]))
        assert module_rank(full) == 1
        q_mod = Submodule(rxi, 1, np.array([[rxi.from_poly([2]).flat],
                                            [rxi.from_poly([0, 1]).flat]]))
        assert module_rank(q_mod) == 2

    @pytest.mark.parametrize("spec", RANK_RINGS)
    def test_module_rank_matches_greedy_scan(self, spec, rng):
        """Counting dim N/mN agrees with the greedy generator scan, on
        random modules and on modules with generators forced into mR^n."""
        ring = parse_local_atom(spec)
        zero = Submodule.zero(ring, 3)
        assert module_rank(zero) == module_rank_oracle(zero) == 0
        non_free = 0
        for _ in range(30):
            ambient, count = (int(x) for x in rng.integers(1, 5, 2))
            gens = ring.rand(rng, (count, ambient))
            if rng.integers(2):
                cut = int(rng.integers(1, count + 1))
                gens[:cut] = ring.mul(gens[:cut], ring.rand_ideal(rng, (cut, ambient)))
            sub = Submodule(ring, ambient, gens)
            non_free += not free_module_test(sub)[1]
            assert module_rank(sub) == module_rank_oracle(sub)
        assert non_free >= 5 or ring.size == ring.q  # a field has only free modules

    def test_free_module_rank_equals_frk(self, z4, rng):
        for _ in range(10):
            sub = sample_free_submodule(z4, 4, 2, rng)
            assert module_rank(sub) == 2 == free_rank(sub)

    def test_rank_bound_gamma(self, rxi, rng):
        # rk(N) <= gamma * rk(M) for N inside M
        for _ in range(10):
            m_gens = rxi.rand(rng, (2, 2))
            m_mod = Submodule(rxi, 2, m_gens)
            coeff = rxi.rand(rng, (3, 2))
            n_gens = rxi.mul(coeff[:, :, None, :], m_gens[None, :, :, :]).sum(axis=1) % rxi.char
            n_mod = Submodule(rxi, 2, n_gens)
            assert module_rank(n_mod) <= rxi.gamma * module_rank(m_mod)


class TestIntersections:
    def test_worked_example(self, z4, s5):
        a_sup = _support(s5, [3, 2, 0, 3, 0], [1, 3, 0, 2, 2])
        b_sup = _support(s5, [1, 0, 0, 2, 1], [3, 2, 0, 3, 2])
        cap = intersect_with_free(a_sup, b_sup)
        assert cap.equals(_support(s5, [2, 0, 0, 2, 0]))
        assert free_module_test(cap) == (0, False)

    def test_with_full_and_zero(self, z4, rng):
        n_mod = Submodule(z4, 3, z4.rand(rng, (2, 3)))
        full = Submodule.full(z4, 3)
        assert intersect_with_free(n_mod, full).equals(n_mod)
        assert intersect_with_free(n_mod, Submodule.zero(z4, 3)).is_zero()

    def test_not_free_rejected(self, z4):
        n_mod = Submodule(z4, 2, z4.rand(np.random.default_rng(0), (2, 2)))
        bad = Submodule(z4, 2, np.array([[[2], [0]]]))
        with pytest.raises(errors.NotFree):
            intersect_with_free(n_mod, bad)

    def test_general_matches_free_path(self, z4, z9, rng):
        for ring in (z4, z9):
            for _ in range(10):
                n1 = Submodule(ring, 2, ring.rand(rng, (2, 2)))
                g = sample_free_submodule(ring, 2, 1, rng)
                a = intersect_with_free(n1, g)
                b = general_intersection(n1, g)
                assert a.equals(b)


def _howell_left_kernel(ring, m):
    """Oracle: the left kernel from the Howell form of M's expansion over
    R0 alone (LocalRingDesc.left_kernel's fallback, run on every input)."""
    big = np.swapaxes(ring.expand_matrix(np.swapaxes(m, 0, 1)), 0, 1)
    return ring.contract_vectors(ring.chain.left_kernel(big)).reshape(-1, m.shape[0], ring.D)


def _brute_left_kernel(ring, m):
    """Oracle: every x in R^k with x M = 0, by enumeration, as bytes."""
    elems = ring.enumerate_elements()
    k = m.shape[0]
    xs = elems[np.indices([len(elems)] * k).reshape(k, -1).T]
    prods = ring.mul(xs[:, :, None, :], m[None]).sum(axis=1) % ring.char
    return {x.tobytes() for x in xs[~prods.any(axis=(1, 2))]}


class TestLeftKernel:
    @staticmethod
    def _check(ring, m):
        """Rows satisfy x M = 0 and span the Howell kernel; returns them."""
        ker = ring.left_kernel(m)
        k = m.shape[0]
        assert ker.shape[1:] == (k, ring.D)
        if ker.shape[0]:
            assert not ring.matmul(ker, m).any()
        assert Submodule(ring, k, ker).equals(Submodule(ring, k, _howell_left_kernel(ring, m)))
        return ker

    @pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi", "gr42"])
    def test_random_against_howell(self, ring_name, request, rng):
        ring = request.getfixturevalue(ring_name)
        for _ in range(40):
            k, n = rng.integers(1, 6, 2)
            m = ring.rand(rng, (k, n))
            if rng.integers(2):
                m = ring.mul(m, ring.rand_ideal(rng, (k, n)))  # non-unit entries
            self._check(ring, m)

    @pytest.mark.parametrize("ring_name", ["z4", "rxi"])
    def test_small_shapes_against_brute_force(self, ring_name, request, rng):
        ring = request.getfixturevalue(ring_name)
        for _ in range(20):
            k, n = rng.integers(1, 3, 2) if ring.D > 1 else rng.integers(1, 4, 2)
            m = ring.rand(rng, (k, n))
            ker = self._check(ring, m)
            span = Submodule(ring, k, ker).elements()
            assert {x.tobytes() for x in span} == _brute_left_kernel(ring, m)

    @pytest.mark.parametrize("spec", ["Z4", "Z8", "Z9", "GR(4,2)", "Z4[x]/(x^2)",
                                      "Z2[x]/(x^3)"])
    def test_a_non_unit_left_below_the_pivots_means_a_non_free_kernel(self, spec):
        """The fact behind the decoder's line 14: the unit-pivot elimination
        of (M | I), pivots in M's columns, leaves a nonzero block below its
        r pivots (W[r:, :n] != 0) iff the left kernel of M, from the Howell
        form alone, is not free.  Half the matrices have non-unit entries
        only, and both cases occur on every ring."""
        ring = parse_local_atom(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        seen = set()
        for i in range(300):
            k, n = rng.integers(1, 6, 2)
            m = ring.rand(rng, (k, n))
            if i % 2:
                m = ring.mul(m, ring.rand_ideal(rng, (k, n)))
            w, _, r = unit_pivot_factor(ring, modlin._with_identity(ring, m), ncols=n)
            left_over = bool(w[r:, :n].any())
            kernel = Submodule(ring, k, _howell_left_kernel(ring, m))
            assert left_over == (not free_module_test(kernel)[1])
            seen.add(left_over)
        assert seen == {True, False}

    def test_free_kernels_skip_the_howell_form(self, z4, rxi, rng, monkeypatch):
        for ring in (z4, rxi):
            def no_howell(*_):
                raise AssertionError("free kernel went through the Howell form")
            monkeypatch.setattr(ring.chain, "left_kernel", no_howell)
            m = np.concatenate([Submodule.full(ring, 2).gens, ring.rand(rng, (2, 2))])
            ker = ring.left_kernel(m)
            assert ker.shape[0] == 2 and free_module_test(Submodule(ring, 4, ker)) == (2, True)
            assert not ring.matmul(ker, m).any()

    def test_non_free_kernels_take_the_fallback(self, z4, rxi):
        """Non-units left below the pivots: the kernel is not free, so the
        unit-pivot rows alone cannot give it."""
        e = lambda c0, c1=0: rxi.from_poly([c0, c1]).flat
        cases = ((z4, np.array([[[2]]])),
                 (z4, np.array([[[1], [0]], [[1], [2]]])),
                 (rxi, np.array([[e(0, 1)], [e(2)]])),
                 (rxi, np.array([[e(1), e(0, 1)], [e(1, 1), e(2, 1)]])))
        for ring, m in cases:
            ker = self._check(ring, m)
            assert not free_module_test(Submodule(ring, m.shape[0], ker))[1]
            span = Submodule(ring, m.shape[0], ker).elements()
            assert {x.tobytes() for x in span} == _brute_left_kernel(ring, m)


class TestIntersectPreimages:
    @pytest.mark.parametrize("ring_name", ["z4", "rxi"])
    def test_matches_sequential_intersections(self, ring_name, request, rng):
        """G cap a_1^-1 G cap ... equals the intersect_with_free loop over
        the scaled modules a_i^-1 G, for units a_i of S."""
        ring = request.getfixturevalue(ring_name)
        ext = ExtensionDesc(ring, 6)
        for _ in range(8):
            g = sample_free_submodule(ring, 6, int(rng.integers(1, 6)), rng)
            units = ext.rand_unit(rng, (int(rng.integers(0, 3)),))
            got = intersect_preimages(ext, g, units)
            want = g
            for a in units:
                want = intersect_with_free(want, scale_module(ext, g, ext.inverse(a)))
            assert got.equals(want)

    def test_rejects_non_free(self, z4):
        ext = ExtensionDesc(z4, 2)
        bad = Submodule(z4, 2, np.array([[[2], [0]]]))
        with pytest.raises(errors.NotFree):
            intersect_preimages(ext, bad, ext.one[None])


class TestModuleProduct:
    def test_worked_example_products(self, s5):
        a_sup = _support(s5, [3, 2, 0, 3, 0], [1, 3, 0, 2, 2])
        b_sup = _support(s5, [1, 0, 0, 2, 1], [3, 2, 0, 3, 2])
        ab = module_product(s5, a_sup, b_sup)
        stated = _support(s5, [1, 0, 3, 3, 0], [1, 3, 2, 1, 0],
                          [0, 3, 1, 2, 3], [1, 1, 2, 3, 3])
        assert ab.equals(stated)
        assert not free_module_test(ab)[1]
        # the stated generators are exactly the pairwise generator products
        ga = s5.unrep(a_sup.gens)
        gb = s5.unrep(b_sup.gens)
        prods = {s5.mul(x, y).tobytes() for x in ga for y in gb}
        want = {s5.from_poly(p).flat.tobytes()
                for p in ([1, 0, 3, 3, 0], [1, 3, 2, 1, 0],
                          [0, 3, 1, 2, 3], [1, 1, 2, 3, 3])}
        assert prods == want

    def test_product_with_one(self, s5, rng):
        a_sup = s5.support(s5.rand(rng, (2,)))
        one_mod = s5.support([s5.one])
        assert module_product(s5, a_sup, one_mod).equals(a_sup)

    def test_generating_set_invariance(self, z4, rng):
        ext = ExtensionDesc(z4, 2)
        for _ in range(10):
            gens = ext.rand(rng, (2,))
            a1 = ext.support(gens)
            # same module, different generators: add a random combination
            extra = ext.add(ext.scalar_mul(z4.rand(rng), gens[0]),
                            ext.scalar_mul(z4.rand(rng), gens[1]))
            a2 = ext.support(np.concatenate([gens, extra[None, :]]))
            b = ext.support(ext.rand(rng, (2,)))
            assert module_product(ext, a1, b).equals(module_product(ext, a2, b))


class TestCounting:
    def test_examples(self, z4):
        assert count_independent_tuples(z4, 1, 1) == 2
        assert count_independent_tuples(z4, 2, 0) == 1
        assert count_independent_tuples(z4, 2, 1) == 12
        with pytest.raises(errors.BadRank):
            count_independent_tuples(z4, 2, 3)

    def test_free_submodule_count(self, z4):
        # rank-1 free submodules of Z4^2: 12 independent singletons in
        # orbits of size |R*| = 2
        assert count_free_submodules(z4, 2, 1) == 6


class TestSampling:
    def test_zero_rank(self, z4, rng):
        assert sample_free_submodule(z4, 3, 0, rng).is_zero()
        with pytest.raises(errors.BadRank):
            sample_free_submodule(z4, 3, 4, rng)

    def test_always_free_of_exact_rank(self, rxi, rng):
        for rank in (1, 2):
            for _ in range(10):
                sub = sample_free_submodule(rxi, 3, rank, rng)
                assert free_module_test(sub) == (rank, True)

    @pytest.mark.parametrize("ring_name", ["z2", "z3", "z4", "z9", "gr42", "rxi"])
    def test_generators_are_the_jordan_basis(self, ring_name, request, rng):
        """The sampled generators carry an identity pivot block, so basis()
        gives them back row for row (sample_error uses them as the basis)."""
        ring = (Zmod(int(ring_name[1:])) if ring_name in ("z2", "z3")
                else request.getfixturevalue(ring_name))
        for ambient, rank in ((5, 1), (6, 3), (9, 8), (12, 5)):
            sub = sample_free_submodule(ring, ambient, rank, rng)
            assert np.array_equal(sub.basis(), sub.gens)

    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z9", "GR(4,2)", "Z4[x]/(x^2)"])
    def test_chunks_keep_every_trials_stream(self, spec):
        """sample_free_submodules gives each generator of a stack the
        generators that sample_free_submodule draws from a fresh copy of
        it, and leaves it where sample_free_submodule does, on stacks of 0,
        1, 2, 7 and 16; rank = ambient makes full rank rare (odds 0.29 to
        0.69), so rounds redraw."""
        ring = parse_local_atom(spec)
        for ambient, rank in ((6, 0), (6, 2), (4, 4), (10, 3)):
            for size in (0, 1, 2, 7, 16):
                streams = lambda: [np.random.default_rng([rank, size, j]) for j in range(size)]
                rngs = streams()
                gens, failure = modlin.sample_free_submodules(ring, ambient, rank, rngs)
                assert failure is None and gens.shape == (size, rank, ambient, ring.D)
                for got, rng, fresh in zip(gens, rngs, streams(), strict=True):
                    assert np.array_equal(got, sample_free_submodule(ring, ambient, rank,
                                                                     fresh).gens)
                    assert rng.integers(0, 2 ** 62) == fresh.integers(0, 2 ** 62)

    def test_residue_draws_have_a_budget(self, monkeypatch):
        """With SAMPLE_ATTEMPTS = 1 a rank-4 sample in F_2^4 (full-rank odds
        0.31) raises GenerationFailed on some streams and succeeds on
        others; a stack stops before its first failing generator."""
        monkeypatch.setattr(modlin, "SAMPLE_ATTEMPTS", 1)
        z2 = Zmod(2)
        outcomes = []
        for seed in range(16):
            try:
                sample_free_submodule(z2, 4, 4, np.random.default_rng(seed))
                outcomes.append(True)
            except errors.GenerationFailed:
                outcomes.append(False)
        assert True in outcomes and False in outcomes
        gens, failure = modlin.sample_free_submodules(
            z2, 4, 4, [np.random.default_rng(seed) for seed in range(16)])
        assert isinstance(failure, errors.GenerationFailed)
        assert len(gens) == outcomes.index(False)

    def test_uniform_over_rank1_submodules_z4sq(self, z4, rng):
        # all 6 rank-1 free submodules of Z4^2, identified by the smallest
        # packed associate of a basis vector
        n_draws = 100000
        counts = {}
        for _ in range(n_draws):
            sub = sample_free_submodule(z4, 2, 1, rng)
            v = sub.gens[0, :, 0]
            key = min(int(v[0]) * 4 + int(v[1]),
                      int(3 * v[0] % 4) * 4 + int(3 * v[1] % 4))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        exp = n_draws / 6
        sigma = (n_draws * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - exp) <= 3 * sigma


class TestSquareProperty:
    def test_rank_one(self, s5):
        f_mod = s5.support([s5.one])
        rep = square_property_check(s5, f_mod)
        assert rep.has_square_property and rep.beta2 == 1
        assert np.array_equal(rep.suitable_basis[0], s5.one)

    def test_one_theta(self, s5):
        f_mod = s5.support([s5.one, s5.theta().flat])
        rep = square_property_check(s5, f_mod)
        assert rep.has_square_property
        assert rep.beta2 == 3 and rep.i0 == 2

    def test_degenerate_false(self, z4):
        # F = <1, 1 + 2t>: equals <1, 2t>, not free, so no square property
        ext = ExtensionDesc(z4, 3)
        one = ext.one
        b = ext.add(one, ext.scalar_mul(np.array([2]), ext.theta().flat))
        f_mod = ext.support([one, b])
        rep = square_property_check(ext, f_mod)
        assert not rep.has_square_property and rep.suitable_basis is None

    @pytest.mark.parametrize("spec,m", [("Z2", 6), ("Z4", 5), ("Z9", 4), ("GR(4,2)", 3),
                                        ("Z4[x]/(x^2)", 4), ("Z2[x]/(x^3)", 4)])
    def test_matches_old_check(self, spec, m, rng):
        """Same report as the check that solved for 1's coordinates and
        ranked F^2 by the greedy scan, on free and non-free F."""
        ring = parse_local_atom(spec)
        ext = ExtensionDesc(ring, m)
        seen = set()
        for _ in range(15):
            lam = int(rng.integers(1, 4))
            gens = np.concatenate([ext.one[None], ext.rand(rng, (lam - 1,))])
            if lam > 1 and rng.integers(3) == 0:
                gens[1] = ext.scalar_mul(ring.rand_ideal(rng), gens[1])
            f_mod = ext.support(gens)
            rep = square_property_check(ext, f_mod)
            has, basis, beta2, i0 = square_property_oracle(ext, f_mod)
            assert (rep.has_square_property, rep.beta2, rep.i0) == (has, beta2, i0)
            if basis is None:
                assert rep.suitable_basis is None
            else:
                assert np.array_equal(rep.suitable_basis, basis)
            seen.add((has, free_module_test(f_mod)[1]))
        assert (True, True) in seen

    def test_full_square_rank_implies_witness(self, z4, rxi, rng):
        """frk(F^2) = l(l+1)/2 gives a witness index i0 (the shortcut the
        check no longer takes)."""
        hits = 0
        for ring, m in ((z4, 8), (rxi, 6)):
            ext = ExtensionDesc(ring, m)
            for _ in range(10):
                lam = int(rng.integers(2, 4))
                f_mod = ext.support(np.concatenate([ext.one[None], ext.rand(rng, (lam - 1,))]))
                f2 = module_product(ext, f_mod, f_mod)
                if free_rank(f2) == lam * (lam + 1) // 2:
                    hits += 1
                    rep = square_property_check(ext, f_mod)
                    assert rep.has_square_property and rep.i0 is not None
        assert hits >= 10

    def test_one_required(self, s5):
        """1 in F, decided by F's first Jordan basis row for a free F and
        by membership otherwise."""
        theta, one = s5.theta().flat, s5.one
        two = s5.scalar_mul(np.array([2]), one)
        for gens in ([theta], [s5.add(one, theta)], [two, theta], [two]):
            with pytest.raises(errors.OneNotInModule):
                square_property_check(s5, s5.support(gens))
        with pytest.raises(errors.OneNotInModule):
            square_property_check(s5, Submodule.zero(s5.base, s5.m))
        for gens in ([theta, s5.add(one, theta)], [s5.add(one, two), theta]):
            rep = square_property_check(s5, s5.support(gens))
            assert rep.has_square_property and np.array_equal(rep.suitable_basis[0], one)
        rep = square_property_check(s5, s5.support([one, two, theta]))
        assert rep.has_square_property  # <1, 2, theta> = <1, theta> is free

    def test_free_modules_need_no_howell_form(self, s5, monkeypatch):
        """A free F shows 1 in its first Jordan basis row and a free module
        is ranked by its free rank: no Howell form and no member solve."""
        from lrpc_rings.chain import ChainRing

        def refuse(*args):
            raise AssertionError("Howell form built")

        monkeypatch.setattr(ChainRing, "howell", refuse)
        f_mod = s5.support([s5.one, s5.theta().flat])
        assert module_rank(f_mod) == 2
        rep = square_property_check(s5, f_mod)
        assert rep.has_square_property and rep.beta2 == 3 and rep.i0 == 2


@pytest.mark.parametrize("spec, m", [("Z3", 4), ("Z9", 4), ("GR(4,2)", 3), ("Z3", 10),
                                     ("Z2", 6), ("Z4[x]/(x^2)", 4)])
def test_square_witnesses_match_one_check_per_module(spec, m):
    """square_witnesses on a stack of free F's Jordan bases gives, for
    each, the property and witness that square_property_check gives on it
    alone, which the intersection oracle checks: stacks that mix F with and
    without the square property (for lambda = 2, b_2 in a subfield of
    degree 2; for lambda = 3 and m < 5, every F), lambda = 1, 2 and 3."""
    ring = parse_local_atom(spec)
    ext = ExtensionDesc(ring, m)
    rng = np.random.default_rng(zlib.crc32(f"{spec} {m}".encode()))
    seen = set()
    for lam in (1, 2, 3):
        bases, reports = [], []
        while len(bases) < 12:
            f_mod = ext.support(np.concatenate([ext.one[None], ext.rand(rng, (lam - 1,))]))
            if free_module_test(f_mod) != (lam, True):
                continue
            bases.append(ext.unrep(f_mod.basis()))
            reports.append(square_property_check(ext, f_mod))
        has, i0 = square_witnesses(ext, np.array(bases))
        for rep, h, i, basis in zip(reports, has.tolist(), i0.tolist(), bases):
            assert (h, i or None) == (rep.has_square_property, rep.i0)
            want = square_property_oracle(ext, ext.support(basis))
            assert (want[0], want[3]) == (h, i or None)
            seen.add(h)
    assert seen == {True, False} or (spec, m) == ("Z3", 10)


class TestRecoverFactor:
    def test_identity_small(self, z4, rng):
        ext = ExtensionDesc(z4, 8)
        f_mod = ext.support([ext.one, ext.theta().flat])
        rep = square_property_check(ext, f_mod)
        assert rep.has_square_property
        hits = 0
        for _ in range(20):
            a_mod = sample_free_submodule(z4, 8, 2, rng)
            f2 = module_product(ext, f_mod, f_mod)
            af2 = module_product(ext, a_mod, f2)
            if free_rank(af2) != 2 * rep.beta2:
                continue
            hits += 1
            ab = module_product(ext, a_mod, f_mod)
            assert recover_factor(ext, ab, rep).equals(a_mod)
        assert hits >= 10

    def test_matches_per_inverse_loop(self, z4, rxi, rng):
        """One intersect_preimages on a free AB, and the intersection loop
        on a non-free AB, give the module of the loop over explicit b^-1 AB."""
        seen = set()
        for ring, m, lam in ((z4, 8, 2), (z4, 8, 3), (rxi, 5, 2)):
            ext = ExtensionDesc(ring, m)
            while True:
                f_mod = ext.support(np.concatenate([ext.one[None], ext.rand(rng, (lam - 1,))]))
                rep = square_property_check(ext, f_mod)
                if rep.has_square_property:
                    break
            for _ in range(8):
                a_gens = ext.rand(rng, (int(rng.integers(1, 3)),))
                if rng.integers(2):
                    a_gens[0] = ext.scalar_mul(ring.rand_ideal(rng), a_gens[0])
                ab = module_product(ext, ext.support(a_gens), f_mod)
                seen.add(free_module_test(ab)[1])
                want = recover_factor_oracle(ext, ab, rep.suitable_basis)
                assert recover_factor(ext, ab, rep).equals(want)
        assert seen == {True, False}

    def test_trivial(self, s5):
        one_mod = s5.support([s5.one])
        rep = square_property_check(s5, one_mod)
        assert recover_factor(s5, one_mod, rep).equals(one_mod)

    def test_overflow_returns_superset(self, z4, rng):
        # lambda * beta >= m: the product fills S and recovery must return
        # a strict superset of A (documented failure mode, not an error)
        ext = ExtensionDesc(z4, 3)
        f_mod = ext.support([ext.one, ext.theta().flat])
        rep = square_property_check(ext, f_mod)
        assert rep.has_square_property
        th2 = (ext.theta() ** 2).flat
        a_mod = ext.support([ext.one, th2])
        ab = module_product(ext, a_mod, f_mod)
        assert free_rank(ab) == 3  # fills S
        got = recover_factor(ext, ab, rep)
        assert all(got.contains(g) for g in a_mod.gens)
        assert not got.equals(a_mod)

    def test_requires_suitable_basis(self, s5):
        from lrpc_rings import SquarePropertyReport
        bad = SquarePropertyReport(False, None, 1, None)
        with pytest.raises(errors.NoSuitableBasis):
            recover_factor(s5, s5.support([s5.one]), bad)
