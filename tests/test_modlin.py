import numpy as np
import pytest

from lrpc_rings import (MatR, Submodule, count_free_submodules,
                        count_independent_tuples, errors, free_module_test,
                        free_rank, general_intersection, intersect_with_free,
                        module_product, module_rank, recover_factor,
                        sample_free_submodule, solve_linear,
                        square_property_check, unit_pivot_factor)
from lrpc_rings import ExtensionDesc
from lrpc_rings.modlin import column_jordan, gauss_inverse, row_jordan

from conftest import brute_solution_set, gauss_inverse_oracle


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
        fact = unit_pivot_factor(z4, a_sup.gens)
        assert fact.r == 2
        assert np.array_equal(fact.tq_rows()[..., 0],
                              [[1, 2, 0, 1, 0], [0, 1, 0, 1, 2]])

    def test_zero_and_identity(self, z4):
        zf = unit_pivot_factor(z4, np.zeros((2, 3, 1), dtype=np.int64))
        assert zf.r == 0 and zf.t3_zero and not zf.T.any()
        eye = Submodule.full(z4, 3).gens
        idf = unit_pivot_factor(z4, eye)
        assert idf.r == 3 and idf.t3_zero

    @pytest.mark.parametrize("ring_name", ["z4", "z9", "rxi", "gr42"])
    def test_ptq_exact_and_p_invertible(self, ring_name, request, rng):
        ring = request.getfixturevalue(ring_name)
        for _ in range(12):
            s_, n_ = rng.integers(1, 5, 2)
            a = ring.rand(rng, (s_, n_))
            fact = unit_pivot_factor(ring, a)
            assert np.array_equal(fact.reconstruct(), a)
            eye = Submodule.full(ring, s_).gens
            assert np.array_equal(ring.matmul(fact.P, fact.Pinv), eye)
            # T1 upper uni-triangular, T3 entries all non-units
            for i in range(fact.r):
                assert np.array_equal(fact.T[i, i], ring.one)
                assert not fact.T[i, :i].any()
            t3 = fact.T[fact.r:, fact.r:]
            if t3.size:
                assert not ring.is_unit(t3).any()


def test_pivot_order_without_units_in_first_column(z4, rxi):
    """Leftmost unit column, topmost unit row: values pinned from the
    column-by-column scans that preceded the vectorized ones."""
    a4 = np.array([[2, 2, 1, 0], [0, 3, 2, 1], [2, 1, 0, 3]])[..., None]
    ax = np.array([[[2, 1], [0, 3], [1, 1]],
                   [[0, 1], [2, 2], [3, 0]],
                   [[2, 0], [1, 2], [0, 1]]])
    for ring, a, perm, t in (
            (z4, a4, [1, 2, 0, 3], [[1, 2, 0, 3], [0, 1, 2, 2], [0, 0, 2, 0]]),
            (rxi, ax, [1, 2, 0], [[[1, 0], [0, 1], [2, 0]],
                                  [[0, 0], [1, 0], [0, 3]],
                                  [[0, 0], [0, 0], [2, 0]]])):
        fact = unit_pivot_factor(ring, a)
        assert fact.perm.tolist() == perm and fact.r == 2
        assert np.array_equal(fact.T, np.reshape(t, a.shape))
        assert np.array_equal(fact.reconstruct(), a)
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
    that kept the identity block apart, and singular input raises;
    row_jordan brings (M | B) to (I | M1^-1 B1) on permuted columns."""
    ring = request.getfixturevalue(ring_name)
    for size in (1, 2, 4, 6):
        for _ in range(4):
            m = ring.rand(rng, (size, size))
            if unit_pivot_factor(ring, m, track_p=False).r < size:
                with pytest.raises(errors.NotFree):
                    gauss_inverse(ring, m)
                continue
            inv = gauss_inverse(ring, m)
            assert np.array_equal(inv, gauss_inverse_oracle(ring, m))
            eye = np.zeros_like(m)
            eye[np.arange(size), np.arange(size)] = ring.one
            assert np.array_equal(ring.matmul(m, inv), eye)
            b = ring.rand(rng, (max(size - 2, 1), size))
            if unit_pivot_factor(ring, b, track_p=False).r < b.shape[0]:
                continue
            t = column_jordan(ring, b)
            assert np.array_equal(t, _column_jordan_oracle(ring, b))
            a = np.concatenate([m, b.reshape(size, -1, ring.D)], axis=1)
            w, perm, r = row_jordan(ring, a)  # (I | A1^-1 A2) on columns perm
            assert r == size and sorted(perm) == list(range(a.shape[1]))
            assert np.array_equal(w[:, :size], eye)
            a1_inv = gauss_inverse_oracle(ring, a[:, perm[:size]])
            assert np.array_equal(w[:, size:], ring.matmul(a1_inv, a[:, perm[size:]]))


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

    def test_one_required(self, s5):
        f_mod = s5.support([s5.theta().flat])
        with pytest.raises(errors.OneNotInModule):
            square_property_check(s5, f_mod)


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
