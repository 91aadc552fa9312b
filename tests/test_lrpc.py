import json
import zlib
from contextlib import nullcontext

import numpy as np
import pytest

from lrpc_rings import (CodeParams, DecodingFailure, ExtensionDesc, LrpcCode,
                        Submodule, Zmod, build_h_ext, code_from_text,
                        code_to_text, decode_local, encode, erasure_decode,
                        errors, free_module_test, free_rank, generate_code,
                        intersect_with_free, module_product, sample_error,
                        sample_free_submodule, syndrome, unit_pivot_factor)

from conftest import (assert_same_code, decode_local_oracle,
                      erasure_decode_oracle, gauss_inverse_oracle,
                      schoolbook_ext_mul, unit_pivot_factor_oracle)


@pytest.fixture(scope="module")
def small_code(z4):
    ext = ExtensionDesc(z4, 10)
    rng = np.random.default_rng(11)
    return generate_code(CodeParams(10, 4, 2, 2), ext, rng)


class TestCodeParams:
    def test_validation(self):
        with pytest.raises(errors.GenerationFailed):
            CodeParams(10, 0, 2, 1)
        with pytest.raises(errors.GenerationFailed):
            CodeParams(20, 12, 2, 1)  # lambda < n / (n-k)
        CodeParams(20, 8, 2, 6)

    def test_extension_hypotheses(self, z4):
        ext = ExtensionDesc(z4, 5)
        with pytest.raises(errors.GenerationFailed):
            generate_code(CodeParams(10, 4, 2, 2), ext, np.random.default_rng(0))


class TestGeneration:
    def test_flags_all_true(self, small_code):
        assert all(small_code.flags.values())

    def test_h_ext_column_rank(self, small_code):
        ring = small_code.ext.base
        codes = ring.residue_codes(small_code.H_ext)
        assert ring.residue_field.matrix_rank(codes) == small_code.params.n
        col_mod = Submodule(ring, small_code.H_ext.shape[0],
                            np.swapaxes(small_code.H_ext, 0, 1))
        assert free_rank(col_mod) == small_code.params.n

    def test_recomputed_flags_match(self, small_code):
        fresh = small_code._compute_flags()
        assert fresh == small_code.flags

    def test_f_basis_starts_with_one(self, small_code):
        assert np.array_equal(small_code.F_basis[0], small_code.ext.one)
        for f, fi in zip(small_code.F_basis, small_code.F_inv):
            assert np.array_equal(small_code.ext.mul(f, fi), small_code.ext.one)

    def test_generation_reuses_the_forms_it_built(self, z4, monkeypatch):
        """generate_code solves for no coordinates.  LrpcCode's constructor
        multiplies no matrices over S, and H's one elimination inverts its
        pivot products in one array call; F_inv is computed on first read,
        and inverts F_basis."""
        calls = dict.fromkeys(["coefficients_of", "matmul", "inverse"], 0)

        def spy(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        spy(Submodule, "coefficients_of")
        spy(ExtensionDesc, "matmul")
        spy(ExtensionDesc, "inverse")
        ext = ExtensionDesc(z4, 10)
        code = generate_code(CodeParams(10, 4, 2, 2), ext, np.random.default_rng(11))
        assert calls["coefficients_of"] == 0 and calls["matmul"] == 0
        calls.update(matmul=0, inverse=0)
        clone = LrpcCode(ext, code.params, code.H, code.F_basis, code.flags)
        assert calls["matmul"] == 0
        in_init, calls["inverse"] = calls["inverse"], 0
        unit_pivot_factor(ext, code.H)
        assert in_init == calls["inverse"] == 1
        calls["inverse"] = 0
        prods = ext.mul(clone.F_basis, clone.F_inv)
        assert calls["inverse"] == code.params.lam - 1
        assert np.array_equal(prods, np.broadcast_to(ext.one, prods.shape))

    def test_flags_read_each_coefficient(self, small_code):
        """unity fails on one nonzero non-unit coefficient, and
        maximal_row_span on one row whose coefficients do not span F."""
        code, ext = small_code, small_code.ext

        def flags_of(coeff):
            h = sum(ext.scalar_mul(coeff[:, :, ell], f)
                    for ell, f in enumerate(code.F_basis)) % ext.char
            return LrpcCode(ext, code.params, h, code.F_basis).flags

        coeff = code._coefficients().copy()
        coeff[0, 1, 1] = 2  # was 0; H_ext keeps full column rank
        flags = flags_of(coeff)
        assert not flags["unity"] and flags["maximal_row_span"]
        coeff = code._coefficients().copy()
        coeff[1, :, 1] = coeff[1, :, 0]  # residue rank 1 < lambda
        flags = flags_of(coeff)
        assert flags["unity"] and not flags["maximal_row_span"]


@pytest.mark.parametrize("spec, m", [("Z3", 10), ("Z9", 6), ("GR(4,2)", 5),
                                     ("Z4[x]/(x^2)", 6), ("Z2", 7)])
def test_stacked_construction_matches_one_code_at_a_time(spec, m):
    """lrpc._build_codes on a stack of H over one F gives, for each, the
    code that LrpcCode builds from it alone, every array byte for byte and
    the recomputed flags, or the NoInvertibleMinor it raises, message
    included: stacks mix accepted H, H whose H_ext lacks full column rank
    (a zero column) and H without full free row rank (a repeated row)."""
    from lrpc_rings import lrpc
    from lrpc_rings.specparse import parse_local_atom
    ring = parse_local_atom(spec)
    ext = ExtensionDesc(ring, m)
    params = CodeParams(6, 1, 2, 1)  # H_ext keeps 8 rows for 6 columns past a repeated row
    n, k, lam = params.n, params.k, params.lam
    rng = np.random.default_rng(zlib.crc32(spec.encode()))
    f_basis = generate_code(params, ext, rng).F_basis
    hs = []
    for j in range(13):
        coeff = ring.rand(rng, (n - k, n, lam))
        if j % 4 == 1:
            coeff[:, 0] = 0
        elif j % 4 == 2:
            coeff[-1] = coeff[0]
        hs.append(sum(ext.scalar_mul(coeff[:, :, ell], f_basis[ell])
                      for ell in range(lam)) % ext.char)
    got = lrpc._build_codes(ext, params, np.array(hs), np.array([f_basis] * len(hs)))
    kinds = set()
    for h, out in zip(hs, got):
        try:
            want = LrpcCode(ext, params, h, f_basis)
        except errors.NoInvertibleMinor as exc:
            assert type(out) is errors.NoInvertibleMinor and str(out) == str(exc)
            kinds.add(str(exc)[:6])
        else:
            assert_same_code(out, want)
            kinds.add("code")
    assert kinds == {"code", "H_ext ", "parity"}


@pytest.mark.parametrize("flags", [None, "given"])
def test_rank_conditions_raise_no_invertible_minor(flags, z4):
    """LrpcCode refuses an H_ext without full column rank (no column
    solver) and an H without full free row rank over S (no generator),
    with or without flags."""
    ext = ExtensionDesc(z4, 8)
    code = generate_code(CodeParams(6, 2, 3, 0), ext, np.random.default_rng(0))
    ring, n, k = ext.base, code.params.n, code.params.k
    flags = code.flags if flags else None
    zero_col = code.H.copy()
    zero_col[:, 0] = 0  # H_ext's column 0 vanishes; H keeps full row rank
    assert unit_pivot_factor(ext, zero_col)[2] == n - k
    with pytest.raises(errors.NoInvertibleMinor, match="H_ext lacks full column rank"):
        LrpcCode(ext, code.params, zero_col, code.F_basis, flags)
    repeated_row = code.H.copy()
    repeated_row[-1] = repeated_row[0]  # H_ext keeps full column rank
    h_ext = build_h_ext(ext, repeated_row, code.F_basis)
    assert ring.residue_field.matrix_rank(ring.residue_codes(h_ext)) == n
    with pytest.raises(errors.NoInvertibleMinor, match="column submatrix"):
        LrpcCode(ext, code.params, repeated_row, code.F_basis, flags)


class TestBuildHExt:
    def test_one_by_one(self, s5):
        f_basis = np.array([s5.one, s5.theta().flat])
        h = s5.one[None, None, :]
        he = build_h_ext(s5, h, f_basis)
        assert he.shape == (2, 1, 1)
        assert he[0, 0, 0] == 1 and he[1, 0, 0] == 0

    def test_roundtrip_decomposition(self, small_code):
        ext = small_code.ext
        n, k, lam = (small_code.params.n, small_code.params.k,
                     small_code.params.lam)
        rebuilt = np.zeros_like(small_code.H)
        for ell in range(lam):
            coeff = small_code.H_ext[ell::lam]  # rows (i*lam + ell)? no: below
        # reconstruct via the layout: row i*lam + ell holds coefficients of f_ell
        for i in range(n - k):
            for j in range(n):
                acc = np.zeros(ext.D, dtype=np.int64)
                for ell in range(lam):
                    acc = ext.add(acc, ext.scalar_mul(
                        small_code.H_ext[i * lam + ell, j], small_code.F_basis[ell]))
                rebuilt[i, j] = acc
        assert np.array_equal(rebuilt, small_code.H)

    def test_not_in_f(self, s5):
        f_basis = np.array([s5.one, s5.theta().flat])
        outside = (s5.theta() ** 3).flat[None, None, :]
        with pytest.raises(errors.NotInF):
            build_h_ext(s5, outside, f_basis)

    def test_shape_random(self, small_code):
        n, k, lam = (small_code.params.n, small_code.params.k,
                     small_code.params.lam)
        assert small_code.H_ext.shape == ((n - k) * lam, n, 1)


def _h_ext_per_entry(ext, h, f_basis):
    """Oracle: the H_ext layout from one Howell-form solve per entry."""
    lam = f_basis.shape[0]
    f_mod = Submodule(ext.base, ext.m, ext.vec_rep(f_basis))
    out = np.zeros((h.shape[0] * lam, h.shape[1], ext.base.D), dtype=np.int64)
    for i, j in np.ndindex(h.shape[:2]):
        coeffs = f_mod.coefficients_of(ext.vec_rep(h[i, j]))
        if coeffs is None:
            raise errors.NotInF(f"entry ({i},{j}) does not lie in the module F")
        out[i * lam:(i + 1) * lam, j] = coeffs
    return out


@pytest.mark.parametrize("ring_name", ["s5", "rxi_ext3"])
def test_build_h_ext_matches_per_entry_solves(ring_name, request, rxi, rng):
    ext = (ExtensionDesc(rxi, 3) if ring_name == "rxi_ext3"
           else request.getfixturevalue(ring_name))
    ring = ext.base
    for lam in (1, 2):
        while True:
            f_basis = np.concatenate([ext.one[None], ext.rand(rng, (lam - 1,))])
            f_mod = Submodule(ring, ext.m, ext.vec_rep(f_basis))
            if free_rank(f_mod) == lam:
                break
        coeff = ring.rand(rng, (3, 4, lam))
        h = sum(ext.scalar_mul(coeff[..., ell, :], f_basis[ell])
                for ell in range(lam)) % ext.char
        he = build_h_ext(ext, h, f_basis)
        assert np.array_equal(he, _h_ext_per_entry(ext, h, f_basis))
        assert np.array_equal(he, coeff.transpose(0, 2, 1, 3).reshape(3 * lam, 4, ring.D))
        theta = ext.theta().flat  # 1, theta, theta^2 are free, so F misses one
        outside = next(x for x in (theta, ext.mul(theta, theta))
                       if not f_mod.contains(ext.vec_rep(x)))
        h[1, 2] = outside
        h[2, 0] = outside
        with pytest.raises(errors.NotInF, match=r"entry \(1,2\)"):
            build_h_ext(ext, h, f_basis)


class TestEncodeSyndrome:
    def test_zero_message(self, small_code):
        z = np.zeros((small_code.params.k, small_code.ext.D), dtype=np.int64)
        assert not encode(small_code, z).any()

    def test_codewords_have_zero_syndrome(self, small_code, rng):
        for _ in range(10):
            msg = small_code.ext.rand(rng, (small_code.params.k,))
            assert not syndrome(small_code, encode(small_code, msg)).any()

    def test_injective(self, small_code, rng):
        seen = set()
        for _ in range(20):
            msg = small_code.ext.rand(rng, (small_code.params.k,))
            seen.add(encode(small_code, msg).tobytes())
        assert len(seen) == 20
        g_mod = Submodule(small_code.ext.base,
                          small_code.params.n * small_code.ext.m,
                          small_code.ext.vec_rep(small_code._G).reshape(
                              small_code.params.k, -1, small_code.ext.base.D))
        assert free_rank(g_mod) == small_code.params.k

    def test_syndrome_depends_only_on_error(self, small_code, rng):
        ext = small_code.ext
        msg = ext.rand(rng, (small_code.params.k,))
        c = encode(small_code, msg)
        e = sample_error(ext, small_code.params.n, 2, rng)
        assert np.array_equal(syndrome(small_code, (c + e) % ext.char),
                              syndrome(small_code, e))

    def test_hand_syndrome_small(self, z4, rng):
        # schoolbook r H^T on a 4/2 code, checked entry by entry
        ext = ExtensionDesc(z4, 4)
        code = generate_code(CodeParams(4, 2, 2, 1), ext, np.random.default_rng(3))
        r = ext.rand(rng, (4,))
        s = syndrome(code, r)
        for i in range(2):
            acc = np.zeros(ext.D, dtype=np.int64)
            for j in range(4):
                acc = ext.add(acc, ext.mul(r[j], code.H[i, j]))
            assert np.array_equal(acc, s[i])

    @pytest.mark.parametrize("b", [0, 1, 3, 4, 5, 10])
    def test_lists_of_vectors_are_stacks(self, small_code, rng, b):
        """A list of B arrays (length, D_S) is a stack for every B, also for
        B equal to the vector length (k = 4, n = 10 here); a list of
        ``length`` elements is one vector."""
        from lrpc_rings import decode_batch
        code, ext = small_code, small_code.ext
        n, k = code.params.n, code.params.k
        msgs = [ext.rand(rng, (k,)) for _ in range(b)]
        words = [(encode(code, x) + sample_error(ext, n, 1, rng)) % ext.char for x in msgs]
        stacked = np.array(msgs).reshape(b, k, ext.D)
        assert np.array_equal(encode(code, msgs), encode(code, stacked))
        assert encode(code, msgs).shape == (b, n, ext.D)
        word_stack = np.array(words).reshape(b, n, ext.D)
        assert np.array_equal(syndrome(code, words), syndrome(code, word_stack))
        assert syndrome(code, words).shape == (b, n - k, ext.D)
        got = decode_batch(code, words)
        assert len(got) == b
        for x, y in zip(got, decode_batch(code, word_stack)):
            assert getattr(x, "line", 0) == getattr(y, "line", 0)
            assert isinstance(x, DecodingFailure) or np.array_equal(x, y)
        msg = ext.rand(rng, (k,))
        assert np.array_equal(encode(code, list(msg)), encode(code, msg))
        assert encode(code, list(msg)).shape == (n, ext.D)

    def test_a_list_of_the_wrong_length_is_refused(self, small_code, rng):
        ext = small_code.ext
        with pytest.raises(errors.ExtensionMismatch):
            encode(small_code, list(ext.rand(rng, (3,))))
        with pytest.raises(errors.ExtensionMismatch):
            encode(small_code, [ext.rand(rng, (3,)), ext.rand(rng, (3,))])


def _sum_of_products(ext, xs, ys):
    acc = ext.zero
    for x, y in zip(xs, ys):
        acc = ext.add(acc, schoolbook_ext_mul(ext, x, y))
    return acc


@pytest.mark.parametrize("ring_name", ["z4_ext20", "s5", "rxi_ext3"])
def test_syndrome_and_encode_maps(ring_name, request, z4, rxi, rng):
    """syndrome runs through the R-map of H_ext^T and the stacked
    multiplication maps of the F basis, encode through the Z_char map of G;
    they equal ext.matmul and entrywise schoolbook sums, and H G^T = 0."""
    ext, params = {"z4_ext20": (lambda: ExtensionDesc(z4, 20), CodeParams(20, 8, 2, 6)),
                   "s5": (lambda: request.getfixturevalue("s5"), CodeParams(4, 2, 2, 1)),
                   "rxi_ext3": (lambda: ExtensionDesc(rxi, 3), CodeParams(4, 2, 2, 0))}[ring_name]
    ext = ext()
    code = generate_code(params, ext, np.random.default_rng(5))
    n, k = params.n, params.k
    assert code._f_maps.shape == (params.lam * ext.D, ext.D)
    assert code._h_map.shape == (n * ext.base.D, (n - k) * params.lam * ext.base.D)
    assert code._encode_map.shape == (k * ext.D, n * ext.D)
    assert not ext.matmul(code.H, np.swapaxes(code._G, 0, 1)).any()
    r, msg = ext.rand(rng, (n,)), ext.rand(rng, (k,))
    r[0] = msg[0] = ext.char - 1
    s, c = syndrome(code, r), encode(code, msg)
    assert np.array_equal(s, ext.matmul(r[None], np.swapaxes(code.H, 0, 1))[0])
    assert np.array_equal(c, ext.matmul(msg[None], code._G)[0])
    for i in range(n - k):
        assert np.array_equal(s[i], _sum_of_products(ext, r, code.H[i]))
    for j in range(n):
        assert np.array_equal(c[j], _sum_of_products(ext, msg, code._G[:, j]))
    assert not syndrome(code, c).any()


def _generator_two_eliminations(code):
    """Oracle: G as built before the single Gauss-Jordan pass, from the
    pivots of a forward elimination and a separate inverse of
    H1 = H[:, piv]."""
    ext, n, k = code.ext, code.params.n, code.params.k
    _, perm, _ = unit_pivot_factor_oracle(ext, code.H)
    piv, rest = perm[:n - k], perm[n - k:]
    h1_inv = gauss_inverse_oracle(ext, code.H[:, piv])
    x = ext.neg(ext.matmul(h1_inv, code.H[:, rest]))
    g = np.zeros((k, n, ext.D), dtype=np.int64)
    g[:, piv] = np.swapaxes(x, 0, 1)
    g[np.arange(k), rest] = ext.one
    return g


@pytest.mark.parametrize("spec, m", [("Z2", 10), ("Z3", 8), ("Z4", 10), ("Z9", 8),
                                     ("Z4[x]/(x^2)", 8)])
def test_generator_matches_two_eliminations(spec, m):
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), m)
    for seed in range(3):
        code = generate_code(CodeParams(m, m // 2, 2, 1), ext, np.random.default_rng(seed))
        assert np.array_equal(code._G, _generator_two_eliminations(code))


class TestErasureDecode:
    def test_zero_syndrome(self, small_code, rng):
        z = np.zeros((small_code.params.n - small_code.params.k,
                      small_code.ext.D), dtype=np.int64)
        e = erasure_decode(small_code, np.zeros((0, small_code.ext.D), dtype=np.int64), z)
        assert not e.any()
        # with a genuine support, uniqueness still forces the zero error
        from lrpc_rings import sample_free_submodule
        sup = sample_free_submodule(small_code.ext.base, small_code.ext.m, 2, rng)
        e2 = erasure_decode(small_code, small_code.ext.unrep(sup.basis()), z)
        assert not e2.any()

    def test_roundtrip(self, small_code, rng):
        ext = small_code.ext
        for t in (1, 2):
            e = sample_error(ext, small_code.params.n, t, rng)
            sup = ext.support(e)
            basis = ext.unrep(sup.basis())
            got = erasure_decode(small_code, basis, syndrome(small_code, e))
            assert np.array_equal(got, e)

    def test_wrong_support_rejected(self, small_code, rng):
        ext = small_code.ext
        e = sample_error(ext, small_code.params.n, 2, rng)
        s = syndrome(small_code, e)
        # a support disjoint from the error's (different residue space)
        while True:
            from lrpc_rings import sample_free_submodule
            other = sample_free_submodule(ext.base, ext.m, 2, rng)
            if not other.equals(ext.support(e)):
                break
        with pytest.raises((errors.NoSolution, errors.RankDeficient)):
            erasure_decode(small_code, ext.unrep(other.basis()), s)


@pytest.mark.parametrize("spec, m", [("Z2", 5), ("Z4", 6), ("Z4[x]/(x^2)", 5)])
def test_rank_deficient_iff_product_rank_drops(spec, m):
    """erasure_decode raises RankDeficient exactly when frk(E F) < lambda t
    (the decoder's line 16), and otherwise recovers an error supported on
    E.  Over these small extensions, lambda t = 4 products of a random
    rank-2 support often fail to be independent."""
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), m)
    ring = ext.base
    rng = np.random.default_rng(0)
    code = generate_code(CodeParams(6, 3, 2, 1), ext, rng)
    n, lam, t = code.params.n, code.params.lam, 2
    outcomes = set()
    for _ in range(30):
        sup = sample_free_submodule(ring, m, t, rng)
        basis = ext.unrep(sup.basis())
        c = ring.rand(rng, (n, t))
        e = ext.unrep(ring.mul(c[:, :, None, :], ext.vec_rep(basis)[None]).sum(axis=1)
                      % ext.char)
        deficient = free_rank(module_product(ext, sup, code.F_module)) < lam * t
        try:
            got = erasure_decode(code, basis, syndrome(code, e))
        except errors.RankDeficient:
            assert deficient
        else:
            assert not deficient and np.array_equal(got, e)
        outcomes.add(deficient)
    assert outcomes == {False, True}


class TestDecodeLocal:
    def test_no_error(self, small_code, rng):
        msg = small_code.ext.rand(rng, (small_code.params.k,))
        c = encode(small_code, msg)
        out = decode_local(small_code, c)
        assert np.array_equal(out, c)

    def test_roundtrip_within_design_rank(self, small_code, rng):
        ext = small_code.ext
        ok = 0
        for _ in range(50):
            msg = ext.rand(rng, (small_code.params.k,))
            c = encode(small_code, msg)
            e = sample_error(ext, small_code.params.n, 2, rng)
            out = decode_local(small_code, (c + e) % ext.char)
            if isinstance(out, np.ndarray):
                assert np.array_equal(out, c)  # sound: correct or fail
                ok += 1
        # success bound for these parameters is ~0.68; stay below it minus noise
        assert ok >= 30

    def test_nonfree_support_fails_cleanly(self, small_code, rng):
        ext = small_code.ext
        msg = ext.rand(rng, (small_code.params.k,))
        c = encode(small_code, msg)
        e = (2 * sample_error(ext, small_code.params.n, 1, rng)) % ext.char
        assert e.any()
        out = decode_local(small_code, (c + e) % ext.char)
        assert isinstance(out, DecodingFailure) and out.line == 5

    def test_decoder_never_returns_noncodeword(self, small_code, rng):
        ext = small_code.ext
        msg = ext.rand(rng, (small_code.params.k,))
        c = encode(small_code, msg)
        for t in (2, 3, 4):
            for _ in range(25):
                e = sample_error(ext, small_code.params.n, min(t, ext.m), rng)
                out = decode_local(small_code, (c + e) % ext.char)
                if isinstance(out, np.ndarray):
                    assert not syndrome(small_code, out).any()

    def test_state_reporting(self, small_code, rng):
        ext = small_code.ext
        e = sample_error(ext, small_code.params.n, 2, rng)
        out, state = decode_local(small_code, e, with_state=True)
        assert state.nu == 4 and state.t_prime == 2
        assert len(state.scaled_supports) == small_code.params.lam
        assert np.array_equal(state.error, e)
        assert isinstance(out, np.ndarray) and not out.any()

    def test_condition_implication(self, small_code, rng):
        # whenever frk(S) = lambda t, the product support EF has the same
        # free rank (the product condition is implied)
        ext = small_code.ext
        lam = small_code.params.lam
        checked = 0
        for _ in range(40):
            t = int(rng.integers(1, 3))
            e = sample_error(ext, small_code.params.n, t, rng)
            s = syndrome(small_code, e)
            s_sup = ext.support(s)
            if free_rank(s_sup) != lam * t:
                continue
            ef = module_product(ext, ext.support(e), small_code.F_module)
            assert free_rank(ef) == lam * t
            checked += 1
        assert checked >= 20


def _sequential_decode(code, received):
    """Oracle: the decoder with lines 11-13 as one intersect_with_free per
    scaled support, E' = ((S cap f_2^-1 S) cap f_3^-1 S) cap ...  Returns
    the word or failure line, and E' (None before line 11)."""
    ext = code.ext
    lam = code.params.lam
    s = syndrome(code, received)
    if not s.any():
        return received, None
    s_sup = ext.support(s)
    nu, s_free = free_module_test(s_sup)
    if not s_free:
        return 5, None
    if nu % lam:
        return 8, None
    basis = ext.unrep(s_sup.basis())
    e_prime = s_sup
    for i in range(1, lam):
        gens_i = ext.mul(basis, code.F_inv[i][None, :])
        e_prime = intersect_with_free(e_prime, Submodule(ext.base, ext.m, ext.vec_rep(gens_i)))
    r_e, e_free = free_module_test(e_prime)
    if not e_free:
        return 14, e_prime
    if r_e != nu // lam or free_rank(module_product(ext, e_prime, code.F_module)) != nu:
        return 16, e_prime
    try:
        err = erasure_decode(code, ext.unrep(e_prime.basis()), s)
    except (errors.NoSolution, errors.RankDeficient):
        return 18, e_prime
    return (received - err) % ext.char, e_prime


@pytest.mark.parametrize("base", [None, "Z2", "Z4"])
def test_decode_matches_sequential_intersections(base, small_code):
    """decode_local against the sequential oracle, word by word: the same
    word or failure line, and an error support equal to the oracle's E'.
    None is the lambda = 2 code; Z2 and Z4 are lambda = 3 codes over
    ext m=13, whose decodes reach lines 0, 8 and 16 (and 5 and 14 over Z4)."""
    rng = np.random.default_rng(3)
    if base is None:
        code = small_code
    else:
        code = generate_code(CodeParams(12, 6, 3, 2),
                             ExtensionDesc(Zmod(int(base[1:])), 13), rng)
    ext, n, k = code.ext, code.params.n, code.params.k
    lines = set()
    for trial in range(60):
        cw = encode(code, ext.rand(rng, (k,)))
        received = (cw + sample_error(ext, n, 1 + trial % 3, rng)) % ext.char
        out, state = decode_local(code, received, with_state=True)
        want, e_prime = _sequential_decode(code, received)
        if isinstance(want, int):
            assert isinstance(out, DecodingFailure) and out.line == want
            lines.add(want)
        else:
            assert isinstance(out, np.ndarray) and np.array_equal(out, want)
            lines.add(0)
        if e_prime is None:
            assert state.error_support is None
        else:
            assert state.error_support.equals(e_prime)
            assert len(state.scaled_supports) == code.params.lam
    assert {0, 16} <= lines if code.params.lam == 3 else 0 in lines


DENSE_DECODER_CASES = [("Z4", 8, (8, 4, 2, 1)), ("Z8", 8, (8, 4, 2, 1)),
                       ("Z9", 8, (8, 4, 2, 1)), ("Z2", 13, (12, 6, 3, 2)),
                       ("Z3", 8, (8, 4, 2, 1)), ("GR(4,2)", 7, (8, 4, 2, 1)),
                       ("Z4[x]/(x^2)", 7, (8, 4, 2, 1)), ("Z2[x]/(x^3)", 7, (8, 4, 2, 1))]


def _meet_kernel_not_free(state):
    """Whether a decode reached the meet of lines 11-13 with a left kernel
    K that is not free.  E' = K B for a basis B of the free S, so E' is
    isomorphic to K; state.error_support is E' from
    :func:`modlin.intersect_preimages`, tested here by its Jordan form."""
    return state.error_support is not None and not free_module_test(state.error_support)[1]


@pytest.mark.parametrize("spec, m, params", DENSE_DECODER_CASES)
def test_decode_matches_the_dense_decoder(spec, m, params):
    """decode_local against decode_local_oracle (dense syndrome, Jordan
    test of E', erasure by column_jordan), word by word over 400 words:
    the same word or failure line.  The words are random words, c + e,
    c + g e and c + e + g e' for g a generator of the maximal ideal (0 over
    a field), so that over the non-fields lines 5 and 14 occur, and words
    whose meet kernel is not free: each of them fails at line 14."""
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), m)
    g = ext.base.maximal_ideal_gens[-1]
    rng = np.random.default_rng(1)
    code = generate_code(CodeParams(*params), ext, rng)
    n, k = code.params.n, code.params.k
    lines, non_free = set(), 0
    for w in range(400):
        cw = encode(code, ext.rand(rng, (k,)))
        kind = w % 4
        if kind == 0:
            word = ext.rand(rng, (n,))
        else:
            word = cw if kind == 2 else cw + sample_error(ext, n, 1 + w % 3, rng)
            if kind >= 2:
                word = word + ext.scalar_mul(g, sample_error(ext, n, 1 + w % 3, rng))
        word %= ext.char
        out, state = decode_local(code, word, with_state=True)
        want = decode_local_oracle(code, word)
        if isinstance(want, DecodingFailure):
            assert isinstance(out, DecodingFailure) and out.line == want.line
            lines.add(want.line)
        else:
            assert isinstance(out, np.ndarray) and np.array_equal(out, want)
            lines.add(0)
        if _meet_kernel_not_free(state):
            non_free += 1
            assert out.line == 14
    if ext.base.upsilon == 1:  # a field: every module is free
        assert {0, 8, 16} <= lines and not non_free
    else:
        assert {0, 5, 14, 16} <= lines and non_free


# n = 7 > lambda (n - k) - 1 and m = 6: a random word's syndrome support
# has free rank 4 and its E' rank 2 = t', so its erasure step runs and,
# with 8 equations for 7 unknowns, mostly fails at line 18
BATCH_DECODER_SPECS = ("Z4", "Z8", "Z9", "Z2", "Z3", "GR(4,2)", "Z4[x]/(x^2)", "Z2[x]/(x^3)")


@pytest.mark.parametrize("spec", BATCH_DECODER_SPECS)
def test_decode_batch_matches_decode_local(spec):
    """decode_batch against decode_local, word for word over 420 words
    decoded in stacks of the trial chunk: the same word, or a failure with
    the same line and detail.  The words are random words, c + e, c + g e
    and c + e + g e' for errors of rank 1 to 3 and g a generator of the
    maximal ideal (0 over a field), mixed in every stack, so that lines 5,
    8, 14, 16 and 18 occur (5 and 14 only off fields), and over the
    non-fields words whose meet kernel is not free: each of them fails at
    line 14."""
    from lrpc_rings import lrpc
    from lrpc_rings.simulate import TRIAL_CHUNK
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), 6)
    g = ext.base.maximal_ideal_gens[-1]
    rng = np.random.default_rng(zlib.crc32(spec.encode()))
    code = generate_code(CodeParams(7, 3, 2, 1), ext, rng)
    n, k = code.params.n, code.params.k
    words = []
    for w in range(420):
        cw = encode(code, ext.rand(rng, (k,)))
        kind = w % 4
        if kind == 0:
            word = ext.rand(rng, (n,))
        else:
            word = cw if kind == 2 else cw + sample_error(ext, n, 1 + w % 3, rng)
            if kind >= 2:
                word = word + ext.scalar_mul(g, sample_error(ext, n, 1 + w % 3, rng))
        words.append(word % ext.char)
    words = np.array(words)
    got = []
    for lo in range(0, len(words), TRIAL_CHUNK):
        got += lrpc.decode_batch(code, words[lo:lo + TRIAL_CHUNK])
    lines, non_free = set(), 0
    for out, word in zip(got, words):
        want, state = decode_local(code, word, with_state=True)
        if _meet_kernel_not_free(state):
            non_free += 1
            assert want.line == 14
        if isinstance(want, DecodingFailure):
            assert isinstance(out, DecodingFailure)
            assert (out.line, out.detail) == (want.line, want.detail)
            lines.add(want.line)
        else:
            assert out.dtype == want.dtype and np.array_equal(out, want)
            lines.add(0)
    if ext.base.upsilon == 1:  # a field: every module and kernel is free
        assert lines == {0, 8, 16, 18} and not non_free
    else:
        assert lines == {0, 5, 8, 14, 16, 18} and non_free


def test_decode_batch_of_odd_stacks(small_code):
    """An empty stack decodes to [], and any shape other than (B, n, D_S)
    (one word, a wrong length, one more axis) raises ExtensionMismatch."""
    from lrpc_rings import decode_batch
    code, ext = small_code, small_code.ext
    n = code.params.n
    assert decode_batch(code, np.zeros((0, n, ext.D), dtype=np.int64)) == []
    assert decode_batch(code, []) == []
    for shape in ((n, ext.D), (2, n + 1, ext.D), (n, n + 1, ext.D), (1, 2, n, ext.D)):
        with pytest.raises(errors.ExtensionMismatch):
            decode_batch(code, np.zeros(shape, dtype=np.int64))


def test_a_list_of_codes_pairs_with_its_words(small_code):
    """encode and decode_batch take a list with one code per word: a list
    that repeats one code gives what that code gives, and an empty list, a
    list of another length than the stack, and codes of two parameter
    sets raise ExtensionMismatch."""
    from lrpc_rings import decode_batch
    code, ext = small_code, small_code.ext
    k = code.params.k
    rng = np.random.default_rng(7)
    msgs = ext.rand(rng, (3, k))
    cws = encode(code, msgs)
    assert np.array_equal(encode([code] * 3, msgs), cws)
    words = (cws + sample_error(ext, code.params.n, 1, rng)) % ext.char
    for got, want in zip(decode_batch([code] * 3, words), decode_batch(code, words)):
        assert np.array_equal(got, want)
    other = generate_code(CodeParams(10, 5, 2, 2), ext, rng)
    for codes in ([], [code] * 2, [code, code, other]):
        with pytest.raises(errors.ExtensionMismatch):
            encode(codes, msgs)
        with pytest.raises(errors.ExtensionMismatch):
            decode_batch(codes, words)


@pytest.mark.parametrize("spec", BATCH_DECODER_SPECS)
def test_stacked_erasure_decode_matches_one_call_per_support(spec):
    """erasure_decode of a stack of G supports returns, for each, what the
    call on that support alone returns or raises: the same error, or an
    exception of the same class with the same message.  Each stack of 16
    mixes rank-2 supports of errors with their syndromes (solved), a
    support holding eps and f_2 eps (RankDeficient), other random supports
    (NoSolution: outside the product module) and syndromes drawn from the
    product module of the support (NoSolution: with 8 equations for 7
    unknowns, mostly inconsistent).  G = 0 and G = 1 are stacks too, and so
    is a stack of empty supports."""
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), 6)
    ring = ext.base
    rng = np.random.default_rng(zlib.crc32(spec.encode()))
    code = generate_code(CodeParams(7, 3, 2, 1), ext, rng)
    n, k, lam = code.params.n, code.params.k, code.params.lam

    def case(kind):
        if kind == 0:
            e = sample_error(ext, n, 2, rng)
            return ext.unrep(ext.support(e).basis()), syndrome(code, e)
        if kind == 1:
            eps = ext.rand_unit(rng, (1,))
            return np.concatenate([eps, ext.mul(code.F_basis[1:2], eps)]), \
                syndrome(code, ext.rand(rng, (n,)))
        basis = ext.unrep(sample_free_submodule(ring, ext.m, 2, rng).basis())
        if kind == 2:
            return basis, syndrome(code, sample_error(ext, n, 2, rng))
        prods = ext.vec_rep(ext.mul(code.F_basis[:, None], basis[None]).reshape(lam * 2, ext.D))
        return basis, ext.unrep(ring.matmul(ring.rand(rng, (n - k, lam * 2)), prods))

    def alone(basis, synd):
        try:
            return erasure_decode(code, basis, synd)
        except (errors.RankDeficient, errors.NoSolution) as exc:
            return exc

    def same(got, want):
        if isinstance(want, np.ndarray):
            return isinstance(got, np.ndarray) and np.array_equal(got, want)
        return type(got) is type(want) and str(got) == str(want)

    empty = np.zeros((0, 2, ext.D), dtype=np.int64)
    assert erasure_decode(code, empty, np.zeros((0, n - k, ext.D), dtype=np.int64)) == []
    for g in (1, 16, 16):
        cases = [case(kind) for kind in rng.permutation(np.arange(g) % 4)]
        bases, synds = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])
        got = erasure_decode(code, bases, synds)
        want = [alone(b, s) for b, s in cases]
        assert len(got) == g and all(same(x, y) for x, y in zip(got, want))
        if g == 16:
            kinds = {type(x).__name__ if isinstance(x, Exception) else "error" for x in want}
            texts = {str(x) for x in want if isinstance(x, errors.NoSolution)}
            assert kinds == {"error", "RankDeficient", "NoSolution"} and len(texts) == 2
    synds = np.array([syndrome(code, ext.rand(rng, (n,))) for _ in range(3)])
    synds[1] = 0
    got = erasure_decode(code, np.zeros((3, 0, ext.D), dtype=np.int64), synds)
    assert isinstance(got[0], errors.NoSolution) and isinstance(got[2], errors.NoSolution)
    assert isinstance(got[1], np.ndarray) and not got[1].any()
    # rank-4 supports: lambda t' = 8 products in R^6 are never independent
    wide = np.array([ext.unrep(sample_free_submodule(ring, ext.m, 4, rng).basis())
                     for _ in range(3)])
    got = erasure_decode(code, wide, synds)
    assert all(isinstance(x, errors.RankDeficient) for x in got)
    assert all(same(x, alone(b, s)) for x, b, s in zip(got, wide, synds))


@pytest.mark.parametrize("spec, m", [("Z4", 8), ("Z9", 6), ("GR(4,2)", 5),
                                     ("Z4[x]/(x^2)", 6), ("Z2[x]/(x^3)", 6)])
def test_erasure_failures_match_the_dense_elimination(spec, m):
    """erasure_decode raises what erasure_decode_oracle raises, and
    otherwise returns the same error: RankDeficient for a support holding
    eps and f_2 eps (the products f_2 eps and f_1 (f_2 eps) coincide), and
    for random rank-2 supports other than the error's mostly NoSolution
    (the decoder's line 18)."""
    from lrpc_rings.specparse import parse_local_atom
    ext = ExtensionDesc(parse_local_atom(spec), m)
    rng = np.random.default_rng(2)
    code = generate_code(CodeParams(8, 4, 2, 1), ext, rng)
    n = code.params.n

    def outcome(fn, basis, synd):
        try:
            return fn(code, basis, synd)
        except (errors.RankDeficient, errors.NoSolution) as exc:
            return type(exc)

    seen = set()
    for _ in range(20):
        e = sample_error(ext, n, 2, rng)
        s = syndrome(code, e)
        eps = ext.rand_unit(rng, (1,))
        dependent = np.concatenate([eps, ext.mul(code.F_basis[1:2], eps)])
        other = sample_free_submodule(ext.base, m, 2, rng)
        for basis in (dependent, ext.unrep(other.basis())):
            got, want = outcome(erasure_decode, basis, s), outcome(erasure_decode_oracle, basis, s)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                seen.add("ok")
            else:
                assert got is want
                seen.add(want)
    assert {errors.RankDeficient, errors.NoSolution} <= seen


class TestSampleError:
    def test_zero_rank(self, s5, rng):
        assert not sample_error(s5, 6, 0, rng).any()
        with pytest.raises(errors.BadRank):
            sample_error(s5, 6, 6, rng)  # t > m = 5

    def test_exact_support_rank(self, small_code, rng):
        ext = small_code.ext
        for t in (1, 2, 3):
            for _ in range(10):
                e = sample_error(ext, small_code.params.n, t, rng)
                assert free_module_test(ext.support(e)) == (t, True)

    def test_support_distribution_uniform(self, z4, rng):
        # Z4, m = 2: six rank-1 free supports, per-bin deviation within
        # 3 sigma of uniform
        ext = ExtensionDesc(z4, 2)
        n_draws = 30000
        counts = {}
        for _ in range(n_draws):
            e = sample_error(ext, 3, 1, rng)
            basis = ext.support(e).basis()[0, :, 0]
            key = min(int(basis[0]) * 4 + int(basis[1]),
                      int(3 * basis[0] % 4) * 4 + int(3 * basis[1] % 4))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        exp = n_draws / 6
        sigma = (n_draws * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - exp) <= 3 * sigma


# (spec, n, ranks): the reference ring, a non-Galois chain ring, both
# factors of Z6, an odd-characteristic Galois ring and GR(4,2), the mu = 2
# residue field, with t = n = m where that makes full rank rare: its odds
# are 0.31 over F_2 (Z2 ext m=4), 0.57 over F_3 (Z3 ext m=3, Z9 ext m=5)
# and 0.69 over F_4, so both round loops redraw
ERROR_CHUNK_CASES = (("Z4 ext m=20", 20, range(1, 7)), ("Z4[x]/(x^2) ext m=10", 10, (1, 2)),
                     ("Z6 ext m=10", 10, (1, 2)), ("Z9 ext m=5", 5, (1, 5)),
                     ("GR(4,2) ext m=5", 5, (1, 5)), ("Z2 ext m=4", 4, (4,)),
                     ("Z3 ext m=3", 3, (3,)))


def _streams(*key, size):
    return [np.random.default_rng([*key, j]) for j in range(size)]


def test_error_chunks_keep_every_trials_stream(monkeypatch):
    """Every error of a chunk sampled in lockstep equals the one that
    sample_error draws from a fresh copy of its trial's stream, which is
    then left where sample_error leaves it, on stacks of 0, 1, 2, 7 and 16;
    the support and coefficient rounds both redraw matrices of stacks of
    more than one."""
    from lrpc_rings import fq, lrpc
    from lrpc_rings.simulate import parse_ring_spec
    redrawn = {"supports": 0, "coefficients": 0}
    rref, matrix_rank = fq.Fq.rref, fq.Fq.matrix_rank

    def counted(rounds, f, out_rank):
        def call(field, mat):
            out = f(field, mat)
            if np.ndim(mat) == 3 and len(mat) > 1:
                redrawn[rounds] += int((out_rank(out) < min(mat.shape[1:])).sum())
            return out
        return call

    monkeypatch.setattr(fq.Fq, "rref", counted("supports", rref, lambda out: out[2]))
    monkeypatch.setattr(fq.Fq, "matrix_rank",
                        counted("coefficients", matrix_rank, lambda out: out))
    for spec, n, ranks in ERROR_CHUNK_CASES:
        for ext in parse_ring_spec(spec)[1].factors:
            for t in ranks:
                for size in (0, 1, 2, 7, 16):
                    rngs = _streams(ext.base.q, t, size=size)
                    errs, failure = lrpc.sample_errors(ext, n, t, rngs)
                    assert failure is None and errs.shape == (size, n, ext.D)
                    for err, rng, fresh in zip(errs, rngs, _streams(ext.base.q, t, size=size),
                                               strict=True):
                        assert np.array_equal(err, sample_error(ext, n, t, fresh))
                        assert rng.integers(0, 2 ** 62) == fresh.integers(0, 2 ** 62)
    assert redrawn["supports"] and redrawn["coefficients"], redrawn


@pytest.mark.parametrize("spec, n, ranks, attempts, support_attempts",
                         [("Z2 ext m=4", 4, (4,), 1, 100), ("Z2 ext m=4", 4, (4,), 2, 100),
                          ("Z6 ext m=3", 3, (1, 3), 1, 1)])
def test_error_budgets_stay_per_trial(spec, n, ranks, attempts, support_attempts,
                                      monkeypatch):
    """With budgets so low that trials run out of them, a chunk of 8 trials
    raises the GenerationFailed of the loop that samples one trial at a
    time over the same streams, and a local ring's chunk holds the errors
    of the trials before it.  At n = t = m full rank has odds 0.31 over F_2
    and 0.57 over F_3, so in some chunks the first failing trial is not the
    first.  Over Z6 with both budgets 1 (t = 1 in Z2, whose draws fail
    less often, then t = 3 in Z3), the loop raises for the support in some
    chunks and for the coefficients in others, and the chunk raises the
    same, although a later trial ran out earlier: in Z2, or in the other
    stage."""
    from lrpc_rings import lrpc, modlin
    from lrpc_rings.product_ring import sample_error_product, sample_errors_product
    from lrpc_rings.simulate import parse_ring_spec
    monkeypatch.setattr(lrpc, "ERROR_ATTEMPTS", attempts)
    monkeypatch.setattr(modlin, "SAMPLE_ATTEMPTS", support_attempts)
    _, ext = parse_ring_spec(spec)
    later, messages = 0, set()
    for seed in range(16):
        loop, message = [], None
        for rng in _streams(seed, size=8):
            try:
                loop.append(sample_error_product(ext, n, list(ranks), rng))
            except errors.GenerationFailed as exc:
                message = str(exc)
                break
        with pytest.raises(errors.GenerationFailed) if message else nullcontext() as raised:
            sample_errors_product(ext, n, list(ranks), _streams(seed, size=8))
        assert message is None or str(raised.value) == message
        if ext.rho == 1:
            errs, failure = lrpc.sample_errors(ext.factors[0], n, ranks[0],
                                               _streams(seed, size=8))
            assert (failure and str(failure)) == message
            assert len(errs) == len(loop) and all(map(np.array_equal, errs, (e for e, in loop)))
        later += message is not None and len(loop) > 0
        messages.add(message)
    assert later
    assert len(messages - {None}) == ext.rho


@pytest.mark.parametrize("spec, attempts", [("Z4 ext m=4", 1), ("Z4 ext m=4", 2),
                                            ("Z6 ext m=4", 1), ("Z6 ext m=4", 2)])
def test_generation_budgets_stay_per_generator(spec, attempts, monkeypatch):
    """With GENERATION_ATTEMPTS so low that generators run out of it,
    generate_codes over 8 streams returns the codes of the generators
    before the first failing one, each the code that generate_code makes
    from a fresh copy of its stream, and the GenerationFailed that
    generate_code raises for that one; on some streams it is not the
    first, and at budget 1 over Z4 each of the F, row and H budgets runs
    out.  Over Z6, generate_product_codes raises the failure of the first
    generator that fails in either factor, drawing factor by factor as
    generate_code does; at budget 1 that generator fails in Z3 on some
    streams although a later one ran out in Z2."""
    from lrpc_rings import lrpc
    from lrpc_rings.product_ring import generate_product_codes
    from lrpc_rings.simulate import parse_ring_spec
    monkeypatch.setattr(lrpc, "GENERATION_ATTEMPTS", attempts)
    _, ext = parse_ring_spec(spec)
    params = CodeParams(6, 2, 2, 1)

    def one_at_a_time(factors, rng):
        """The codes generate_code makes from rng factor by factor, or the
        index of the factor that fails and its message."""
        codes = []
        for i, fac in enumerate(factors):
            try:
                codes.append(generate_code(params, fac, rng))
            except errors.GenerationFailed as exc:
                return i, str(exc)
        return codes

    later, crossed, messages = 0, 0, set()
    for seed in range(8):
        for fac in ext.factors:
            codes, failure = lrpc.generate_codes(params, fac, _streams(seed, size=8))
            loop = [one_at_a_time([fac], rng) for rng in _streams(seed, size=8)]
            first = next((j for j, out in enumerate(loop) if isinstance(out, tuple)), 8)
            message = loop[first][1] if first < 8 else None
            assert (failure and str(failure)) == message
            assert len(codes) == first
            for got, [want] in zip(codes, loop):
                assert_same_code(got, want)
            later += 0 < first < 8
            messages.add(message)
        if ext.rho == 1:
            continue
        loop = [one_at_a_time(ext.factors, rng) for rng in _streams(seed, size=8)]
        failed = [j for j, out in enumerate(loop) if isinstance(out, tuple)]
        if not failed:
            for got, want in zip(generate_product_codes(params, ext, _streams(seed, size=8)),
                                 loop, strict=True):
                for a, b in zip(got.codes, want, strict=True):
                    assert_same_code(a, b)
            continue
        with pytest.raises(errors.GenerationFailed) as raised:
            generate_product_codes(params, ext, _streams(seed, size=8))
        assert str(raised.value) == loop[failed[0]][1]
        crossed += loop[failed[0]][0] == 1 and any(loop[j][0] == 0 for j in failed)
    assert later
    if attempts == 1 and ext.rho == 1:
        assert len(messages - {None}) == 3
    if attempts == 1 and ext.rho > 1:
        assert crossed


class TestSerialization:
    def test_roundtrip(self, small_code, rng):
        text = code_to_text(small_code)
        assert text.startswith("lrpc-ring/1\n")
        clone = code_from_text(text)
        assert np.array_equal(clone.H, small_code.H)
        assert np.array_equal(clone.F_basis, small_code.F_basis)
        assert clone.flags == small_code.flags
        ext = clone.ext
        msg = ext.rand(rng, (clone.params.k,))
        c = encode(clone, msg)
        e = sample_error(ext, clone.params.n, 2, rng)
        out = decode_local(clone, (c + e) % ext.char)
        if isinstance(out, np.ndarray):
            assert np.array_equal(out, c)

    def test_flags_and_generator_share_one_elimination(self, small_code, monkeypatch):
        """Without flags, H is eliminated over S once, for the flags and the
        generator together."""
        from lrpc_rings import lrpc, modlin
        over_s = []
        kernel = modlin.unit_pivot_factor

        def spy(arith, a, ncols=None):
            if isinstance(arith, ExtensionDesc):
                over_s.append(np.asarray(a).shape)
            return kernel(arith, a, ncols)

        monkeypatch.setattr(lrpc, "unit_pivot_factor", spy)
        monkeypatch.setattr(modlin, "unit_pivot_factor", spy)
        head, body = code_to_text(small_code).split("\n", 1)
        body = json.loads(body)
        del body["flags"]
        clone = code_from_text(head + "\n" + json.dumps(body))
        assert over_s == [(1, 6, 10, clone.ext.D)]  # LrpcCode builds a stack of one
        assert clone.flags == small_code.flags

    @pytest.mark.parametrize("flag", ["unique_decoding", "maximal_row_span",
                                      "unity", "square_property"])
    def test_flipped_flag_raises_parse_error(self, small_code, flag):
        """The flags in a file are checked against the recomputed ones."""
        head, body = code_to_text(small_code).split("\n", 1)
        body = json.loads(body)
        body["flags"][flag] = not body["flags"][flag]
        with pytest.raises(errors.ParseError, match="recomputed flags"):
            code_from_text(head + "\n" + json.dumps(body))

    def test_bad_header(self):
        with pytest.raises(errors.ParseError):
            code_from_text("lrpc-ring/2\n{}")

    @pytest.mark.parametrize("text", [
        "lrpc-ring/1\n{not json", "lrpc-ring/1\n{}", "lrpc-ring/1",
        "lrpc-ring/1\n[]", "lrpc-ring/2\n{}"],
        ids=["bad-json", "no-keys", "no-body", "list-body", "wrong-header"])
    def test_malformed_file_raises_parse_error(self, text):
        with pytest.raises(errors.ParseError):
            code_from_text(text)


# Peak traced memory of decode_batch on one trial chunk of Z4 ext m=20
# words (n = 20, k = 8, lambda = 2), the largest over t = 1..6 at seed 0:
# measured 637 KiB with TRIAL_CHUNK = 16 (403 to 502 KiB at the other t),
# plus a margin of a quarter.
CHUNK_DECODE_PEAK_KIB = 800


def test_one_chunk_decodes_within_its_memory_bound(z4):
    """decode_batch of one full trial chunk stays below
    CHUNK_DECODE_PEAK_KIB of traced allocations, for errors of every rank
    up to t_max; a change that grows the per-chunk footprint (a larger
    chunk, a per-word broadcast of a code matrix) fails here."""
    import tracemalloc
    from lrpc_rings import decode_batch
    from lrpc_rings.simulate import TRIAL_CHUNK
    ext = ExtensionDesc(z4, 20)
    rng = np.random.default_rng(0)
    code = generate_code(CodeParams(20, 8, 2, 6), ext, rng)
    peaks = []
    for t in range(1, 7):
        words = np.array([(encode(code, ext.rand(rng, (8,))) + sample_error(ext, 20, t, rng)) % 4
                          for _ in range(TRIAL_CHUNK)])
        decode_batch(code, words)  # lazy one-time work stays out of the count
        tracemalloc.start()
        try:
            decode_batch(code, words)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= CHUNK_DECODE_PEAK_KIB * 1024, [p // 1024 for p in peaks]


def test_only_the_callers_word_is_reduced(small_code, monkeypatch):
    """decode_local and decode_batch reduce the caller's word (or stack)
    mod char once; the syndromes, errors and supports they hand on are
    canonical, so syndrome and erasure_decode reduce nothing again.  A
    direct call of syndrome or erasure_decode still reduces its input."""
    from lrpc_rings import decode_batch, lrpc
    code, ext = small_code, small_code.ext
    rng = np.random.default_rng(4)
    words = [(encode(code, ext.rand(rng, (4,))) + sample_error(ext, 10, 1, rng)) % 4 + 4
             for _ in range(12)]
    reduced = []
    as_svector = lrpc._as_svector

    def counted(ext, v, length):
        reduced.append(np.shape(v))
        return as_svector(ext, v, length)

    monkeypatch.setattr(lrpc, "_as_svector", counted)
    outs = [decode_local(code, w) for w in words]
    assert sum(isinstance(out, np.ndarray) for out in outs) > len(words) // 2
    assert reduced == [(10, ext.D)] * len(words)
    reduced.clear()
    batch = decode_batch(code, np.array(words))
    assert reduced == [(len(words), 10, ext.D)]
    assert [getattr(out, "line", 0) for out in batch] == [getattr(out, "line", 0) for out in outs]
    reduced.clear()
    assert np.array_equal(syndrome(code, words[0]), syndrome(code, words[0] % 4))
    assert reduced == [(10, ext.D)] * 2
