import numpy as np
import pytest

from lrpc_rings import (CodeParams, ProductDecodingFailure,
                        ProductExtensionDesc, ProductSubmodule,
                        Submodule, decode_product, decode_product_batch,
                        decompose_ring,
                        encode_product, errors, generate_product_code,
                        localized_rank, project, sample_error,
                        sample_error_product, syndrome_product)


@pytest.fixture(scope="module")
def z6():
    return decompose_ring(6)


@pytest.fixture(scope="module")
def z6_ext(z6):
    return ProductExtensionDesc(z6, 4)


@pytest.fixture(scope="module")
def z6_code(z6_ext):
    rng = np.random.default_rng(21)
    return generate_product_code(CodeParams(6, 2, 2, 1), z6_ext, rng)


class TestDecompose:
    def test_examples(self):
        assert [r.char for r in decompose_ring(6).factors] == [2, 3]
        assert [r.char for r in decompose_ring(4).factors] == [4]
        assert [r.char for r in decompose_ring(12).factors] == [4, 3]

    def test_string_specs(self):
        pr = decompose_ring("Z4[x]/(x^2) x Z9")
        assert [r.char for r in pr.factors] == [4, 9]
        assert pr.factors[0].gamma == 2
        with pytest.raises(errors.UnsupportedRing):
            decompose_ring("Z6[x]/(x^2)")

    def test_crt_roundtrip(self, z6):
        for x in range(6):
            assert z6.from_residues(z6.to_residues(x)) == x
        assert z6.to_residues(5) == (1, 2)

    def test_unsupported(self):
        with pytest.raises(errors.UnsupportedRing):
            decompose_ring(1)


class TestProject:
    def test_element_projection(self, z6):
        elem = z6.coerce(5)
        assert int(project(elem, 1)[0]) == 1
        assert int(project(elem, 2)[0]) == 2
        with pytest.raises(errors.IndexOutOfRange):
            project(elem, 3)

    def test_matrix_homomorphism(self, z6, rng):
        # project(A B) = project(A) project(B) componentwise
        a = tuple(r.rand(rng, (2, 3)) for r in z6.factors)
        b = tuple(r.rand(rng, (3, 2)) for r in z6.factors)
        prod = tuple(r.matmul(x, y) for r, x, y in zip(z6.factors, a, b))
        for j in (1, 2):
            ring = z6.factors[j - 1]
            assert np.array_equal(project(prod, j),
                                  ring.matmul(project(a, j), project(b, j)))

    def test_independence_iff_factorwise(self, z6, rng):
        # brute-force independence over Z6 versus per-factor independence
        for _ in range(20):
            n_, r_ = 2, int(rng.integers(1, 3))
            vecs = [tuple(r.rand(rng, (n_,)) for r in z6.factors)
                    for _ in range(r_)]
            brute_indep = _brute_independent_z6(z6, vecs)
            factor_indep = all(
                _factor_independent(z6.factors[j], [v[j] for v in vecs])
                for j in range(2))
            assert brute_indep == factor_indep


def _brute_independent_z6(z6, vecs):
    from itertools import product as iproduct
    n = vecs[0][0].shape[0]
    for coeffs in iproduct(range(6), repeat=len(vecs)):
        if all(c == 0 for c in coeffs):
            continue
        acc = [np.zeros((n, 1), dtype=np.int64) for _ in z6.factors]
        for c, v in zip(coeffs, vecs):
            cc = z6.to_residues(c)
            for j, r in enumerate(z6.factors):
                acc[j] = r.add(acc[j], r.mul(v[j], np.array([cc[j]])))
        if not any(a.any() for a in acc):
            return False
    return True


def _factor_independent(ring, vecs):
    gens = np.array(vecs)
    return ring.residue_field.matrix_rank(ring.residue_codes(gens)) == len(vecs)


class TestLocalizedRank:
    def test_full_module(self, z6):
        mod = ProductSubmodule([Submodule.full(r, 1) for r in z6.factors])
        assert localized_rank(mod) == (1, 1, True)

    def test_two_mod_six(self, z6):
        # <2 mod 6>: zero in the Z2 factor, a unit in the Z3 factor
        gens = z6.coerce(2)
        mod = ProductSubmodule([Submodule(r, 1, g[None, None, :])
                                for r, g in zip(z6.factors, gens)])
        assert localized_rank(mod) == (1, 0, False)

    def test_mixed_ranks_not_free(self, z6, rng):
        m1 = Submodule.full(z6.factors[0], 2)
        m2 = Submodule(z6.factors[1], 2,
                       np.array([[[1], [0]]], dtype=np.int64))
        assert localized_rank(ProductSubmodule([m1, m2]))[2] is False


class TestProductCode:
    def test_codeword_decodes_to_itself(self, z6_code, z6_ext, rng):
        msg = z6_ext.rand_vector(rng, 2)
        cw = encode_product(z6_code, msg)
        assert all(not s.any() for s in syndrome_product(z6_code, cw))
        out = decode_product(z6_code, cw)
        assert not isinstance(out, ProductDecodingFailure)
        assert z6_ext.equal(out, cw)

    def test_roundtrip_with_errors(self, z6_code, z6_ext, rng):
        ok = 0
        for _ in range(30):
            msg = z6_ext.rand_vector(rng, 2)
            cw = encode_product(z6_code, msg)
            err = sample_error_product(z6_ext, 6, [1, 1], rng)
            out = decode_product(z6_code, z6_ext.add(cw, err))
            if not isinstance(out, ProductDecodingFailure):
                assert z6_ext.equal(out, cw)
                ok += 1
        assert ok >= 15

    def test_injected_factor_failure_is_attributed(self, z6_code, z6_ext, rng):
        msg = z6_ext.rand_vector(rng, 2)
        cw = encode_product(z6_code, msg)
        # overload factor 2 with an error far beyond the decoding radius;
        # factor 1 is left clean
        for seed in range(40):
            local_rng = np.random.default_rng(1000 + seed)
            big = sample_error(z6_ext.factors[1], 6, 4, local_rng)
            received = (cw[0], (cw[1] + big) % 3)
            out = decode_product(z6_code, received)
            if isinstance(out, ProductDecodingFailure):
                assert set(out.failures) == {2}
                assert out.failures[2].line in (8, 16, 18)
                return
        pytest.fail("no failing trial found for the injected overload")

    def test_injected_nonfree_failure_z12(self, rng):
        # Z12 = Z4 x Z3: a non-free-support error in the Z4 factor fails
        # deterministically at line 5 and is attributed to factor 1
        pr = decompose_ring(12)
        ext = ProductExtensionDesc(pr, 4)
        code = generate_product_code(CodeParams(6, 2, 2, 1), ext,
                                     np.random.default_rng(5))
        msg = ext.rand_vector(rng, 2)
        cw = encode_product(code, msg)
        bad = (2 * sample_error(ext.factors[0], 6, 1, rng)) % 4
        assert bad.any()
        received = ((cw[0] + bad) % 4, cw[1])
        out = decode_product(code, received)
        assert isinstance(out, ProductDecodingFailure)
        assert set(out.failures) == {1} and out.failures[1].line == 5

    def test_recombination_projects_back(self, z6_code, z6_ext, rng):
        msg = z6_ext.rand_vector(rng, 2)
        cw = encode_product(z6_code, msg)
        err = sample_error_product(z6_ext, 6, [1, 0], rng)
        out = decode_product(z6_code, z6_ext.add(cw, err))
        if not isinstance(out, ProductDecodingFailure):
            for j in (1, 2):
                assert np.array_equal(project(out, j), project(cw, j))

    def test_decode_product_takes_words_as_decode_local_does(self, z6_code, z6_ext):
        """A word given per factor as a list of ints (constants of S_(j))
        decodes as its array form does."""
        ints = ([1, 0, 1, 1, 0, 1], [2, 1, 0, 0, 1, 2])
        arrays = tuple(np.array([ext.coerce(x) for x in w]) for ext, w in zip(z6_ext.factors, ints))
        got, want = decode_product(z6_code, ints), decode_product(z6_code, arrays)
        assert type(got) is type(want)
        if isinstance(want, ProductDecodingFailure):
            assert got.failures.keys() == want.failures.keys()
        else:
            assert z6_ext.equal(got, want)

    @pytest.mark.parametrize("components", [1, 3])
    def test_a_tuple_needs_one_component_per_factor(self, components):
        """Every entry point that takes a per-factor tuple refuses one with
        fewer or more components than factors, with ExtensionMismatch,
        instead of zip dropping or ignoring components."""
        ext = ProductExtensionDesc(decompose_ring(6), 6)
        rng = np.random.default_rng(6)
        code = generate_product_code(CodeParams(6, 2, 2, 1), ext, rng)
        msg = ext.rand_vector(rng, 2)
        cw = encode_product(code, msg)
        bad_msg, bad = (msg + msg)[:components], (cw + cw)[:components]
        calls = [lambda: encode_product(code, bad_msg),
                 lambda: syndrome_product(code, bad),
                 lambda: decode_product(code, bad),
                 lambda: decode_product_batch(code, tuple(x[None] for x in bad)),
                 lambda: ext.add(bad, cw), lambda: ext.add(cw, bad),
                 lambda: ext.equal(bad, cw), lambda: ext.equal(cw, bad)]
        for call in calls:
            with pytest.raises(errors.ExtensionMismatch, match="expected 2 factor components"):
                call()

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 40])
    def test_batch_matches_decode_product(self, size):
        """decode_product_batch of per-factor stacks gives, word for word,
        decode_product's result: the same failing factors with the same
        lines and details, or the same words."""
        ext = ProductExtensionDesc(decompose_ring(12), 4)
        rng = np.random.default_rng(12)
        code = generate_product_code(CodeParams(6, 2, 2, 1), ext, rng)
        words = []
        for w in range(size):
            cw = encode_product(code, ext.rand_vector(rng, 2))
            err = sample_error_product(ext, 6, [w % 3, (w // 3) % 3], rng)
            words.append(ext.rand_vector(rng, 6) if w % 5 == 4 else ext.add(cw, err))
        stacks = tuple(np.array([word[j] for word in words], dtype=np.int64).reshape(size, 6, f.D)
                       for j, f in enumerate(ext.factors))
        got = decode_product_batch(code, stacks)
        assert len(got) == size
        for out, word in zip(got, words):
            want = decode_product(code, word)
            if isinstance(want, ProductDecodingFailure):
                assert isinstance(out, ProductDecodingFailure)
                assert ({j: (f.line, f.detail) for j, f in out.failures.items()}
                        == {j: (f.line, f.detail) for j, f in want.failures.items()})
            else:
                assert isinstance(out, tuple) and len(out) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(out, want))
