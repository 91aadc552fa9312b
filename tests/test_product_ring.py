import numpy as np
import pytest

from lrpc_rings import (CodeParams, DecodingFailure, ProductDecodingFailure,
                        ProductExtensionDesc, ProductSubmodule,
                        Submodule, decode_local, decode_product, decode_product_batch,
                        decompose_ring, encode, encode_product, errors,
                        generate_product_code, generate_product_codes,
                        localized_rank, project, sample_error,
                        sample_error_product, syndrome_product)
from lrpc_rings.simulate import parse_ring_spec


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
        what decode_local gives in each factor, recombined: the same
        failing factors with the same lines and details, or the same
        words."""
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
            _assert_decodes_per_factor(out, code, word)


def _assert_decodes_per_factor(out, code, word):
    """``out`` is the recombination of decode_local on each factor of
    ``word`` with that factor's code: the failing factors mapped to their
    (line, detail), or, when no factor fails, the tuple of the words."""
    local = [decode_local(c, w) for c, w in zip(code.codes, word)]
    failures = {j: (res.line, res.detail) for j, res in enumerate(local, start=1)
                if isinstance(res, DecodingFailure)}
    if failures:
        assert isinstance(out, ProductDecodingFailure)
        assert {j: (f.line, f.detail) for j, f in out.failures.items()} == failures
    else:
        assert isinstance(out, tuple) and len(out) == len(local)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(out, local))
    return [res.line if isinstance(res, DecodingFailure) else 0 for res in local]


# spec, params, and the decoder exits that the mixed stacks reach in each
# factor.  Z2 and Z3 are fields, where every module is free, so lines 5 and
# 14 cannot occur, and line 18 does not occur at these parameters.  Over
# Z4[x]/(x^2) a random word's syndrome support has free rank n - k: odd
# n - k sends it to line 8, even n - k on to lines 14-18.
MIXED_STACK_CASES = [
    ("Z6 ext m=8", CodeParams(8, 3, 2, 2), [{0, 8, 16}, {0, 8, 16}]),
    ("Z4[x]/(x^2) ext m=6", CodeParams(6, 2, 2, 1), [{0, 5, 14, 16, 18}]),
    ("Z4[x]/(x^2) ext m=6", CodeParams(6, 3, 2, 1), [{0, 5, 8}]),
]


@pytest.mark.parametrize("spec, params, lines", MIXED_STACK_CASES)
def test_stacks_of_mixed_codes(spec, params, lines):
    """Stacks of 0, 1, 2, 7 and 16 words, each word of its own code out of
    five, encoded by encode_product and decoded by decode_product_batch
    with the list of the words' codes: every codeword is encode's by the
    word's own code, and every result is decode_local's in each factor by
    the word's own code, ``detail`` included.  The words are codewords,
    random words, c + e and c + e + g e' for g a generator of the maximal
    ideal, so that every decoder exit that the ring has occurs.  An empty
    list of codes is refused."""
    _, ext = parse_ring_spec(spec)
    n, k = params.n, params.k
    rng = np.random.default_rng(26)
    pool = generate_product_codes(params, ext, [np.random.default_rng(s) for s in range(5)])
    seen = [set() for _ in ext.factors]
    w = 0
    for _ in range(3):
        for size in (0, 1, 2, 7, 16):
            codes = [pool[(w + i) % len(pool)] for i in range(size)]
            stack_code = codes or pool[0]  # no word, so no word's code: a shared code
            msgs = tuple(f.rand(rng, (size, k)) for f in ext.factors)
            cws = encode_product(stack_code, msgs)
            words = []
            for i, code in enumerate(codes):
                for j, c in enumerate(code.codes):
                    assert np.array_equal(cws[j][i], encode(c, msgs[j][i]))
                kind, t = (w + i) % 4, 1 + (w + i) % 2
                word = []
                for j, f in enumerate(ext.factors):
                    g = f.base.maximal_ideal_gens[-1]
                    if kind == 0:
                        word.append(f.rand(rng, (n,)))
                        continue
                    x = cws[j][i] if kind == 1 else cws[j][i] + sample_error(f, n, t, rng)
                    if kind == 3:
                        x = x + f.scalar_mul(g, sample_error(f, n, t, rng))
                    word.append(x % f.char)
                words.append(tuple(word))
            stacks = tuple(np.array([word[j] for word in words], dtype=np.int64)
                           .reshape(size, n, f.D) for j, f in enumerate(ext.factors))
            got = decode_product_batch(stack_code, stacks)
            assert len(got) == size
            for out, code, word in zip(got, codes, words):
                for j, line in enumerate(_assert_decodes_per_factor(out, code, word)):
                    seen[j].add(line)
            w += size
    assert seen == lines
    with pytest.raises(errors.ExtensionMismatch, match="at least one code"):
        decode_product_batch([], tuple(np.zeros((0, n, f.D), dtype=np.int64)
                                       for f in ext.factors))
