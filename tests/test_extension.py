import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrpc_rings import (ExtensionDesc, Zmod, errors, free_module_test,
                        galois_ring, quotient_ring)
from lrpc_rings.chain import TensorAlgebra

from conftest import schoolbook_ext_mul


def test_theta_power_reduction(s5):
    th = s5.theta()
    assert th ** 5 == s5.from_poly([3, 0, 3])


def test_mul_identity_and_addition(s5, rng):
    a = s5.elem(s5.rand(rng))
    assert a * 1 == a
    assert s5.from_poly([1, 1]) + s5.from_poly([3, 3]) == 0


def test_ext_arith_dispatch(s5):
    th = s5.theta()
    assert np.array_equal(s5.arith(th, th, "mul"), (th * th).flat)
    assert np.array_equal(s5.arith(th, None, "neg"), (-th).flat)


def _check_broadcast_mul(ext, rng):
    """mul over broadcast leading shapes, checked element by element."""
    for sa, sb in (((3, 1), (1, 4)), ((), (5,))):
        a, b = ext.rand(rng, sa), ext.rand(rng, sb)
        prod = ext.mul(a, b)
        ab, bb = np.broadcast_arrays(a, b)
        assert prod.shape == ab.shape
        for idx in np.ndindex(ab.shape[:-1]):
            assert np.array_equal(prod[idx], schoolbook_ext_mul(ext, ab[idx], bb[idx]))


def test_mul_matches_schoolbook_oracle(s5, rng):
    for _ in range(60):
        a, b = s5.rand(rng), s5.rand(rng)
        assert np.array_equal(s5.mul(a, b), schoolbook_ext_mul(s5, a, b))
    _check_broadcast_mul(s5, rng)


def test_mul_matches_schoolbook_general_base(rng):
    from lrpc_rings import quotient_ring
    base = quotient_ring(2, 2, [0, 0, 1])
    ext = ExtensionDesc(base, 3)
    for _ in range(40):
        a, b = ext.rand(rng), ext.rand(rng)
        assert np.array_equal(ext.mul(a, b), schoolbook_ext_mul(ext, a, b))
    _check_broadcast_mul(ext, rng)


def _entrywise_sum(ring, a, b):
    """Oracle for one entry of a matrix product: sum_t a[t] b[t] by Python
    ints (D == 1) or by schoolbook products."""
    if ring.D == 1:
        return [sum(int(x[0]) * int(y[0]) for x, y in zip(a, b)) % ring.char]
    want = ring.zero
    for x, y in zip(a, b):
        want = ring.add(want, schoolbook_ext_mul(ring, x, y))
    return want


def _check_matmul(ring, rng, shapes=((3, 4, 5), (1, 6, 1), (2, 0, 3))):
    for r, k, c in shapes:
        a, b = ring.rand(rng, (r, k)), ring.rand(rng, (k, c))
        a[0] = ring.char - 1  # the largest canonical operands
        b[:, 0] = ring.char - 1
        prod = ring.matmul(a, b)
        assert prod.shape == (r, c, ring.D)
        for i, j in np.ndindex(r, c):
            assert np.array_equal(prod[i, j], _entrywise_sum(ring, a[i], b[:, j]))


@pytest.mark.parametrize("ring_name", ["z4", "s5", "rxi_ext3"])
def test_matmul_matches_entrywise_sums(ring_name, request, rxi, rng):
    ring = (ExtensionDesc(rxi, 3) if ring_name == "rxi_ext3"
            else request.getfixturevalue(ring_name))
    _check_matmul(ring, rng)


@pytest.mark.parametrize("s, dtype", [(14, np.float64), (15, np.int64)])
def test_products_near_the_float_bound_are_exact(s, dtype, rng):
    """Z_{2^s} ext m=20: D^2 (char-1)^3 is 1.8e15 < 2^53 for s = 14, which
    contracts in float64, and 1.4e16 > 2^53 for s = 15, which stays int64."""
    ext = ExtensionDesc(Zmod(2 ** s), 20)
    assert ext.dtype is dtype
    top = np.full(ext.D, ext.char - 1)
    for a, b in [(top, top)] + [(ext.rand(rng), ext.rand(rng)) for _ in range(4)]:
        assert np.array_equal(ext.mul(a, b), schoolbook_ext_mul(ext, a, b))
    _check_matmul(ext, rng, shapes=((2, 3, 2), (2, 0, 3)))


def test_rings_past_the_int64_bound_refuse(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # valid by construction: no warning
        z3_13 = Zmod(3 ** 13)
    with pytest.raises(errors.UnsupportedRing):  # D^2 (char-1)^3 > 2^70
        ExtensionDesc(z3_13, 20)
    with pytest.raises(errors.UnsupportedRing):  # D == 1: (char-1)^2 > 2^63
        Zmod(2 ** 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z2_31 = Zmod(2 ** 31)  # (char-1)^2 < 2^63, but no two such products
    assert z2_31._dot_len == 2
    _check_matmul(z2_31, rng, shapes=((2, 5, 3), (1, 1, 1), (2, 0, 3)))


def test_split_contractions_match_one_piece(z4, s5, rng):
    """matmul and apply_right sum at most _dot_len products at a time; pieces
    of 3 products give what one piece gives."""
    split = ExtensionDesc(z4, 5, f=s5.f)
    split._dot_len = 3
    for r, k, c in ((3, 4, 5), (1, 1, 2), (2, 0, 3)):
        a, b = s5.rand(rng, (r, k)), s5.rand(rng, (k, c))
        assert np.array_equal(split.matmul(a, b), s5.matmul(a, b))
        assert np.array_equal(split.apply_right(a, split.right_map(b)), s5.matmul(a, b))


@pytest.mark.parametrize("ring_name", ["z4", "s5", "rxi_ext3"])
def test_right_map_matches_matmul(ring_name, request, rxi, rng):
    ring = (ExtensionDesc(rxi, 3) if ring_name == "rxi_ext3"
            else request.getfixturevalue(ring_name))
    for r, k, c in ((3, 4, 5), (1, 6, 1), (2, 0, 3)):
        a, b = ring.rand(rng, (r, k)), ring.rand(rng, (k, c))
        b_map = ring.right_map(b)
        assert b_map.shape == (k * ring.D, c * ring.D) and b_map.dtype == ring.dtype
        assert np.array_equal(ring.apply_right(a, b_map), ring.matmul(a, b))
        assert np.array_equal(ring.apply_right(a[0], b_map), ring.matmul(a, b)[0])
    x, y = ring.rand(rng, (6,)), ring.rand(rng, (6,))
    maps = ring.mul_matrices(y)
    assert (maps.shape, maps.dtype) == ((6, ring.D, ring.D), np.int64)
    assert np.array_equal(ring._dot(x[:, None], maps)[:, 0], ring.mul(x, y))


def test_inverse(s5, z4):
    assert s5.elem(1).inverse() == 1
    th = s5.theta()
    assert th.inverse() * th == 1
    with pytest.raises(errors.NotAUnit):
        s5.elem(2).inverse()


@pytest.mark.parametrize("m, f", [(1, None), (1, [3, 1]), (2, None), (3, None),
                                  (4, None), (5, None), (5, [1, 0, 1, 0, 0, 1])])
def test_theta_is_a_root_of_the_modulus(z4, m, f):
    ext = ExtensionDesc(z4, m, f=f)
    th = ext.theta()
    value = sum((ext.elem(ext.embed_ring(c)) * th ** i for i, c in enumerate(ext.f)),
                ext.elem(0))
    assert value == 0


def test_negative_powers_invert_first(z4):
    th = ExtensionDesc(z4, 3).theta()
    assert th ** 0 == 1 and (2 * th) ** 0 == 1
    assert th ** -1 == th.inverse()
    assert th ** -3 * th ** 3 == 1
    assert z4.elem(3) ** -3 == 3
    with pytest.raises(errors.NotAUnit):
        (2 * th) ** -1
    with pytest.raises(errors.NotAUnit):
        z4.elem(2) ** -2


INVERSE_CASES = {
    "Z2 ext m=7": lambda: ExtensionDesc(Zmod(2), 7),
    "Z2 ext m=6": lambda: ExtensionDesc(Zmod(2), 6),
    "Z3 ext m=10": lambda: ExtensionDesc(Zmod(3), 10),
    "Z4 ext m=20": lambda: ExtensionDesc(Zmod(4), 20),
    "Z4 ext m=1": lambda: ExtensionDesc(Zmod(4), 1),
    "Z9 ext m=5": lambda: ExtensionDesc(Zmod(9), 5),
    "GR(4,2) ext m=3": lambda: ExtensionDesc(galois_ring(2, 2, 2), 3),
    "Z4[x]/(x^2) ext m=10": lambda: ExtensionDesc(quotient_ring(2, 2, [0, 0, 1]), 10),
}


@pytest.mark.parametrize("name", sorted(INVERSE_CASES))
def test_norm_inverse_matches_fermat_newton(name, rng):
    """The norm inverse equals TensorAlgebra's inverse, a^(q-2) lifted by
    Newton steps, on random units."""
    ext = INVERSE_CASES[name]()
    for a in ext.rand_unit(rng, (100,)):
        inv = ext.inverse(a)
        assert np.array_equal(inv, TensorAlgebra.inverse(ext, a))
        assert np.array_equal(ext.mul(a, inv), ext.one)


ARRAY_INVERSE_CASES = dict(INVERSE_CASES, **{
    "GR(4,2)": lambda: galois_ring(2, 2, 2),
    "Z4[x]/(x^2)": lambda: quotient_ring(2, 2, [0, 0, 1]),
})


@pytest.mark.parametrize("name", sorted(ARRAY_INVERSE_CASES))
def test_array_inverse_is_elementwise(name, rng):
    """inverse of a (..., D) array of units is the inverse of each entry;
    a batch that holds one non-unit raises NotAUnit."""
    ring = ARRAY_INVERSE_CASES[name]()
    for shape in ((0,), (1,), (3, 7)):
        units = ring.rand_unit(rng, shape)
        inv = ring.inverse(units)
        assert (inv.shape, inv.dtype) == (units.shape, np.int64)
        for u, v in zip(units.reshape(-1, ring.D), inv.reshape(-1, ring.D)):
            assert np.array_equal(v, ring.inverse(u))
    units[1, 4] = ring.p * units[1, 4] % ring.char
    with pytest.raises(errors.NotAUnit):
        ring.inverse(units)


def test_norm_inverse_refuses_non_units(z4):
    ext = ExtensionDesc(z4, 3)
    for a in (ext.elem(0), 2 * ext.theta(), ext.from_poly([2, 0, 2])):
        with pytest.raises(errors.NotAUnit):
            a.inverse()


@pytest.mark.parametrize("name", ["Z2 ext m=6", "Z9 ext m=5", "GR(4,2) ext m=3",
                                  "Z4[x]/(x^2) ext m=10"])
def test_frobenius(name, rng):
    """sigma fixes R, is multiplicative, has order m, lifts x -> x^q on the
    residue field, and the product of the conjugates of a lies in R."""
    ext = INVERSE_CASES[name]()
    assert "_frobenius" not in vars(ext)  # built on the first inverse only
    sigma = ext._frobenius[0]

    def apply(x):
        return ext._dot(x, sigma)

    r = ext.embed_ring(ext.base.rand(rng, (10,)))
    assert np.array_equal(apply(r), r)
    a, b = ext.rand(rng, (10,)), ext.rand(rng, (10,))
    assert np.array_equal(apply(ext.mul(a, b)), ext.mul(apply(a), apply(b)))
    th = ext.theta().flat
    assert not ext.is_unit(ext.sub(apply(th), ext.pow(th, ext.base.q)))
    conj, norm, th_conj = a, a, th
    for _ in range(1, ext.m):
        conj, th_conj = apply(conj), apply(th_conj)
        assert not np.array_equal(th_conj, th)
        norm = ext.mul(norm, conj)
    assert np.array_equal(apply(conj), a)
    assert not norm[:, ext.base.D:].any()


SMALL_EXTENSIONS = [ExtensionDesc(Zmod(2), 3), ExtensionDesc(Zmod(4), 4),
                    ExtensionDesc(Zmod(9), 2), ExtensionDesc(galois_ring(2, 2, 2), 2),
                    ExtensionDesc(quotient_ring(2, 2, [0, 0, 1]), 2)]


@st.composite
def small_extension_elements(draw):
    ext = draw(st.sampled_from(SMALL_EXTENSIONS))
    coords = draw(st.lists(st.integers(0, ext.char - 1), min_size=ext.D, max_size=ext.D))
    return ext, np.array(coords, dtype=np.int64)


@settings(max_examples=200, deadline=3000, derandomize=True)
@given(small_extension_elements())
def test_inverse_property(case):
    ext, a = case
    assume(ext.is_unit(a))
    assert np.array_equal(ext.mul(a, ext.inverse(a)), ext.one)


def test_vec_rep(s5, rng):
    assert np.array_equal(s5.vec_rep(s5.one).reshape(-1), [1, 0, 0, 0, 0])
    elem = s5.from_poly([3, 2, 0, 3, 0])
    assert np.array_equal(s5.vec_rep(elem.flat).reshape(-1), [3, 2, 0, 3, 0])
    a = s5.rand(rng, (20,))
    assert np.array_equal(s5.unrep(s5.vec_rep(a)), a)
    # additive and R-homogeneous
    b = s5.rand(rng, (20,))
    r = s5.base.rand(rng)
    assert np.array_equal(s5.vec_rep((a + b) % 4),
                          (s5.vec_rep(a) + s5.vec_rep(b)) % 4)
    assert np.array_equal(s5.vec_rep(s5.scalar_mul(r, a)),
                          s5.base.mul(s5.vec_rep(a), r))


def test_support(s5):
    zero_sup = s5.support(np.zeros((3, s5.D), dtype=np.int64))
    assert free_module_test(zero_sup) == (0, True)
    th = s5.theta().flat
    sup = s5.support([th, (2 * th) % 4, np.zeros_like(th)])
    assert free_module_test(sup) == (1, True)
    assert sup.equals(s5.support([th]))
    a_sup = s5.support([s5.from_poly([3, 2, 0, 3, 0]).flat,
                        s5.from_poly([1, 3, 0, 2, 2]).flat])
    assert free_module_test(a_sup) == (2, True)


def test_modulus_validation(z4):
    with pytest.raises(errors.MalformedModulus):
        ExtensionDesc(z4, 2, f=[1, 0, 2])  # non-monic
    with pytest.raises(errors.MalformedModulus):
        ExtensionDesc(z4, 2, f=[1, 0, 0, 1])  # wrong degree
    with pytest.raises(errors.MalformedModulus):
        ExtensionDesc(z4, 2, f=[1, 1, 1, 1])  # wrong degree
    # t^2 + t + 1 is irreducible over F2: fine
    ExtensionDesc(z4, 2, f=[1, 1, 1])
    # t^2 + 1 = (t+1)^2 over F2: rejected
    with pytest.raises(errors.MalformedModulus):
        ExtensionDesc(z4, 2, f=[1, 0, 1])


def test_degree_one_degenerates_to_base(z4, rng):
    ext = ExtensionDesc(z4, 1)
    a, b = ext.rand(rng, (10,)), ext.rand(rng, (10,))
    assert np.array_equal(ext.mul(a, b), z4.mul(a, b))
    assert bool(ext.is_unit(ext.coerce(3)))
    assert ext.elem(3).inverse() == 3


def test_unit_iff_residue_nonzero(s5, rng):
    elems = s5.rand(rng, (200,))
    units = s5.is_unit(elems)
    # unit iff some coordinate of the vector representation is a unit of R
    vec_units = s5.base.is_unit(s5.vec_rep(elems)).any(axis=-1)
    assert np.array_equal(units, vec_units)
    # each claimed unit actually inverts
    for e in elems[units][:20]:
        assert np.array_equal(s5.mul(e, s5.inverse(e)), s5.one)
