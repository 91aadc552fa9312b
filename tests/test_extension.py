import numpy as np
import pytest

from lrpc_rings import ExtensionDesc, errors, free_module_test

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
    assert np.array_equal(s5.ext_arith(th, th, "mul"), (th * th).flat)
    assert np.array_equal(s5.ext_arith(th, None, "neg"), (-th).flat)


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


@pytest.mark.parametrize("ring_name", ["z4", "s5", "rxi_ext3"])
def test_matmul_matches_entrywise_sums(ring_name, request, rxi, rng):
    ring = (ExtensionDesc(rxi, 3) if ring_name == "rxi_ext3"
            else request.getfixturevalue(ring_name))
    for r, k, c in ((3, 4, 5), (1, 6, 1), (2, 0, 3)):
        a, b = ring.rand(rng, (r, k)), ring.rand(rng, (k, c))
        prod = ring.matmul(a, b)
        assert prod.shape == (r, c, ring.D)
        for i, j in np.ndindex(r, c):
            if ring.D == 1:  # Z4: Python-int dot products
                want = [sum(int(a[i, t, 0]) * int(b[t, j, 0]) for t in range(k)) % 4]
            else:
                want = ring.zero
                for t in range(k):
                    want = ring.add(want, schoolbook_ext_mul(ring, a[i, t], b[t, j]))
            assert np.array_equal(prod[i, j], want)


def test_inverse(s5, z4):
    assert s5.elem(1).inverse() == 1
    th = s5.theta()
    assert th.inverse() * th == 1
    with pytest.raises(errors.NotAUnit):
        s5.elem(2).inverse()


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
