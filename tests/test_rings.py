import time

import numpy as np
import pytest

from lrpc_rings import (ChainRing, ExtensionDesc, GaloisRingParams,
                        QuotientSpec, Zmod, construct_local_ring, errors, fq,
                        galois_ring, quotient_ring)
from lrpc_rings.specparse import parse_local_atom

from conftest import local_ring_oracle


def test_z4_construction(z4):
    assert (z4.p, z4.s, z4.mu, z4.gamma) == (2, 2, 1, 1)
    assert z4.q == 2 and z4.upsilon == 2 and z4.size == 4


def test_quotient_construction(rxi):
    assert rxi.gamma == 2 and rxi.q == 2
    # |R| = 16 = 2^4 by the cardinality oracle, so upsilon = 4
    assert len(rxi.enumerate_elements()) == 16
    assert rxi.upsilon == 4
    gens = [tuple(g) for g in rxi.maximal_ideal_gens]
    assert (2, 0) in gens and (0, 1) in gens


def test_z6_not_local():
    with pytest.raises(errors.NotLocal):
        Zmod(6)


def test_construct_local_ring_dispatch():
    r1 = construct_local_ring(GaloisRingParams(2, 2, 1, (0, 1)))
    assert r1.size == 4
    r2 = construct_local_ring(QuotientSpec(4, (0, 0, 1)))
    assert r2.gamma == 2
    r3 = construct_local_ring(9)
    assert r3.char == 9
    with pytest.raises(errors.NotLocal):
        construct_local_ring(QuotientSpec(6, (0, 0, 1)))
    with pytest.raises(errors.NotPrime):
        galois_ring(4, 1, 1)


def test_quotient_requires_local_factor_shape():
    # x^2+1 = (x+2)(x+3) mod 5: two distinct factors
    with pytest.raises(errors.NotLocal):
        quotient_ring(5, 1, [1, 0, 1])
    with pytest.raises(errors.MalformedModulus):
        quotient_ring(2, 2, [1, 0, 2])  # non-monic


def test_arith_examples(z4, rxi):
    assert z4.elem(3) + z4.elem(3) == 2
    one_xi = rxi.from_poly([1, 1])
    assert one_xi * rxi.from_poly([1, 3]) == rxi.from_poly([1])
    assert rxi.arith(one_xi, rxi.from_poly([1, 3]), "mul")[0] == 1


def test_additive_inverse_random(z4, rxi, gr42, rng):
    for ring in (z4, rxi, gr42):
        a = ring.rand(rng, (32,))
        assert not ring.add(a, ring.neg(a)).any()


def test_ring_axioms_random(rxi, gr42, z9, rng):
    for ring in (rxi, gr42, z9, ChainRing(3, 2, 2), ExtensionDesc(rxi, 3)):
        a, b, c = (ring.rand(rng, (64,)) for _ in range(3))
        assert np.array_equal(ring.mul(a, b), ring.mul(b, a))
        assert np.array_equal(ring.mul(ring.mul(a, b), c),
                              ring.mul(a, ring.mul(b, c)))
        assert np.array_equal(ring.mul(a, ring.add(b, c)),
                              ring.add(ring.mul(a, b), ring.mul(a, c)))
        a5 = a
        for _ in range(4):
            a5 = ring.mul(a5, a)
        assert np.array_equal(ring.pow(a, 5), a5)


def test_element_reprs(z4, rxi, s5):
    assert repr(rxi.from_poly([1, 3])) == "1 + 3*x"
    assert repr(z4.elem(3)) == "3"
    assert repr(s5.from_poly([3, 2, 0, 3])) == "3 + 2*t + 3*t^3"
    e = ExtensionDesc(rxi, 3)
    elem = e.from_poly([rxi.from_poly([1, 1]), 0, rxi.from_poly([0, 1])])
    assert repr(elem) == "(1 + x) + (x)*t^2"
    assert s5.spec_string == "Z4 ext m=5 f=x^5+x^2+1"


def test_is_unit_examples(z4, rxi):
    assert z4.elem(3).is_unit() and not z4.elem(2).is_unit()
    assert rxi.from_poly([1, 1]).is_unit()
    assert not rxi.from_poly([2, 1]).is_unit()


def test_inverse_examples(z4, rxi):
    assert z4.elem(3).inverse() == 3
    inv = rxi.from_poly([1, 1]).inverse()
    assert inv == rxi.from_poly([1, 3])
    assert rxi.from_poly([1, 1]) * inv == 1
    with pytest.raises(errors.NotAUnit):
        z4.elem(2).inverse()


def test_inverse_involution(gr42, rxi, rng):
    for ring in (gr42, rxi, ChainRing(3, 2, 2), ExtensionDesc(rxi, 3)):
        units = ring.rand_unit(rng, (24,))
        for u in units:
            assert np.array_equal(ring.inverse(ring.inverse(u)), u)


def test_residue_projection(z4, rxi, rng):
    assert z4.elem(2).residue() == 0 and z4.elem(3).residue() == 1
    # 2 + 3 xi lies in the maximal ideal <2, xi>, so its residue is 0
    assert rxi.from_poly([2, 3]).residue() == 0
    assert rxi.from_poly([3, 2]).residue() == 1
    a, b = rxi.rand(rng, (2, 50))
    f = rxi.residue_field
    ab = rxi.residue_codes(rxi.mul(a, b))
    ra, rb = rxi.residue_codes(a), rxi.residue_codes(b)
    assert all(int(x) == f.mul(int(y), int(z)) for x, y, z in zip(ab, ra, rb))


def test_units_exactly_complement_maximal_ideal(z4, rxi, gr42, z9):
    # construction does not check this; local_ring_oracle and this test do
    for ring in (z4, rxi, gr42, z9):
        elems = ring.enumerate_elements()
        units = ring.is_unit(elems)
        ideal = {x.tobytes() for x in _ideal_elements(ring)}
        for e, u in zip(elems, units):
            assert u != (e.tobytes() in ideal)


def _ideal_elements(ring):
    elems = ring.enumerate_elements()
    out = np.zeros((1, ring.D), dtype=np.int64)
    for g in ring.maximal_ideal_gens:
        scaled = ring.mul(elems, g[None, :])
        out = np.unique((out[None, :, :] + scaled[:, None, :]).reshape(-1, ring.D)
                        % ring.char, axis=0)
    return out


def test_residue_kernel_size_matches_upsilon(z4, rxi, gr42):
    for ring in (z4, rxi, gr42):
        elems = ring.enumerate_elements()
        codes = ring.residue_codes(elems)
        # surjective with kernel of size q^(upsilon-1)
        assert len(np.unique(codes)) == ring.q
        assert int((codes == 0).sum()) == ring.q ** (ring.upsilon - 1)


def test_general_quotient_hensel_case():
    # residue degree 2 with nilpotency 2: needs the lifted Galois subring
    g = list(np.convolve([1, 1, 1], [1, 1, 1]) % 4)
    ring = quotient_ring(2, 2, g)
    assert (ring.mu, ring.gamma, ring.q, ring.upsilon) == (2, 2, 4, 4)
    rng = np.random.default_rng(5)
    a, b, c = (ring.rand(rng, (32,)) for _ in range(3))
    assert np.array_equal(ring.mul(a, ring.mul(b, c)), ring.mul(ring.mul(a, b), c))
    u = ring.rand_unit(rng)
    assert np.array_equal(ring.mul(u, ring.inverse(u)), ring.one)


def test_sampling_helpers(rxi, rng):
    ideal = rxi.rand_ideal(rng, (200,))
    assert not rxi.is_unit(ideal).any()
    digits = rng.integers(0, 2, size=(50, 1))
    lifted = rxi.rand_with_residue(rng, digits)
    assert np.array_equal(rxi.residue(lifted), digits)
    uz = rxi.rand_unit_or_zero(rng, (300,))
    mask_zero = ~uz.any(axis=-1)
    assert (rxi.is_unit(uz) | mask_zero).all()
    assert mask_zero.any()


def test_rand_unit_or_zero_stream_and_past_int64(rxi):
    """Up to |R| = 2^63 the draws are one pick in [0, |R*|] and a unit, in
    that order; past it (Z2[x]/(x^64), |R*| = 2^63) each entry is a uniform
    element redrawn until it is a unit or zero."""
    got = rxi.rand_unit_or_zero(np.random.default_rng(5), (50,))
    rng = np.random.default_rng(5)
    pick = rng.integers(0, 9, size=(50,))
    assert np.array_equal(got, np.where((pick == 0)[:, None], 0, rxi.rand_unit(rng, (50,))))
    big = quotient_ring(2, 1, [0] * 64 + [1])
    assert big.size == 2 ** 64
    draws = big.rand_unit_or_zero(np.random.default_rng(5), (40, 3))
    assert draws.shape == (40, 3, 64)
    assert (big.is_unit(draws) | ~draws.any(axis=-1)).all()
    assert np.array_equal(draws, big.rand_unit_or_zero(np.random.default_rng(5), (40, 3)))


# rand_unit_or_zero(default_rng(2024), (10, 2)) and the next three
# rng.integers(0, 2^62) draws, pinned for the rejection loop's rng stream
PINNED_UNIT_OR_ZERO = {
    2: ([[0, 1], [0, 0], [0, 0], [1, 1], [1, 1], [0, 0], [1, 0], [0, 0], [1, 0], [0, 0]],
        [4099521567982180354, 1320410158772499613, 3568370140435605139]),
    3: ([[0, 1], [0, 0], [0, 0], [1, 1], [2, 2], [0, 0], [1, 0], [0, 0], [1, 1], [0, 0]],
        [983014751046431945, 1264731851747636872, 3722469881320267741]),
    4: ([[0, 1], [0, 0], [0, 0], [1, 1], [3, 1], [0, 0], [3, 0], [0, 0], [1, 1], [0, 0]],
        [1236221787644560608, 326884533295401222, 2154620354404369731]),
}


@pytest.mark.parametrize("q", sorted(PINNED_UNIT_OR_ZERO))
def test_rand_unit_or_zero_keeps_its_rng_stream(q):
    """The draws and the state the rng is left in are pinned: redrawing
    only the rejected entries draws what redrawing them did before."""
    rng = np.random.default_rng(2024)
    out = Zmod(q).rand_unit_or_zero(rng, (10, 2))
    values, after = PINNED_UNIT_OR_ZERO[q]
    assert out.shape == (10, 2, 1) and out.dtype == np.int64
    assert out[..., 0].tolist() == values
    assert rng.integers(0, 2 ** 62, size=3).tolist() == after


def test_rand_accepted_is_uniform_over_units_and_zero(rxi):
    draws = rxi.rand_accepted(np.random.default_rng(1), (9000,),
                              lambda a: rxi.is_unit(a) | ~a.any(axis=-1))
    _, counts = np.unique(draws, axis=0, return_counts=True)
    assert len(counts) == 9 and counts.min() > 850 and counts.max() < 1150


def test_enumeration_refuses_large_rings_as_unsupported():
    with pytest.raises(errors.UnsupportedRing, match="too large to enumerate"):
        galois_ring(2, 1, 20).enumerate_elements()


def test_custom_galois_modulus_spec_roundtrip():
    from lrpc_rings import parse_local_atom
    ring = galois_ring(3, 2, 2, h=[2, 1, 1])
    assert ring.spec_string == "Z9[x]/(x^2+x+2)"
    clone = parse_local_atom(ring.spec_string)
    assert clone.base.h == ring.base.h and clone.q == ring.q


def test_struct_consts_view(rxi):
    c = rxi.struct_consts
    assert c.shape == (2, 2, 2, 1)
    # z2 * z2 = xi^2 = 0 in Z4[x]/(x^2)
    assert not c[1, 1].any()
    # z1 row encodes the identity
    assert c[0, 1, 1, 0] == 1 and c[0, 0, 0, 0] == 1


# one ring from each constructor branch
CONSTRUCTOR_BRANCHES = {
    "Zmod(4)": lambda: Zmod(4),
    "Zmod(9)": lambda: Zmod(9),
    "GR(4,2)": lambda: galois_ring(2, 2, 2),
    "GR(9,2)-h": lambda: galois_ring(3, 2, 2, h=[2, 1, 1]),
    "quot-e1": lambda: quotient_ring(2, 2, [1, 1, 1]),
    "quot-mu1-a0": lambda: quotient_ring(2, 2, [0, 0, 1]),
    "quot-mu1-a1": lambda: quotient_ring(3, 2, [1, 7, 1]),
    "quot-hensel": lambda: quotient_ring(2, 2, [1, 2, 3, 2, 1]),  # (x^2+x+1)^2
}


@pytest.mark.parametrize("branch", sorted(CONSTRUCTOR_BRANCHES))
def test_constructor_branches_build_local_rings(branch):
    local_ring_oracle(CONSTRUCTOR_BRANCHES[branch]())


IS_UNIT_RINGS = dict(CONSTRUCTOR_BRANCHES, **{
    spec: (lambda spec=spec: parse_local_atom(spec))
    for spec in ("Z2", "Z3", "Z8", "Z2147483648", "Z4[x]/(x^2+2)", "Z2[x]/(x^3)",
                 "Z8[x]/(x^2)", "Z16[x]/(x^3)", "Z2[x]/(x^8)", "Z9[x]/(x^2)")})


@pytest.mark.parametrize("name", sorted(IS_UNIT_RINGS))
def test_is_unit_is_a_nonzero_residue(name):
    """is_unit reads the first mu coordinates mod p when psi vanishes past
    its first mu rows, and the residue otherwise: either way it is
    residue(a).any(-1), on canonical, unreduced and negative coordinates
    and on every leading shape."""
    ring = IS_UNIT_RINGS[name]()
    rng = np.random.default_rng(len(name))
    for shape in ((), (7,), (3, 5), (2, 3, 4)):
        for a in (ring.rand(rng, shape), ring.rand_ideal(rng, shape),
                  ring.rand(rng, shape) - 3 * ring.char,
                  rng.integers(-5 * ring.char, 5 * ring.char, size=shape + (ring.D,))):
            got = ring.is_unit(a)
            want = ring.residue(a).any(axis=-1)
            assert np.shape(got) == shape and np.asarray(got).dtype == bool
            assert np.array_equal(got, want)


def test_large_rings_build_without_self_checks():
    """Rank 63 and 64: no D^4 associativity check at construction."""
    for build in (lambda: galois_ring(2, 1, 63), lambda: quotient_ring(2, 1, [0] * 64 + [1])):
        start = time.perf_counter()
        build()
        assert time.perf_counter() - start < 1.0


def test_galois_subring_is_rabin_tested_once(monkeypatch):
    """The default modulus is only searched for; a given one is tested once."""
    calls = []
    rabin = fq.irreducible
    monkeypatch.setattr(fq, "irreducible", lambda F, poly: calls.append(1) or rabin(F, poly))

    def count(build):
        del calls[:]
        build()
        return len(calls)

    assert count(lambda: galois_ring(2, 2, 12)) == count(
        lambda: fq.smallest_irreducible(fq.Fq(2), 12))
    # a given modulus: one Rabin test; the search only names the spec
    assert count(lambda: galois_ring(3, 2, 2, h=[2, 1, 1])) == 1 + count(
        lambda: fq.smallest_irreducible(fq.Fq(3), 2))
    # e = 1: power_of_irreducible, then one Rabin test
    assert count(lambda: quotient_ring(3, 2, [2, 1, 1])) == 1
