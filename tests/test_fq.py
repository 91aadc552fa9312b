"""Residue fields: F_q arithmetic, polynomials, Rabin test, default moduli,
matrix rank and RREF over F_q, factoring, and the rank cap."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpc_rings import (ExtensionDesc, Zmod, errors, fq, galois_ring,
                        parse_ring_spec, quotient_ring)
from lrpc_rings.chain import MAX_RANK, ChainRing
from lrpc_rings.product_ring import decompose_ring
from lrpc_rings.specparse import parse_local_atom

from conftest import fq_rank_oracle, fq_rref_oracle

FIELDS = {
    "F2": fq.Fq(2),
    "F3": fq.Fq(3),
    "F4": fq.Fq(2, [1, 1, 1]),
    "F8": fq.Fq(2, [1, 1, 0, 1]),
    "F9": fq.Fq(3, [1, 0, 1]),
    "F25": fq.Fq(5, [2, 0, 1]),
}


@pytest.mark.parametrize("name", ["F4", "F8", "F9", "F25"])
def test_field_mul_matches_polynomial_product(name):
    field = FIELDS[name]
    fp = field.prime
    for a, b in itertools.product(range(field.q), repeat=2):
        prod = fq.poly_mod(fp, fq.poly_mul(fp, field.decode(a), field.decode(b)), field.w)
        assert field.mul(a, b) == field.encode(prod)
    for a in range(1, field.q):
        assert field.mul(a, field.inv(a)) == 1


def _monic(field, deg):
    for tail in itertools.product(range(field.q), repeat=deg):
        yield list(tail) + [1]


def test_rabin_matches_brute_force_factoring_over_f4():
    f4 = FIELDS["F4"]
    for n in range(1, 5):
        reducible = set()
        for d in range(1, n // 2 + 1):
            for a in _monic(f4, d):
                for b in _monic(f4, n - d):
                    reducible.add(tuple(fq.poly_mul(f4, a, b)))
        irreducible = {tuple(g) for g in _monic(f4, n) if fq.irreducible(f4, g)}
        assert irreducible == {tuple(g) for g in _monic(f4, n)} - reducible
        # Gauss's count of monic irreducibles of degree n over F_4
        assert len(irreducible) == {1: 4, 2: 6, 3: 20, 4: 60}[n]


# Default extension moduli and ring spec strings, computed by the two-pass
# search that preceded the gcd(m, mu) rule; GR(4,2) m = 4, 6, 8, 10 and
# GR(4,3) m = 6 have gcd(m, mu) > 1, so their moduli have F_q coefficients.
DEFAULT_MODULI = [
    ("Z2", 1, "Z2 ext m=1 f=x+1"),
    ("Z4", 5, "Z4 ext m=5 f=x^5+x^2+1"),
    ("Z4", 20, "Z4 ext m=20 f=x^20+x^3+1"),
    ("Z3", 4, "Z3 ext m=4 f=x^4+x+2"),
    ("Z5", 2, "Z5 ext m=2 f=x^2+2"),
    ("Z9", 5, "Z9 ext m=5 f=x^5+2*x+1"),
    ("GR(4,2)", 1, "GR(4,2) ext m=1 f=(1)*x+(1)"),
    ("GR(4,2)", 2, "GR(4,2) ext m=2 f=(1)*x^2+(1)*x+(x)"),
    ("GR(4,2)", 3, "GR(4,2) ext m=3 f=(1)*x^3+(1)*x+(1)"),
    ("GR(4,2)", 4, "GR(4,2) ext m=4 f=(1)*x^4+(1)*x^2+(x)*x+(1)"),
    ("GR(4,2)", 5, "GR(4,2) ext m=5 f=(1)*x^5+(1)*x^2+(1)"),
    ("GR(4,2)", 6, "GR(4,2) ext m=6 f=(1)*x^6+(1)*x^2+(1)*x+(x)"),
    ("GR(4,2)", 8, "GR(4,2) ext m=8 f=(1)*x^8+(1)*x^3+(1)*x+(x)"),
    ("GR(4,2)", 10, "GR(4,2) ext m=10 f=(1)*x^10+(1)*x^3+(x)*x^2+(1 + x)"),
    ("GR(4,3)", 3, "GR(4,3) ext m=3 f=(1)*x^3+(1)*x+(x)"),
    ("GR(4,3)", 4, "GR(4,3) ext m=4 f=(1)*x^4+(1)*x+(1)"),
    ("GR(4,3)", 6, "GR(4,3) ext m=6 f=(1)*x^6+(1)*x+(x)"),
    ("GR(9,2)", 2, "GR(9,2) ext m=2 f=(1)*x^2+(1 + x)"),
    ("GR(9,2)", 3, "GR(9,2) ext m=3 f=(1)*x^3+(2)*x+(1)"),
    ("GR(9,2)", 4, "GR(9,2) ext m=4 f=(1)*x^4+(1 + x)"),
    ("GR(25,2)", 4, "GR(25,2) ext m=4 f=(1)*x^4+(x)"),
    ("GR(2,4)", 2, "GR(2,4) ext m=2 f=(1)*x^2+(1)*x+(x^3)"),
    ("GR(2,4)", 4, "GR(2,4) ext m=4 f=(1)*x^4+(1)*x^2+(x)*x+(x^2)"),
    ("Z4[x]/(x^2)", 4, "Z4[x]/(x^2) ext m=4 f=(1)*x^4+(1)*x+(1)"),
    ("Z4[x]/(x^4+2*x^3+3*x^2+2*x+1)", 2,
     "Z4[x]/(x^4+2*x^3+3*x^2+2*x+1) ext m=2 f=(1)*x^2+(1)*x+(x)"),
    ("Z9[x]/(x^4+2*x^2+1)", 4, "Z9[x]/(x^4+2*x^2+1) ext m=4 f=(1)*x^4+(1 + x)"),
]


@pytest.mark.parametrize("base, m, spec", DEFAULT_MODULI,
                         ids=[f"{b}-{m}" for b, m, _ in DEFAULT_MODULI])
def test_default_extension_moduli(base, m, spec):
    assert ExtensionDesc(parse_local_atom(base), m).spec_string == spec


def test_default_galois_moduli():
    assert galois_ring(2, 2, 1).base.h == (0, 1)  # GR(., 1): h = x
    assert parse_local_atom("GR(9,1)").spec_string == "Z9"
    assert galois_ring(2, 1, 5).base.h == (1, 0, 1, 0, 0, 1)
    assert galois_ring(3, 1, 4).base.h == (2, 1, 0, 0, 1)
    assert galois_ring(2, 2, 7).base.h == (1, 1, 0, 0, 0, 0, 0, 1)
    assert list(ChainRing(5, 2, 2).h) == [2, 0, 1]


@st.composite
def fq_matrices(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    code = st.integers(0, field.q - 1)
    mat = [[draw(code) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):  # force dependent rows: a row_j + b row_{i-1}
        if draw(st.booleans()):
            a, b, j = draw(code), draw(code), draw(st.integers(0, i - 1))
            mat[i] = [field.add(field.mul(a, x), field.mul(b, y))
                      for x, y in zip(mat[j], mat[i - 1])]
    return field, np.array(mat, dtype=np.int64).reshape(rows, cols)


def _check_against_oracles(field, mat):
    assert field.matrix_rank(mat) == fq_rank_oracle(field, mat)
    digits, pivots = field.rref(mat)
    rows, oracle_pivots = fq_rref_oracle(field, mat)
    assert pivots == oracle_pivots
    assert digits.shape == (len(rows), mat.shape[1], field.mu)
    assert [[field.encode(d) for d in row] for row in digits] == rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fq_matrices())
def test_rank_and_rref_match_gauss_oracles(case):
    _check_against_oracles(*case)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_and_rref_of_empty_and_dependent_matrices(name):
    field = FIELDS[name]
    _check_against_oracles(field, np.zeros((0, 4), dtype=np.int64))
    rng = np.random.default_rng(3)
    top = rng.integers(0, field.q, size=(2, 5))
    mat = np.concatenate([top, top, np.zeros((1, 5), dtype=np.int64)])
    _check_against_oracles(field, mat)
    assert field.matrix_rank(mat) <= 2


def _trial_factor(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] * (n > 1)


def test_factoring_matches_trial_division():
    for n in range(2, 5000):
        assert fq.factor_into_prime_powers(n) == _trial_factor(n)
        pp = _trial_factor(n)
        assert fq.prime_power(n) == (pp[0] if len(pp) == 1 else None)
    big = [(1009, 2), (1013, 1), (1000003, 2), (3000000019, 1)]
    assert fq.factor_into_prime_powers(1009 ** 2 * 1013 * 1000003 ** 2 * 3000000019) == big
    assert fq.factor_into_prime_powers((2 ** 31 - 1) ** 2) == [(2 ** 31 - 1, 2)]
    assert fq.prime_power(3 ** 40) == (3, 40)
    assert fq.prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    assert fq.prime_power((2 ** 31 - 1) * (2 ** 31 + 11)) is None
    assert fq.prime_power(1) is None and fq.prime_power(0) is None


@pytest.mark.filterwarnings("ignore:ring of size")
@pytest.mark.parametrize("call", [
    lambda: fq.prime_power(10 ** 12 + 39),
    lambda: decompose_ring("Z1000000000000037"),
    lambda: decompose_ring(f"Z{3000000019 * 3000000037}"),
    lambda: parse_ring_spec(f"Z{3000000019 * 3000000037} ext m=2"),
], ids=["prime_power", "Z(10^15+37)", "Z(p*q)", "Z(p*q)-ext"])
def test_large_moduli_parse_or_refuse_in_bounded_time(call):
    start = time.perf_counter()
    try:
        call()
    except errors.LrpcError:
        pass
    assert time.perf_counter() - start < 1.0


def test_rank_cap_refuses_before_building(rxi):
    big = 10 ** 6
    with pytest.raises(errors.UnsupportedRing):
        ExtensionDesc(Zmod(4), big)
    with pytest.raises(errors.UnsupportedRing):
        ExtensionDesc(rxi, MAX_RANK // rxi.D + 1)
    with pytest.raises(errors.UnsupportedRing):
        galois_ring(2, 2, big)
    with pytest.raises(errors.UnsupportedRing):
        ChainRing(2, 1, big)
    with pytest.raises(errors.UnsupportedRing):
        quotient_ring(2, 2, [0] * (MAX_RANK + 1) + [1])
    with pytest.raises(errors.UnsupportedRing):
        parse_ring_spec(f"Z4 ext m={big}")
    with pytest.raises(errors.UnsupportedRing):
        parse_ring_spec(f"GR(4,{big}) ext m=2")
