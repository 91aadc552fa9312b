"""Residue fields: F_q arithmetic, polynomials, Rabin test, default moduli,
matrix rank and RREF over F_q, factoring, and the rank cap."""

import itertools
import time
import warnings

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


def test_rank_and_rref_wider_than_a_machine_word():
    """Over F_2 the rows are reduced as packed ints: matrices of 65 to 130
    columns (times mu after the F_p expansion) with a repeated row, a zero
    column at bit 64 and a row whose only nonzero entry lies past bit 64
    match the element-by-element oracles in every field."""
    rng = np.random.default_rng(11)
    for name in sorted(FIELDS):
        field = FIELDS[name]
        for rows, cols in ((3, 65), (5, 70), (12, 130)):
            mat = rng.integers(0, field.q, size=(rows, cols))
            mat[:, 64] = 0
            mat[rows - 1] = mat[0]
            mat[1] = 0
            mat[1, cols - 1] = 1
            _check_against_oracles(field, mat)


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


def test_residue_fields_past_int64_codes_refuse():
    """Residue codes are int64 below q = p^mu: q > 2^63 refuses at both
    entry points, before the modulus search, and for a quotient whose
    residue field is that large; q = 2^63 builds with its largest code
    intact."""
    with pytest.raises(errors.UnsupportedRing):
        galois_ring(2, 1, 64)
    start = time.perf_counter()
    with pytest.raises(errors.UnsupportedRing):
        galois_ring(7, 1, 23)  # the degree-23 modulus search alone takes seconds
    assert time.perf_counter() - start < 1.0
    with pytest.raises(errors.UnsupportedRing):
        parse_ring_spec("GR(2,64) ext m=1")
    start = time.perf_counter()
    with pytest.raises(errors.UnsupportedRing):
        quotient_ring(2, 1, [1, 1, 0, 1, 1] + [0] * 59 + [1])  # x^64+x^4+x^3+x+1
    assert time.perf_counter() - start < 1.0  # degree 64 is factored first
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # valid by construction: no warning
        ring = galois_ring(2, 1, 63)
    assert ring.q == 2 ** 63
    assert int(ring.residue_codes(np.ones(63, dtype=np.int64))) == 2 ** 63 - 1


def test_quotient_residue_field_refusal_names_the_spec():
    """The refusal names the quotient as written, not its Galois subring."""
    with pytest.raises(errors.UnsupportedRing,
                       match=r"^Z2\[x\]/\(x\^64\+x\^4\+x\^3\+x\+1\) has a residue field of size 2\^64"):
        quotient_ring(2, 1, [1, 1, 0, 1, 1] + [0] * 59 + [1])


# the residue fields that code generation ranks stacks over: F_3 (Z3 and
# its extension's coordinates over R), F_3 again for Z9, and F_4 (GR(4,2))
STACK_FIELD_RINGS = ("Z3", "Z9", "GR(4,2)", "Z3 ext m=10")


@pytest.mark.parametrize("spec", STACK_FIELD_RINGS)
def test_stacked_ranks_match_one_call_per_matrix(spec):
    """The rank of every matrix of a stack, and over odd p its RREF and
    pivots from the stacked steps, equal the one-matrix routines', on
    stacks of mixed ranks: random residue matrices, zero matrices, repeated
    and combined rows, tall and wide shapes, stacks of 0, 1, 2 and 17."""
    name, _, m = spec.partition(" ext m=")
    ring = parse_local_atom(name)
    field = ring.residue_field
    rng = np.random.default_rng(sum(map(ord, spec)))
    seen = set()
    for rows, cols in ((10, 2), (3, 10), (12, 10), (5, 5), (1, 7)):
        if m:  # coordinate rows over R of elements of the extension
            cols = int(m)
        for size in (0, 1, 2, 17):
            elems = ring.rand(rng, (size, rows, cols))
            elems[::4] = 0
            elems[1::4, -1] = elems[1::4, 0]
            elems[2::4, :, 0] = ring.p * elems[2::4, :, 0] % ring.char
            codes = ring.residue_codes(elems)
            got = field.matrix_rank(codes)
            assert got.dtype == np.intp and got.shape == (size,)
            want = [field.matrix_rank(c) for c in codes]
            assert got.tolist() == want
            seen.update(want)
            if field.mu == 1 and field.p > 2 and size:
                rref, pivots, rank = fq.unit_pivot_rref(codes % field.p, field.p, field.p,
                                                        codes.shape[2])
                for i, c in enumerate(codes):
                    one, one_pivots = fq.rref_mod_p(c, field.p)
                    assert rank[i] == len(one_pivots)
                    assert np.array_equal(rref[i, :rank[i]], one)
                    assert not rref[i, rank[i]:].any()
                    assert pivots[i, :rank[i]].tolist() == one_pivots
    assert {0, 1, 2} <= seen


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F7", "F4"])
def test_stacked_rref_matches_one_call_per_matrix(name, monkeypatch):
    """rref_mod_p and Fq.rref of a stack give, for each matrix, the RREF and
    pivots of one call on it (and of the element-by-element oracle), with
    rows below the rank 0: stacks of 1, 2 and 16 of 6 x 20, 20 x 6 and 1 x 1
    matrices, with zero, repeated and combined rows.  Each path of the
    dispatch runs: the packed rows over F_2, the stacked steps for odd p at
    every stack size, a stack of one included, and the F_p expansion for
    mu > 1."""
    field = FIELDS.get(name) or fq.Fq(int(name[1:]))
    calls = {"packed": 0, "stacked": 0, "expanded": 0}

    def count(target, key, path):
        f = getattr(target, key)

        def counted(*args):
            calls[path] += path != "expanded" or args[1].ndim == 3  # stacks only
            return f(*args)
        monkeypatch.setattr(target, key, counted)
    count(fq, "_rref_mod_2", "packed")
    count(fq, "unit_pivot_rref", "stacked")
    count(fq.Fq, "expand", "expanded")
    rng = np.random.default_rng(sum(map(ord, name)))
    deficient = set()
    for rows, cols in ((6, 20), (20, 6), (1, 1)):
        for size in (1, 2, 16):
            mats = rng.integers(0, field.q, size=(size, rows, cols))
            mats[3::4] = 0
            mats[1::4, -1] = mats[1::4, 0]
            if rows > 2 and size > 2:  # row 2 is row 0 plus row 1
                mats[2::4, 2] = [[field.add(x, y) for x, y in zip(r0, r1)]
                                 for r0, r1 in mats[2::4, :2]]
            before = dict(calls)
            digits, pivots, rank = field.rref(mats)
            deficient.update((rank < min(rows, cols)).tolist())
            if field.p > 2:
                assert calls["stacked"] > before["stacked"], size
            assert digits.shape == (size, rows, cols, field.mu)
            for i, mat in enumerate(mats):
                one, one_pivots = field.rref(mat)
                want, want_pivots = fq_rref_oracle(field, mat)
                assert one_pivots == want_pivots and rank[i] == len(want)
                assert pivots[i, :rank[i]].tolist() == want_pivots
                assert np.array_equal(digits[i, :rank[i]], one)
                assert [[field.encode(d) for d in row] for row in one] == want
                assert not digits[i, rank[i]:].any()
                if field.mu == 1:
                    got, got_pivots, got_rank = fq.rref_mod_p(mats, field.p)
                    assert np.array_equal(got[i], digits[i, :, :, 0])
                    assert got_pivots[i, :rank[i]].tolist() == want_pivots
                    assert got_rank[i] == rank[i]
    want = {"F2": ["packed"], "F3": ["stacked"], "F5": ["stacked"], "F7": ["stacked"],
            "F4": ["packed", "expanded"]}[name]
    assert all(calls[key] for key in want), calls
    assert deficient == {False, True}
