import numpy as np
import pytest

from lrpc_rings import ExtensionDesc, Zmod, galois_ring, quotient_ring


@pytest.fixture(scope="session")
def z4():
    return Zmod(4)


@pytest.fixture(scope="session")
def z9():
    return Zmod(9)


@pytest.fixture(scope="session")
def z8():
    return Zmod(8)


@pytest.fixture(scope="session")
def rxi():
    """Z4[x]/(x^2), the running local-ring example."""
    return quotient_ring(2, 2, [0, 0, 1])


@pytest.fixture(scope="session")
def gr42():
    return galois_ring(2, 2, 2)


@pytest.fixture(scope="session")
def s5(z4):
    """Z4[t]/(t^5+t^2+1), the worked-example extension."""
    return ExtensionDesc(z4, 5, f=[1, 0, 1, 0, 0, 1])


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def schoolbook_ext_mul(ext, a, b):
    """Oracle: polynomial multiplication over R followed by long division
    by the extension modulus (independent of the structure tensor)."""
    ring = ext.base
    m = ext.m
    av = ext.vec_rep(np.asarray(a))
    bv = ext.vec_rep(np.asarray(b))
    conv = np.zeros((2 * m - 1 if m > 1 else 1, ring.D), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            conv[i + j] = ring.add(conv[i + j], ring.mul(av[i], bv[j]))
    for deg in range(conv.shape[0] - 1, m - 1, -1):
        c = conv[deg].copy()
        if not c.any():
            continue
        conv[deg] = 0
        red = ring.mul(c[None, :], ext.f[:m])
        conv[deg - m:deg] = (conv[deg - m:deg] - red) % ring.char
    return ext.unrep(conv[:m] % ring.char)


def brute_solution_set(ring, a, b):
    """All x with A x = b by exhaustive enumeration (vectorized)."""
    elems = ring.enumerate_elements()
    n = a.shape[1]
    idx = np.indices([len(elems)] * n).reshape(n, -1).T
    xs = elems[idx]
    prod = ring.mul(a[None, :, :, :], xs[:, None, :, :])
    out = prod.sum(axis=2) % ring.char
    ok = (out == b[None]).all(axis=(1, 2))
    return {x.tobytes() for x in xs[ok]}


def gauss_inverse_oracle(arith, m):
    """Oracle: inverse by row operations applied to M and to I separately,
    column by column with the topmost unit pivot (the loop that preceded
    modlin.gauss_inverse's single pass over (M | I))."""
    a = np.asarray(m, dtype=np.int64) % arith.char
    k = a.shape[0]
    inv = np.zeros_like(a)
    inv[np.arange(k), np.arange(k)] = arith.one
    for col in range(k):
        piv = col + int(np.nonzero(arith.is_unit(a[col:, col]))[0][0])
        a[[col, piv]] = a[[piv, col]]
        inv[[col, piv]] = inv[[piv, col]]
        ui = arith.inverse(a[col, col].copy())
        a[col] = arith.mul(a[col], ui)
        inv[col] = arith.mul(inv[col], ui)
        coefs = a[:, col].copy()
        coefs[col] = 0
        a = (a - arith.mul(coefs[:, None, :], a[col][None, :, :])) % arith.char
        inv = (inv - arith.mul(coefs[:, None, :], inv[col][None, :, :])) % arith.char
    return inv


def fq_rank_oracle(field, mat):
    """Oracle: rank over F_q by Gauss elimination one element at a time in
    the field's own arithmetic (the loop that preceded Fq.matrix_rank's
    reduction over F_p)."""
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][c])
        m[rank] = [field.mul(inv, v) for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(v, field.mul(f, u)) for v, u in zip(m[i], m[rank])]
        rank += 1
    return rank


def fq_rref_oracle(field, mat):
    """Oracle: RREF over F_q as (rows of codes, pivot columns), by the same
    element-by-element elimination as :func:`fq_rank_oracle`."""
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(v, field.mul(f, u)) for v, u in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots
