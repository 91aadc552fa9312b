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


def local_ring_oracle(ring):
    """Oracle: the checks a local ring's construction does not run.  The
    structure tensor has the identity as basis element 0 and is
    commutative and associative; the residue map is multiplicative and
    onto F_q; and, by enumeration, the elements with an inverse, the
    elements ``is_unit`` accepts and the complement of the ideal generated
    by ``maximal_ideal_gens`` are the same set.  The samplers built on the
    residue map draw from the ideal and from the stated residue classes."""
    t, char = ring.mult_tensor, ring.char
    assert np.array_equal(t[0], np.eye(ring.D, dtype=np.int64))
    assert np.array_equal(t, np.swapaxes(t, 0, 1))
    assert np.array_equal(np.einsum("abe,eck->abck", t, t) % char,
                          np.einsum("bce,aek->abck", t, t) % char)
    elems = ring.enumerate_elements()
    codes = ring.residue_codes(elems)
    assert sorted(set(codes.tolist())) == list(range(ring.q))
    field = ring.residue_field
    table = np.array([[field.mul(a, b) for b in range(ring.q)] for a in range(ring.q)])
    prods = ring.mul(elems[:, None, :], elems[None, :, :])
    assert np.array_equal(ring.residue_codes(prods), table[codes[:, None], codes[None, :]])
    invertible = (prods == ring.one).all(axis=-1).any(axis=1)
    assert np.array_equal(ring.is_unit(elems), invertible)
    ideal = np.zeros((1, ring.D), dtype=np.int64)
    for g in ring.maximal_ideal_gens:
        scaled = ring.mul(elems, g[None, :])
        ideal = np.unique((ideal[None, :, :] + scaled[:, None, :]).reshape(-1, ring.D)
                          % char, axis=0)
    in_ideal = np.isin(elems @ char ** np.arange(ring.D), ideal @ char ** np.arange(ring.D))
    assert np.array_equal(in_ideal, ~invertible)
    rng = np.random.default_rng(0)
    assert not ring.is_unit(ring.rand_ideal(rng, (64,))).any()
    digits = rng.integers(0, ring.p, size=(64, ring.mu))
    assert np.array_equal(ring.residue(ring.rand_with_residue(rng, digits)), digits)


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


def unit_pivot_factor_oracle(arith, a):
    """Oracle: forward elimination with unit pivots (leftmost unit column,
    then topmost unit row), the loop that preceded the Gauss-Jordan
    modlin.unit_pivot_factor.  Returns (T, perm, r): T = [[T1, T2], [0, T3]]
    with T1 upper uni-triangular of size r and no unit in T3, equal to
    A[:, perm] up to invertible row operations."""
    t = np.asarray(a, dtype=np.int64) % arith.char
    s, n = t.shape[0], t.shape[1]
    perm = np.arange(n)
    h = 0
    while h < s and h < n:
        units = arith.is_unit(t[h:, h:])
        unit_cols = np.nonzero(units.any(axis=0))[0]
        if unit_cols.size == 0:
            break
        col = h + int(unit_cols[0])
        row = h + int(np.argmax(units[:, unit_cols[0]]))
        t[[h, row]] = t[[row, h]]
        t[:, [h, col]] = t[:, [col, h]]
        perm[[h, col]] = perm[[col, h]]
        t[h] = arith.mul(t[h], arith.inverse(t[h, h].copy()))
        coefs = t[h + 1:, h].copy()
        t[h + 1:] = (t[h + 1:] - arith.mul(coefs[:, None, :], t[h][None, :, :])) % arith.char
        h += 1
    return t, perm, h


def unit_pivot_loop_oracle(arith, a, ncols=None):
    """Oracle: modlin.unit_pivot_factor's per-pivot loop over any local
    arithmetic, with ``is_unit``, a pivot ``inverse`` and ``mul`` per pivot
    (the loop that ran over every ring with residue field F_2 before the
    residue-first elimination, and over larger residue fields at D > 1
    before the deferred-inverse elimination; Z_char with odd p still runs
    it on plain integer arrays).
    Returns (W, perm, r) exactly as the library does."""
    char = arith.char
    w = np.asarray(a, dtype=np.int64) % char
    s, n = w.shape[0], w.shape[1] if ncols is None else ncols
    perm = np.arange(w.shape[1])
    h = 0
    while h < s and h < n:
        units = arith.is_unit(w[h:, h:n])
        unit_cols = units.any(axis=0)
        c = int(unit_cols.argmax())
        if not unit_cols[c]:
            break
        col, row = h + c, h + int(units[:, c].argmax())
        w[[h, row]] = w[[row, h]]
        w[:, [h, col]] = w[:, [col, h]]
        perm[[h, col]] = perm[[col, h]]
        w[h, h:] = arith.mul(w[h, h:], arith.inverse(w[h, h].copy()))
        coefs = w[:, h].copy()
        coefs[h] = 0
        w[:, h:] = (w[:, h:] - arith.mul(coefs[:, None, :], w[h, h:][None, :, :])) % char
        h += 1
    return w, perm, h


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


def module_rank_oracle(n_mod):
    """Oracle: minimal number of generators by greedy elimination (last
    first), the scan that preceded modlin.module_rank's counting.  A
    generator g is redundant iff it lies in the module generated by the
    remaining generators together with m*N; over a local ring the scan
    yields the rank regardless of elimination order."""
    from lrpc_rings import Submodule
    ring = n_mod.ring
    gens = n_mod.reduced_gens()
    if gens.shape[0] == 0:
        return 0
    m_n = [ring.mul(g, mg[None, :])
           for mg in ring.maximal_ideal_gens for g in gens]
    m_n = np.array(m_n, dtype=np.int64).reshape(-1, n_mod.ambient, ring.D)
    keep = list(range(gens.shape[0]))
    for idx in reversed(range(gens.shape[0])):
        others = [gens[i] for i in keep if i != idx]
        span = Submodule(ring, n_mod.ambient,
                         np.array(others + list(m_n), dtype=np.int64).reshape(
                             -1, n_mod.ambient, ring.D))
        if span.contains(gens[idx]):
            keep.remove(idx)
    return len(keep)


def square_property_oracle(ext, f_mod):
    """Oracle: the square-property check that preceded modlin's reading of
    1's coordinates off F's Jordan form.  It solves for them in a second
    module, ranks F^2 by the greedy scan, and checks that the shortcut
    frk(F^2) = l(l+1)/2 never contradicts the witness search.  Returns
    (has, suitable_basis, beta2, i0); raises OneNotInModule like the
    library."""
    from lrpc_rings import (Submodule, errors, free_module_test, free_rank,
                            general_intersection, module_product)
    from lrpc_rings.modlin import scale_module
    ring = ext.base
    one_vec = ext.vec_rep(ext.one)
    if not f_mod.contains(one_vec):
        raise errors.OneNotInModule("the module does not contain 1")
    lam, is_free = free_module_test(f_mod)
    f2 = module_product(ext, f_mod, f_mod)
    beta2 = module_rank_oracle(f2)
    if not is_free:
        return False, None, beta2, None
    basis_vecs = f_mod.basis()
    coeffs = Submodule(ring, ext.m, basis_vecs).coefficients_of(one_vec)
    unit_idx = next(i for i in range(lam)
                    if np.atleast_1d(ring.is_unit(coeffs[i]))[0])
    order = [unit_idx] + [i for i in range(lam) if i != unit_idx]
    basis = np.array([ext.one] + [ext.unrep(basis_vecs[i]) for i in order[1:]],
                     dtype=np.int64)
    if lam == 1:
        return True, basis, beta2, None
    shortcut = free_rank(f2) == lam * (lam + 1) // 2
    f_prime = Submodule(ring, ext.m, ext.vec_rep(basis[1:]))
    witness = None
    for i0 in range(2, lam + 1):
        scaled = scale_module(ext, f_prime, basis[i0 - 1])
        if general_intersection(f_mod, scaled).is_zero():
            witness = i0
            break
    assert not (shortcut and witness is None), "shortcut without a witness"
    if witness is None:
        return False, None, beta2, None
    return True, basis, beta2, witness


def recover_factor_oracle(ext, ab_mod, suitable_basis):
    """Oracle: AB intersected with b^-1 AB for every suitable-basis element
    b after the first, one explicit inverse and one intersection at a time
    (the loop that preceded modlin.recover_factor's single
    intersect_preimages)."""
    from lrpc_rings import (free_module_test, general_intersection,
                            intersect_with_free)
    from lrpc_rings.modlin import scale_module
    result = ab_mod
    for b in suitable_basis[1:]:
        scaled = scale_module(ext, ab_mod, ext.inverse(b))
        if free_module_test(scaled)[1]:
            result = intersect_with_free(result, scaled)
        else:
            result = general_intersection(result, scaled)
    return result



def erasure_decode_oracle(code, basis, synd):
    """Oracle: lrpc.erasure_decode as it ran before it eliminated the
    lambda t' product rows.  It reduces the m x (lambda t' + m) matrix
    (U^T | I_m) by column_jordan to T with U T = (I | 0) and reads the
    coordinates of the syndrome off V T.  Raises RankDeficient and
    NoSolution where erasure_decode does."""
    from lrpc_rings import errors
    from lrpc_rings.modlin import column_jordan
    ext, ring = code.ext, code.ext.base
    n, k, lam = code.params.n, code.params.k, code.params.lam
    t_p = basis.shape[0]
    prods = ext.mul(code.F_basis[:, None, :], basis[None, :, :])
    t_full = column_jordan(ring, ext.vec_rep(prods.reshape(lam * t_p, ext.D)),
                           exc=errors.RankDeficient)
    vt = ring.matmul(ext.vec_rep(synd), t_full)
    if vt[:, lam * t_p:].any():
        raise errors.NoSolution("syndrome lies outside the support-product module")
    pb = ring.matmul(code._P, vt[:, :lam * t_p].reshape((n - k) * lam, t_p, ring.D))
    if pb[n:].any():
        raise errors.NoSolution("expanded system is inconsistent for this support")
    vec = ring.mul(pb[:n, :, None, :], ext.vec_rep(basis)[None, :, :, :])
    return ext.unrep(vec.sum(axis=1) % ext.char)


def decode_local_oracle(code, received):
    """Oracle: lrpc.decode_local as it ran before the decoder worked through
    the LRPC structure.  The syndrome is the dense ext.matmul r H^T; E' is
    the Submodule that intersect_preimages returns, tested by
    free_module_test and eliminated for its Jordan basis; and the erasure
    step is :func:`erasure_decode_oracle`.  Returns the decoded word or a
    DecodingFailure, as decode_local does."""
    from lrpc_rings import DecodingFailure, errors, free_module_test
    from lrpc_rings.modlin import intersect_preimages
    ext, lam = code.ext, code.params.lam

    def synd(v):
        return ext.matmul(v[None], np.swapaxes(code.H, 0, 1))[0]

    r = np.asarray(received, dtype=np.int64) % ext.char
    s = synd(r)
    if not s.any():
        return r
    s_sup = ext.support(s)
    nu, s_free = free_module_test(s_sup)
    if not s_free:
        return DecodingFailure(5)
    if nu % lam:
        return DecodingFailure(8)
    e_prime = intersect_preimages(ext, s_sup, code.F_basis[1:])
    r_e, e_free = free_module_test(e_prime)
    if not e_free:
        return DecodingFailure(14)
    if r_e != nu // lam:
        return DecodingFailure(16)
    try:
        err = erasure_decode_oracle(code, ext.unrep(e_prime.basis()), s)
    except errors.RankDeficient:
        return DecodingFailure(16)
    except errors.NoSolution:
        return DecodingFailure(18)
    assert np.array_equal(synd(err), s)
    return (r - err) % ext.char
