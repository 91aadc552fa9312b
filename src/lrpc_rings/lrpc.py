"""Low-rank parity-check codes over the Galois extension of a local ring.

A code is given by a parity-check matrix H over S whose entries all lie in
a small free module F of rank lambda (with a suitable basis f_1 = 1, ...,
f_lambda).  Decoding recovers the error support from the syndrome support:
scale the syndrome support by the basis inverses, intersect, then solve
the erasure problem on the recovered support.  The decoder costs
O(lambda * gamma^4 * m * n * max(n^2, m^2)) base-ring operations.
:func:`decode_local` decodes one word; :func:`decode_batch` decodes a
stack of words of one code with each stage run once for the stack, and
returns what decode_local returns for each word.

Vectors over S are numpy arrays of shape (n, D_S); matrices (r, c, D_S);
a stack of words (B, n, D_S).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (BadRank, ExtensionMismatch, GenerationFailed,
                     NoInvertibleMinor, NoSolution, NotFree, NotInF,
                     ParseError, RankDeficient)
from .extension import ExtensionDesc
from .modlin import (Submodule, _free_complement, _meet_matrix, _preimage_meet,
                     _unpermuted_rows, _with_identity, column_jordan,
                     free_module_test, sample_free_submodule,
                     square_property_check, unit_pivot_factor)

SERIAL_HEADER = "lrpc-ring/1"
GENERATION_ATTEMPTS = 1000  # draws of F, of each row of H, and of H itself
ERROR_ATTEMPTS = 100  # coefficient matrices per sampled error


@dataclass(frozen=True)
class CodeParams:
    """Code parameters; lambda is spelled lam.  The design error rank t_max
    must satisfy the decoder's success-bound hypotheses for the chosen m."""

    n: int
    k: int
    lam: int
    t_max: int

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise GenerationFailed("need 0 < k < n")
        if self.lam < 1 or self.t_max < 0:
            raise GenerationFailed("need lambda >= 1 and t_max >= 0")
        if self.lam * (self.n - self.k) < self.n:
            raise GenerationFailed(
                "unique decoding requires lambda >= n / (n - k)")

    def validate_for_extension(self, m: int):
        if self.t_max * self.lam * (self.lam + 1) // 2 >= m:
            raise GenerationFailed("need t_max * lambda (lambda+1) / 2 < m")
        if self.t_max * self.lam >= self.n - self.k + 1:
            raise GenerationFailed("need t_max * lambda < n - k + 1")


class DecodingFailure:
    """Structured decoding failure, tagged with the failing decoder line
    (5: syndrome support not free, 8: rank not divisible by lambda,
    14: intersection not free, 16: rank or product-rank mismatch,
    18: erasure decoding failed)."""

    __slots__ = ("line", "detail")

    def __init__(self, line: int, detail: str = ""):
        self.line = line
        self.detail = detail

    def __repr__(self):
        return f"DecodingFailure(line={self.line}, {self.detail!r})"


@dataclass
class DecoderState:
    """Intermediate decoder quantities, for auditing and tests."""

    syndrome: np.ndarray
    syndrome_support: Optional[Submodule] = None
    nu: Optional[int] = None
    t_prime: Optional[int] = None
    scaled_supports: Optional[list] = None
    error_support: Optional[Submodule] = None
    error: Optional[np.ndarray] = None


class LrpcCode:
    """An LRPC code: parity-check matrix, support-module basis (its
    inverses ``F_inv`` are computed on first read), expanded matrix H_ext,
    and encoder/decoder precomputations: the column solver P, the Jordan
    form of H over S (read by the flags and the generator), the generator
    G, the Z_char matrices of m -> m G over S and of x -> x H_ext^T over R
    (see TensorAlgebra.right_map), and the multiplication maps of
    f_1 .. f_lambda stacked into one (lambda D_S, D_S) matrix, which the
    syndrome applies to H_ext r.  Immutable after construction.

    Each rank condition is tested once, where its precomputation is built,
    and both raise NoInvertibleMinor: H_ext has full column rank (unique
    decoding) iff the column solver P exists, and H has full free row rank
    over S iff its Jordan form has n - k pivots.  Every code that
    constructs is therefore uniquely decodable.  ``flags``, when given, is
    trusted for the other three properties."""

    def __init__(self, ext: ExtensionDesc, params: CodeParams, h_matrix,
                 f_basis, flags=None):
        self.ext = ext
        self.params = params
        n, k, lam = params.n, params.k, params.lam
        self.H = np.asarray(h_matrix, dtype=np.int64) % ext.char
        if self.H.shape != (n - k, n, ext.D):
            raise ExtensionMismatch("parity-check matrix has the wrong shape")
        self.F_basis = np.asarray(f_basis, dtype=np.int64) % ext.char
        if self.F_basis.shape != (lam, ext.D) or not np.array_equal(self.F_basis[0], ext.one):
            raise ExtensionMismatch("F basis must have lambda rows starting with 1")
        self.H_ext = build_h_ext(ext, self.H, self.F_basis)
        self._P = self._column_solver()
        self._h_jordan = unit_pivot_factor(ext, self.H)
        if self._h_jordan[2] != n - k:
            raise NoInvertibleMinor("parity-check matrix admits no invertible "
                                    "(n-k) x (n-k) column submatrix")
        self.F_module = Submodule(ext.base, ext.m, ext.vec_rep(self.F_basis))
        self.flags = dict(flags) if flags else self._compute_flags()
        self._G = self._generator_matrix()
        self._h_map = ext.base.right_map(np.swapaxes(self.H_ext, 0, 1))
        self._f_maps = ext.mul_matrices(self.F_basis).astype(ext.dtype).reshape(
            lam * ext.D, ext.D)
        self._encode_map = ext.right_map(self._G)

    @cached_property
    def F_inv(self):
        """Inverses of the F basis elements (units: they have nonzero residue)."""
        ext = self.ext
        return np.array([ext.one] + [ext.inverse(f) for f in self.F_basis[1:]])

    # -- construction helpers --

    def _compute_flags(self):
        ext, ring = self.ext, self.ext.base
        n, k, lam = self.params.n, self.params.k, self.params.lam
        coeff = self._coefficients()
        span_ok = all(
            ring.residue_field.matrix_rank(ring.residue_codes(coeff[i])) == lam
            for i in range(n - k))
        unity = (ring.is_unit(coeff) | ~coeff.any(axis=-1)).all()
        sq = square_property_check(ext, self.F_module).has_square_property
        return {"unique_decoding": True,
                "maximal_row_span": bool(span_ok),
                "unity": bool(unity),
                "square_property": bool(sq)}

    def _coefficients(self):
        """Per-entry expansion coefficients over R, from H_ext: (n-k, n, lam, D_R)."""
        n, k, lam = self.params.n, self.params.k, self.params.lam
        return self.H_ext.reshape(n - k, lam, n, self.ext.base.D).transpose(0, 2, 1, 3)

    def _column_solver(self):
        """P with P H_ext = (I_n; 0).  It exists iff H_ext has an invertible
        n x n row minor (unique decoding); else raises NoInvertibleMinor."""
        ring = self.ext.base
        b = np.swapaxes(self.H_ext, 0, 1)
        try:
            t = column_jordan(ring, b)
        except NotFree:
            raise NoInvertibleMinor("H_ext lacks full column rank over the ring, "
                                    "so the code is not uniquely decodable") from None
        return np.swapaxes(t, 0, 1).copy()

    def _generator_matrix(self):
        """Systematic-style generator G with H G^T = 0 and free rank k.

        The Jordan form of H over S is (I | X) on permuted columns
        (piv | rest), where X = H1^-1 H2 for H1 = H[:, piv], H2 = H[:, rest];
        then G[:, piv] = -X^T and G[:, rest] = I_k.
        """
        ext = self.ext
        n, k = self.params.n, self.params.k
        w, perm, _ = self._h_jordan
        piv, rest = perm[:n - k], perm[n - k:]
        g = np.zeros((k, n, ext.D), dtype=np.int64)
        g[:, piv] = np.swapaxes(ext.neg(w[:, n - k:]), 0, 1)
        g[np.arange(k), rest] = ext.one
        return g

    def __repr__(self):
        p = self.params
        return (f"LrpcCode(n={p.n}, k={p.k}, lambda={p.lam}, "
                f"m={self.ext.m}, ring={self.ext.base.spec_string})")


def build_h_ext(ext: ExtensionDesc, h_matrix, f_basis) -> np.ndarray:
    """Expanded parity-check matrix over R: rows blocked by parity row i,
    inner index ell, holding the coefficients of H[i, j] over the F basis.

    One column reduction B T = (I_lambda | 0) of the basis rows B serves
    every entry: v T = (x | 0) iff v = x B.  Raises NotInF when an entry
    does not decompose over the basis (or the basis rows are dependent).
    """
    ring = ext.base
    h_matrix = np.asarray(h_matrix, dtype=np.int64)
    rows, n = h_matrix.shape[0], h_matrix.shape[1]
    f_basis = np.asarray(f_basis, dtype=np.int64)
    lam = f_basis.shape[0]
    t = column_jordan(ring, ext.vec_rep(f_basis), exc=NotInF)
    vt = ring.matmul(ext.vec_rep(h_matrix.reshape(-1, ext.D)), t)
    outside = vt[:, lam:].reshape(rows * n, -1).any(axis=1)
    if outside.any():
        i, j = divmod(int(np.argmax(outside)), n)
        raise NotInF(f"entry ({i},{j}) does not lie in the module F")
    coeffs = vt[:, :lam].reshape(rows, n, lam, ring.D)
    return coeffs.transpose(0, 2, 1, 3).reshape(rows * lam, n, ring.D)


def generate_code(params: CodeParams, ext: ExtensionDesc, rng) -> LrpcCode:
    """Sample an LRPC code with the unique-decoding, maximal-row-span,
    unity and square properties, by rejection.

    F is drawn as a free rank-lambda module containing 1 and redrawn until
    the square-property check passes; H coefficients are drawn from
    R* union {0} (unity), rows are redrawn until they span F, and the whole
    matrix is redrawn while LrpcCode refuses it (NoInvertibleMinor: H_ext
    lacks full column rank over R or H full free row rank over S).
    """
    ring = ext.base
    n, k, lam = params.n, params.k, params.lam
    params.validate_for_extension(ext.m)
    report = None
    for _ in range(GENERATION_ATTEMPTS):
        gens = np.concatenate([ext.one[None, :], ext.rand(rng, (lam - 1,))], axis=0)
        f_sub = Submodule(ring, ext.m, ext.vec_rep(gens))
        if free_module_test(f_sub) != (lam, True):
            continue
        rep = square_property_check(ext, f_sub)
        if rep.has_square_property:
            report = rep
            break
    if report is None:
        raise GenerationFailed("could not sample a support module with the "
                               "square property")
    f_basis = report.suitable_basis

    for _ in range(GENERATION_ATTEMPTS):
        coeff = np.zeros((n - k, n, lam, ring.D), dtype=np.int64)
        for i in range(n - k):
            for _ in range(GENERATION_ATTEMPTS):
                row = ring.rand_unit_or_zero(rng, (n, lam))
                codes = ring.residue_codes(row)
                if ring.residue_field.matrix_rank(codes) == lam:
                    coeff[i] = row
                    break
            else:  # pragma: no cover
                raise GenerationFailed("could not sample a parity-check row "
                                       "whose coefficients span F")
        h_matrix = np.zeros((n - k, n, ext.D), dtype=np.int64)
        for ell in range(lam):
            h_matrix = (h_matrix + ext.scalar_mul(coeff[:, :, ell, :],
                                                  f_basis[ell])) % ext.char
        flags = {"unique_decoding": True, "maximal_row_span": True,
                 "unity": True, "square_property": True}
        try:
            return LrpcCode(ext, params, h_matrix, f_basis, flags)
        except NoInvertibleMinor:
            continue
    raise GenerationFailed("retry budget exhausted while sampling H; "
                           "parameters are likely infeasible")


# ---------------------------------------------------------------------------
# encoding and syndromes


def encode(code: LrpcCode, msg) -> np.ndarray:
    """Codeword msg . G of the message (length-k vector over S), or the
    codewords of a stack of messages (..., k, D_S)."""
    ext = code.ext
    msg = _as_svector(ext, msg, code.params.k)
    # one (1, k D_S) row per message: a stack makes vector-matrix products,
    # not one matrix product large enough for OpenBLAS to spread over threads
    return ext.apply_right(msg[..., None, :, :], code._encode_map)[..., 0, :, :]


def syndrome(code: LrpcCode, received, *, canonical: bool = False) -> np.ndarray:
    """s = r H^T over S, through the LRPC structure: H = sum_ell f_ell H_ell
    for the R-matrices H_ell held in H_ext, so s = sum_ell f_ell (H_ell r).
    H_ext r is one product over Z_char per theta-coordinate of r, through
    the R-map of H_ext^T (``_h_map``, see TensorAlgebra.right_map); the sum
    over ell is one product with the multiplication maps of f_1 .. f_lambda
    stacked (``_f_maps``).  ``received`` may be one word or a stack of words
    (..., n, D_S); ``canonical`` says that it is already an array of
    canonical residues, which skips its reduction."""
    ext = code.ext
    n, k = code.params.n, code.params.k
    r = received if canonical else _as_svector(ext, received, n)
    h_r = ext.base.apply_right(ext.vec_rep(r).swapaxes(-3, -2), code._h_map)
    h_r = h_r.swapaxes(-3, -2)  # row (i, ell): H_ell r
    h_r = h_r.reshape(r.shape[:-2] + (n - k, code._f_maps.shape[0]))
    return ext._dot(h_r, code._f_maps)


def _as_svector(ext, v, length):
    """v as canonical residues: a vector of ``length`` elements of S, or an
    array of stacked vectors (..., length, D_S)."""
    if isinstance(v, np.ndarray) and v.shape[-2:] == (length, ext.D):
        return v % ext.char
    rows = [ext.coerce(x) for x in v]
    if len(rows) != length:
        raise ExtensionMismatch(f"expected a vector of length {length}")
    return np.array(rows, dtype=np.int64) % ext.char


# ---------------------------------------------------------------------------
# erasure decoding


def erasure_decode(code: LrpcCode, support_basis, synd, *,
                   canonical: bool = False) -> np.ndarray:
    """Recover the unique error with the given free support from a syndrome.

    Expresses each syndrome entry over the product basis {f_ell eps_u}, then
    solves H_ext E = B with the precomputed column solver.  The nu = lambda t
    products are the rows of U (nu x m over R); one unit-pivot elimination
    of (U | I_nu) with pivots in U's columns finds nu pivot columns p and
    X = U[:, p]^-1, so the coordinates of a syndrome V = y U are
    y = V[:, p] X.  Raises RankDeficient when fewer than nu pivots exist,
    i.e. when the support violates frk(E F) = lambda * t (the products are
    dependent; the decoder's line 16), and otherwise NoSolution when
    y U != V or the expanded system is inconsistent (wrong support).
    ``canonical`` says that ``synd`` is already an array of canonical
    residues.  Costs O(lambda n max(n^2, m^2)) base-ring operations.
    """
    ext = code.ext
    ring = ext.base
    n, k, lam = code.params.n, code.params.k, code.params.lam
    basis = np.asarray(support_basis, dtype=np.int64).reshape(-1, ext.D)
    t_p = basis.shape[0]
    nu = lam * t_p
    if not canonical:
        synd = _as_svector(ext, synd, n - k)
    if t_p == 0:
        if synd.any():
            raise NoSolution("nonzero syndrome with empty support")
        return np.zeros((n, ext.D), dtype=np.int64)
    prods = ext.mul(code.F_basis[:, None, :], basis[None, :, :])  # (lam, t', D_S)
    u_mat = ext.vec_rep(prods.reshape(nu, ext.D))                 # rows: ell*t' + u
    w, perm, r = unit_pivot_factor(ring, _with_identity(ring, u_mat), ncols=ext.m)
    if r < nu:
        raise RankDeficient("the products f_ell eps_u are not linearly independent")
    v_mat = ext.vec_rep(synd)                                     # (n-k, m, D_R)
    y = ring.matmul(v_mat[:, perm[:nu]], w[:, ext.m:])
    if not np.array_equal(ring.matmul(y, u_mat), v_mat):
        raise NoSolution("syndrome lies outside the support-product module")
    b_mat = y.reshape((n - k) * lam, t_p, ring.D)
    pb = ring.matmul(code._P, b_mat)
    if pb[n:].any():
        raise NoSolution("expanded system is inconsistent for this support")
    e_coeff = pb[:n]                                              # (n, t', D_R)
    vec = ring.mul(e_coeff[:, :, None, :], ext.vec_rep(basis)[None, :, :, :])
    return ext.unrep(vec.sum(axis=1) % ext.char)


# ---------------------------------------------------------------------------
# full decoding


def decode_local(code: LrpcCode, received, with_state: bool = False):
    """Rank-syndrome decoding over a local ring.

    Follows the decoder line by line: syndrome, syndrome support and its
    freeness (line 5), divisibility of its free rank by lambda (line 8),
    the candidate support E' = S cap f_2^-1 S cap ... cap f_lambda^-1 S
    (lines 11-13), freeness and rank checks of E' (lines 14-17), erasure
    decoding (line 18).  E' comes from S's cached Jordan form by one left
    kernel K (:func:`modlin.intersect_preimages`); the scaled supports
    f_i^-1 S are built only for the state, and never eliminated.  When K
    comes from the unit-pivot kernel, K B is already a basis of E' (B S's
    basis), so E' is free of rank rows(K) with no further elimination;
    only a Howell-fallback K has E' tested by :func:`free_module_test`.
    Line 16's product condition frk(E'F) = nu is tested once, by the
    elimination of the products f_ell eps_u inside :func:`erasure_decode`:
    its RankDeficient is line 16, its NoSolution line 18.  The recovered
    error is re-verified against the syndrome before the codeword is
    returned; the decoder never returns a non-codeword.
    """
    ext = code.ext
    lam = code.params.lam
    r = _as_svector(ext, received, code.params.n)
    s = syndrome(code, r, canonical=True)
    state = DecoderState(syndrome=s)

    def fail(line, detail):
        failure = DecodingFailure(line, detail)
        return (failure, state) if with_state else failure

    if not s.any():
        state.error = np.zeros_like(r)
        return (r, state) if with_state else r
    s_sup = ext.support(s)
    state.syndrome_support = s_sup
    nu, s_free = free_module_test(s_sup)
    if not s_free:
        return fail(5, "syndrome support is not a free module")
    state.nu = nu
    if nu % lam:
        return fail(8, f"lambda does not divide frk(S) = {nu}")
    t_p = nu // lam
    state.t_prime = t_p
    if with_state:
        scaled = ext.mul(code.F_inv[1:, None, :], ext.unrep(s_sup.basis())[None, :, :])
        state.scaled_supports = [s_sup] + [Submodule(ext.base, ext.m, ext.vec_rep(g))
                                           for g in scaled]
    e_basis, e_free = _preimage_meet(ext, s_sup, code.F_basis[1:])
    e_prime = Submodule(ext.base, ext.m, e_basis)
    state.error_support = e_prime
    r_e = e_basis.shape[0]
    if not e_free:
        r_e, e_free = free_module_test(e_prime)
        if not e_free:
            return fail(14, "intersected support is not a free module")
        e_basis = e_prime.basis()
    if r_e != t_p:
        return fail(16, f"frk of the intersected support is {r_e}, expected {t_p}")
    try:
        err = erasure_decode(code, ext.unrep(e_basis), s, canonical=True)
    except RankDeficient:
        return fail(16, "product of candidate support with F has wrong free rank")
    except NoSolution as exc:
        return fail(18, str(exc))
    if not np.array_equal(syndrome(code, err, canonical=True), s):  # pragma: no cover
        return fail(18, "recovered error does not reproduce the syndrome")
    state.error = err
    out = (r - err) % ext.char
    return (out, state) if with_state else out


def decode_batch(code: LrpcCode, words) -> list:
    """:func:`decode_local` of every word of a stack (B, n, D_S): the list of
    the B results, each a word or a DecodingFailure equal to decode_local's,
    ``detail`` included.

    Decoding draws no random numbers, so every stage runs once for the
    whole stack: the syndromes; the Jordan forms of their supports (lines 5
    and 8), one stacked :func:`modlin.unit_pivot_factor`; then, for each
    group of words with the same frk(S) = nu, the preimage meet of lines
    11-13 and the line-14/16 checks (:func:`_decode_group`); the erasure
    step (:func:`_erase_stack`); and the check that each recovered error
    reproduces its syndrome.  A word whose left kernel is not free, which
    decode_local finishes through the Howell form, is decoded by
    decode_local itself.  Only the words are reduced mod char.
    """
    ext = code.ext
    n, k, lam = code.params.n, code.params.k, code.params.lam
    words = _as_svector(ext, words, n)
    out = [None] * len(words)
    synd = syndrome(code, words, canonical=True)
    live = synd.reshape(len(words), -1).any(axis=1)
    for i in np.flatnonzero(~live):
        out[i] = words[i]
    live = np.flatnonzero(live)
    w, perm, nu = unit_pivot_factor(ext.base, ext.vec_rep(synd[live]))
    free = ~(w.any(axis=(2, 3)) & (np.arange(n - k) >= nu[:, None])).any(axis=1)
    for i, rank, is_free in zip(live.tolist(), nu.tolist(), free.tolist()):
        if not is_free:
            out[i] = DecodingFailure(5, "syndrome support is not a free module")
        elif rank % lam:
            out[i] = DecodingFailure(8, f"lambda does not divide frk(S) = {rank}")
    keep = free & (nu % lam == 0)
    for rank in sorted(set(nu[keep].tolist())):
        group = keep & (nu == rank)
        _decode_group(code, words, synd, live[group], w[group], perm[group], rank, out)
    return out


def _decode_group(code, words, synd, idx, w, perm, nu, out):
    """Lines 11-18 of decode_local for the words ``idx`` whose syndrome
    supports are free of rank nu, given by their stacked Jordan forms
    (w, perm); fills their entries of ``out``."""
    ext, ring = code.ext, code.ext.base
    t_p = nu // code.params.lam
    basis = _unpermuted_rows(w, perm, nu)  # (G, nu, m, D_R)
    scalars = code.F_basis[1:]
    free, r_e, kernel = np.ones(len(idx), dtype=bool), np.full(len(idx), nu), None
    if nu < ext.m and len(scalars):  # else E' = S, as in _preimage_meet
        z = _meet_matrix(ext, basis, _free_complement(ring, w, perm, nu), scalars)
        cols = z.shape[-2]
        kernel, _, rk = unit_pivot_factor(ring, _with_identity(ring, z), ncols=cols)
        free = ~(kernel[..., :cols, :].any(axis=(2, 3))
                 & (np.arange(nu) >= rk[:, None])).any(axis=1)
        r_e = nu - rk
    for i, rank, is_free in zip(idx.tolist(), r_e.tolist(), free.tolist()):
        if not is_free:
            out[i] = decode_local(code, words[i])
        elif rank != t_p:
            out[i] = DecodingFailure(16, f"frk of the intersected support is {rank}, "
                                         f"expected {t_p}")
    keep = free & (r_e == t_p)
    if not keep.any():
        return
    idx, basis, s = idx[keep], basis[keep], synd[idx[keep]]
    if kernel is not None:
        basis = ring.matmul(kernel[keep, nu - t_p:, cols:], basis)
    done, err, failures = _erase_stack(code, ext.unrep(basis), s)
    for j, failure in failures.items():
        out[idx[j]] = failure
    idx = idx[done]
    bad = (syndrome(code, err, canonical=True) != s[done]).any(axis=(1, 2))
    decoded = np.subtract(words[idx], err, out=err)
    decoded %= ext.char
    for j, i in enumerate(idx.tolist()):
        if bad[j]:  # pragma: no cover
            out[i] = DecodingFailure(18, "recovered error does not reproduce the syndrome")
        else:
            out[i] = decoded[j]


def _erase_stack(code, basis, synd):
    """:func:`erasure_decode` of a stack of supports with bases basis
    (G, t', D_S), t' >= 1, and canonical syndromes synd (G, n-k, D_S).

    Returns the positions where erasure_decode returns an error, those
    errors, and a dict from the other positions to decode_local's failure
    for them: line 16 for RankDeficient, line 18 with the NoSolution text.
    """
    ext, ring = code.ext, code.ext.base
    n, lam = code.params.n, code.params.lam
    m, (g, t_p) = ext.m, basis.shape[:2]
    nu = lam * t_p
    prods = ext._dot(basis[:, None], code._f_maps.reshape(lam, ext.D, ext.D))  # (G, lam, t', D_S)
    u_mat = ext.vec_rep(prods.reshape(g, nu, ext.D))                  # rows: ell*t' + u
    w, perm, r = unit_pivot_factor(ring, _with_identity(ring, u_mat), ncols=m)
    failures = {j: DecodingFailure(16, "product of candidate support with F has wrong free rank")
                for j in np.flatnonzero(r < nu).tolist()}
    full = np.flatnonzero(r == nu)
    if not len(full):
        return full, np.zeros((0, n, ext.D), dtype=np.int64), failures
    v_mat = ext.vec_rep(synd[full])                                   # (G', n-k, m, D_R)
    y = ring.matmul(np.take_along_axis(v_mat, perm[full, None, :nu, None], axis=2),
                    w[full, :, m:])
    outside = (ring.matmul(y, u_mat[full]) != v_mat).any(axis=(1, 2, 3))
    pb = ring.matmul(code._P, y.reshape(len(full), -1, t_p, ring.D))
    inconsistent = pb[:, n:].any(axis=(1, 2, 3))
    for j, out_j, inc_j in zip(full.tolist(), outside.tolist(), inconsistent.tolist()):
        if out_j:
            failures[j] = DecodingFailure(18, "syndrome lies outside the support-product module")
        elif inc_j:
            failures[j] = DecodingFailure(18, "expanded system is inconsistent for this support")
    done = ~(outside | inconsistent)
    err = ring.matmul(pb[done, :n], ext.vec_rep(basis[full[done]]))
    return full[done], ext.unrep(err), failures


# ---------------------------------------------------------------------------
# error sampling


def sample_error(ext: ExtensionDesc, n: int, t: int, rng) -> np.ndarray:
    """Uniform error vector of length n with free support of rank exactly t.

    Uniform free support via sample_free_submodule, then a uniform
    coefficient matrix rejected until its residue image has full rank,
    which makes the support of the assembled vector exactly the sampled
    module (and the overall distribution uniform).
    """
    if t < 0 or t > min(n, ext.m):
        raise BadRank("error rank must satisfy 0 <= t <= min(n, m)")
    if t == 0:
        return np.zeros((n, ext.D), dtype=np.int64)
    ring = ext.base
    support = sample_free_submodule(ring, ext.m, t, rng)
    basis = ext.unrep(support.gens)  # a basis: its pivot block is the identity
    for _ in range(ERROR_ATTEMPTS):
        c = ring.rand(rng, (n, t))
        if ring.residue_field.matrix_rank(ring.residue_codes(c)) == t:
            vec = ring.mul(c[:, :, None, :], ext.vec_rep(basis)[None, :, :, :])
            return ext.unrep(vec.sum(axis=1) % ext.char)
    raise GenerationFailed("could not sample a full-rank coefficient matrix")


# ---------------------------------------------------------------------------
# serialization


def code_to_text(code: LrpcCode) -> str:
    """Plain-text dump of the code (versioned header + JSON body)."""
    body = {
        "ring": code.ext.base.spec_string,
        "m": code.ext.m,
        "f": code.ext.f.tolist(),
        "n": code.params.n,
        "k": code.params.k,
        "lambda": code.params.lam,
        "t_max": code.params.t_max,
        "H": code.H.tolist(),
        "F_basis": code.F_basis.tolist(),
        "flags": code.flags,
    }
    return SERIAL_HEADER + "\n" + json.dumps(body, sort_keys=True) + "\n"


def code_from_text(text: str) -> LrpcCode:
    """The code dumped by :func:`code_to_text`; raises ParseError when the
    header or the JSON body is malformed, or when the body's ``flags``
    differ from the flags recomputed from H and the F basis."""
    from .specparse import parse_local_atom
    header, _, payload = text.strip().partition("\n")
    if header.strip() != SERIAL_HEADER:
        raise ParseError("missing or unsupported header", 0, SERIAL_HEADER)
    at = len(header) + 1
    try:
        body = json.loads(payload)
        ring_spec, flags = body["ring"], body.get("flags")
        if not isinstance(ring_spec, str) or not isinstance(flags, (dict, type(None))):
            raise TypeError("ring must be a string and flags an object")
        m, n, k, lam, t_max = (int(body[key]) for key in ("m", "n", "k", "lambda", "t_max"))
        f, h_matrix, f_basis = (np.array(body[key], dtype=np.int64)
                                for key in ("f", "H", "F_basis"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, at + exc.pos) from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {SERIAL_HEADER} body: {exc!r}", at) from exc
    ext = ExtensionDesc(parse_local_atom(ring_spec), m, f=f)
    code = LrpcCode(ext, CodeParams(n, k, lam, t_max), h_matrix, f_basis)
    if flags is not None and flags != code.flags:
        raise ParseError(f"flags {flags} differ from the recomputed flags "
                         f"{code.flags}", at)
    return code
