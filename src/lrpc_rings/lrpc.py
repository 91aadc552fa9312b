"""Low-rank parity-check codes over the Galois extension of a local ring.

A code is given by a parity-check matrix H over S whose entries all lie in
a small free module F of rank lambda (with a suitable basis f_1 = 1, ...,
f_lambda).  Decoding recovers the error support from the syndrome support:
scale the syndrome support by the basis inverses, intersect, then solve
the erasure problem on the recovered support.  The decoder costs
O(lambda * gamma^4 * m * n * max(n^2, m^2)) base-ring operations.

Vectors over S are numpy arrays of shape (n, D_S); matrices (r, c, D_S).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadRank, ExtensionMismatch, GenerationFailed,
                     NoInvertibleMinor, NoSolution, NotInF, RankDeficient)
from .extension import ExtensionDesc
from .modlin import (Submodule, column_jordan, free_module_test, free_rank,
                     intersect_with_free, module_product, row_jordan,
                     sample_free_submodule, square_property_check,
                     unit_pivot_factor)

SERIAL_HEADER = "lrpc-ring/1"


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
    """An LRPC code: parity-check matrix, support-module basis with
    precomputed inverses, expanded matrix H_ext, and encoder/decoder
    precomputations: the column solver P, the generator G, and the Z_char
    matrices of r -> r H^T and m -> m G (see TensorAlgebra.right_map).
    Immutable after construction."""

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
        self.F_inv = np.array([ext.inverse(f) for f in self.F_basis])
        self.F_module = Submodule(ext.base, ext.m, ext.vec_rep(self.F_basis))
        self.H_ext = build_h_ext(ext, self.H, self.F_basis)
        self.flags = dict(flags) if flags else self._compute_flags()
        self._P = self._column_solver()
        self._G = self._generator_matrix()
        self._syndrome_map = ext.right_map(np.swapaxes(self.H, 0, 1))
        self._encode_map = ext.right_map(self._G)

    # -- construction helpers --

    def _compute_flags(self):
        ext, ring = self.ext, self.ext.base
        n, k, lam = self.params.n, self.params.k, self.params.lam
        if unit_pivot_factor(ext, self.H, track_p=False).r != n - k:
            raise GenerationFailed("parity-check matrix must have full free "
                                   "row rank over the extension")
        col_codes = ring.residue_codes(self.H_ext)
        unique = (lam * (n - k) >= n
                  and ring.residue_field.matrix_rank(col_codes) == n)
        coeff = self._coefficients()
        span_ok = all(
            ring.residue_field.matrix_rank(ring.residue_codes(coeff[i])) == lam
            for i in range(n - k))
        unity = all(
            bool(ring.is_unit(coeff[i, j, ell])) or not coeff[i, j, ell].any()
            for i in range(n - k) for j in range(n) for ell in range(lam))
        sq = square_property_check(ext, self.F_module).has_square_property
        return {"unique_decoding": bool(unique),
                "maximal_row_span": bool(span_ok),
                "unity": bool(unity),
                "square_property": bool(sq)}

    def _coefficients(self):
        """Per-entry expansion coefficients over R, from H_ext: (n-k, n, lam, D_R)."""
        n, k, lam = self.params.n, self.params.k, self.params.lam
        return self.H_ext.reshape(n - k, lam, n, self.ext.base.D).transpose(0, 2, 1, 3)

    def _column_solver(self):
        """P with P H_ext = (I_n; 0); exists by the unique-decoding property."""
        ring = self.ext.base
        b = np.swapaxes(self.H_ext, 0, 1)
        t = column_jordan(ring, b, exc=GenerationFailed)
        return np.swapaxes(t, 0, 1).copy()

    def _generator_matrix(self):
        """Systematic-style generator G with H G^T = 0 and free rank k.

        One Gauss-Jordan pass brings H to (I | X) on permuted columns
        (piv | rest), where X = H1^-1 H2 for H1 = H[:, piv], H2 = H[:, rest];
        then G[:, piv] = -X^T and G[:, rest] = I_k.
        """
        ext = self.ext
        n, k = self.params.n, self.params.k
        w, perm, r = row_jordan(ext, self.H)
        if r != n - k:
            raise NoInvertibleMinor("parity-check matrix admits no invertible "
                                    "(n-k) x (n-k) column submatrix")
        piv, rest = perm[:n - k], perm[n - k:]
        g = np.zeros((k, n, ext.D), dtype=np.int64)
        g[:, piv] = np.swapaxes(ext.neg(w[:, n - k:]), 0, 1)
        g[np.arange(k), rest] = ext.one
        chk = ext.matmul(self.H, np.swapaxes(g, 0, 1))
        if chk.any():
            raise GenerationFailed("generator construction failed")  # pragma: no cover
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


def generate_code(params: CodeParams, ext: ExtensionDesc, rng,
                  max_attempts: int = 1000) -> LrpcCode:
    """Sample an LRPC code with the unique-decoding, maximal-row-span,
    unity and square properties, by rejection.

    F is drawn as a free rank-lambda module containing 1 and redrawn until
    the square-property check passes; H coefficients are drawn from
    R* union {0} (unity), rows are redrawn until they span F, and the whole
    matrix is redrawn until it has full free row rank over S and full free
    column rank of H_ext over R.
    """
    ring = ext.base
    n, k, lam = params.n, params.k, params.lam
    params.validate_for_extension(ext.m)
    report = None
    for _ in range(max_attempts):
        gens = np.concatenate([ext.one[None, :], ext.rand(rng, (lam - 1,))], axis=0)
        f_sub = Submodule(ring, ext.m, ext.vec_rep(gens))
        if free_rank(f_sub) != lam:
            continue
        rep = square_property_check(ext, f_sub)
        if rep.has_square_property:
            report = rep
            break
    if report is None:
        raise GenerationFailed("could not sample a support module with the "
                               "square property")
    f_basis = report.suitable_basis

    for _ in range(max_attempts):
        coeff = np.zeros((n - k, n, lam, ring.D), dtype=np.int64)
        ok = True
        for i in range(n - k):
            for _ in range(max_attempts):
                row = ring.rand_unit_or_zero(rng, (n, lam))
                codes = ring.residue_codes(row)
                if ring.residue_field.matrix_rank(codes) == lam:
                    coeff[i] = row
                    break
            else:  # pragma: no cover
                ok = False
                break
        if not ok:  # pragma: no cover
            continue
        h_matrix = np.zeros((n - k, n, ext.D), dtype=np.int64)
        for ell in range(lam):
            h_matrix = (h_matrix + ext.scalar_mul(coeff[:, :, ell, :],
                                                  f_basis[ell])) % ext.char
        h_ext = coeff.transpose(0, 2, 1, 3).reshape((n - k) * lam, n, ring.D)
        col_codes = ring.residue_codes(h_ext)
        if ring.residue_field.matrix_rank(col_codes) != n:
            continue
        flags = {"unique_decoding": True, "maximal_row_span": True,
                 "unity": True, "square_property": True}
        try:
            return LrpcCode(ext, params, h_matrix, f_basis, flags)
        except NoInvertibleMinor:  # H lacks full free row rank over S
            continue
    raise GenerationFailed("retry budget exhausted while sampling H; "
                           "parameters are likely infeasible")


# ---------------------------------------------------------------------------
# encoding and syndromes


def encode(code: LrpcCode, msg) -> np.ndarray:
    """Codeword msg . G of the message (length-k vector over S)."""
    ext = code.ext
    msg = _as_svector(ext, msg, code.params.k)
    return ext.apply_right(msg, code._encode_map)


def syndrome(code: LrpcCode, received) -> np.ndarray:
    """s = r H^T over S."""
    ext = code.ext
    r = _as_svector(ext, received, code.params.n)
    return ext.apply_right(r, code._syndrome_map)


def _as_svector(ext, v, length):
    if isinstance(v, np.ndarray) and v.shape == (length, ext.D):
        return v % ext.char
    rows = [ext.coerce(x) for x in v]
    if len(rows) != length:
        raise ExtensionMismatch(f"expected a vector of length {length}")
    return np.array(rows, dtype=np.int64) % ext.char


# ---------------------------------------------------------------------------
# erasure decoding


def erasure_decode(code: LrpcCode, support_basis, synd) -> np.ndarray:
    """Recover the unique error with the given free support from a syndrome.

    Expresses each syndrome entry over the product basis {eps_u f_ell}
    (coordinates found by inverting the basis-product matrix U on the
    right), then solves H_ext E = B with the precomputed column solver.
    Raises NoSolution when the syndrome is not expressible (wrong support)
    and RankDeficient when the support violates frk(E F) = lambda * t.
    Costs O(lambda n max(n^2, m^2)) base-ring operations.
    """
    ext = code.ext
    ring = ext.base
    n, k, lam = code.params.n, code.params.k, code.params.lam
    basis = np.asarray(support_basis, dtype=np.int64).reshape(-1, ext.D)
    t_p = basis.shape[0]
    synd = _as_svector(ext, synd, n - k)
    if t_p == 0:
        if synd.any():
            raise NoSolution("nonzero syndrome with empty support")
        return np.zeros((n, ext.D), dtype=np.int64)
    prods = ext.mul(code.F_basis[:, None, :], basis[None, :, :])  # (lam, t', D_S)
    u_mat = ext.vec_rep(prods.reshape(lam * t_p, ext.D))          # rows: ell*t' + u
    codes = ring.residue_codes(u_mat)
    if ring.residue_field.matrix_rank(codes) != lam * t_p:
        raise RankDeficient("support-basis products are not linearly independent")
    t_full = column_jordan(ring, u_mat, exc=RankDeficient)
    v_mat = ext.vec_rep(synd)                                     # (n-k, m, D_R)
    vt = ring.matmul(v_mat, t_full)
    if vt[:, lam * t_p:, :].any():
        raise NoSolution("syndrome lies outside the support-product module")
    w = vt[:, :lam * t_p, :].reshape(n - k, lam, t_p, ring.D)
    b_mat = w.reshape((n - k) * lam, t_p, ring.D)
    pb = ring.matmul(code._P, b_mat)
    if pb[code.params.n:].any():
        raise NoSolution("expanded system is inconsistent for this support")
    e_coeff = pb[:code.params.n]                                  # (n, t', D_R)
    vec = ring.mul(e_coeff[:, :, None, :], ext.vec_rep(basis)[None, :, :, :])
    return ext.unrep(vec.sum(axis=1) % ext.char)


# ---------------------------------------------------------------------------
# full decoding


def decode_local(code: LrpcCode, received, with_state: bool = False):
    """Rank-syndrome decoding over a local ring.

    Follows the decoder line by line: syndrome, syndrome support and its
    freeness (line 5), divisibility of its free rank by lambda (line 8),
    scaled supports and their intersection (lines 11-13), freeness and
    rank checks of the candidate support (lines 14-17), erasure decoding
    (line 18).  The recovered error is re-verified against the syndrome
    before the codeword is returned; the decoder never returns a
    non-codeword.
    """
    ext = code.ext
    ring = ext.base
    lam = code.params.lam
    r = _as_svector(ext, received, code.params.n)
    s = syndrome(code, r)
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
    s_elems = ext.unrep(s_sup.basis())
    scaled = [s_sup]
    e_prime = s_sup
    for i in range(1, lam):
        gens_i = ext.mul(s_elems, code.F_inv[i][None, :])
        s_i = Submodule(ring, ext.m, ext.vec_rep(gens_i))
        scaled.append(s_i)
        e_prime = intersect_with_free(e_prime, s_i)
    state.scaled_supports = scaled
    state.error_support = e_prime
    r_e, e_free = free_module_test(e_prime)
    if not e_free:
        return fail(14, "intersected support is not a free module")
    if r_e != t_p:
        return fail(16, f"frk of the intersected support is {r_e}, expected {t_p}")
    ef = module_product(ext, e_prime, code.F_module)
    if free_rank(ef) != nu:
        return fail(16, "product of candidate support with F has wrong free rank")
    try:
        err = erasure_decode(code, ext.unrep(e_prime.basis()), s)
    except (NoSolution, RankDeficient) as exc:
        return fail(18, str(exc))
    if not np.array_equal(syndrome(code, err), s):  # pragma: no cover
        return fail(18, "recovered error does not reproduce the syndrome")
    state.error = err
    out = (r - err) % ext.char
    return (out, state) if with_state else out


# ---------------------------------------------------------------------------
# error sampling


def sample_error(ext: ExtensionDesc, n: int, t: int, rng,
                 max_attempts: int = 100) -> np.ndarray:
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
    basis = ext.unrep(support.basis())
    for _ in range(max_attempts):
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
    from .specparse import parse_local_atom
    lines = text.strip().split("\n", 1)
    if not lines or lines[0].strip() != SERIAL_HEADER:
        raise NoSolution(f"missing or unsupported header (want {SERIAL_HEADER})")
    body = json.loads(lines[1])
    ring = parse_local_atom(body["ring"])
    ext = ExtensionDesc(ring, int(body["m"]), f=np.array(body["f"], dtype=np.int64))
    params = CodeParams(int(body["n"]), int(body["k"]), int(body["lambda"]),
                        int(body["t_max"]))
    return LrpcCode(ext, params, np.array(body["H"], dtype=np.int64),
                    np.array(body["F_basis"], dtype=np.int64),
                    flags=body.get("flags"))
