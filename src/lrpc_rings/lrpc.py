"""Low-rank parity-check codes over the Galois extension of a local ring.

A code is given by a parity-check matrix H over S whose entries all lie in
a small free module F of rank lambda (with a suitable basis f_1 = 1, ...,
f_lambda).  Decoding recovers the error support from the syndrome support:
scale the syndrome support by the basis inverses, intersect, then solve
the erasure problem on the recovered support.  The decoder costs
O(lambda * gamma^4 * m * n * max(n^2, m^2)) base-ring operations.

There is one decoder with two entry points: :func:`decode_local` decodes
one word and :func:`decode_batch` a stack of words, each of its own code
or all of one.  Each runs the syndrome and the line-5/8 tests, then hands
the words that pass them, grouped by frk(S), to :func:`_decode_group`, the
one implementation of lines 11-18, which decodes the group as a stack
(decode_local's group is a stack of one) and calls :func:`erasure_decode`
once on its stack of supports.  So decode_batch returns what decode_local
returns for each word and its code.  A shared code is the stack of one
(:func:`_per_word`).

Likewise there is one code generator, :func:`generate_codes`, which samples
the codes of many random generators in lockstep, and one construction,
:func:`_build_codes`, which builds a stack of codes; :func:`generate_code`
and ``LrpcCode(...)`` are their cases of one.  So is :func:`sample_error`
of the one error sampler, :func:`sample_errors`.

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
                     NoInvertibleMinor, NoSolution, NotInF,
                     ParseError, RankDeficient)
from .extension import ExtensionDesc
from .modlin import (Submodule, _free_complement, _meet_matrix, _rows, _unpermuted_rows,
                     _with_identity, column_jordan, free_module_test,
                     intersect_preimages, sample_free_submodules,
                     square_property_check, square_witnesses, unit_pivot_factor)

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
    trusted for the other three properties.

    The precomputations exist once, in :func:`_build_codes`, which builds a
    stack of codes of one shape together; a code constructed here is its
    stack of one."""

    def __init__(self, ext: ExtensionDesc, params: CodeParams, h_matrix,
                 f_basis, flags=None):
        n, k, lam = params.n, params.k, params.lam
        h = np.asarray(h_matrix, dtype=np.int64) % ext.char
        if h.shape != (n - k, n, ext.D):
            raise ExtensionMismatch("parity-check matrix has the wrong shape")
        f = np.asarray(f_basis, dtype=np.int64) % ext.char
        if f.shape != (lam, ext.D) or not np.array_equal(f[0], ext.one):
            raise ExtensionMismatch("F basis must have lambda rows starting with 1")
        [code] = _build_codes(ext, params, h[None], f[None], flags)
        if isinstance(code, NoInvertibleMinor):
            raise code
        vars(self).update(vars(code))

    @cached_property
    def F_inv(self):
        """Inverses of the F basis elements (units: they have nonzero residue)."""
        ext = self.ext
        return np.array([ext.one] + [ext.inverse(f) for f in self.F_basis[1:]])

    # -- construction helpers --

    def _compute_flags(self):
        ext, ring = self.ext, self.ext.base
        lam = self.params.lam
        coeff = self._coefficients()  # the rows' (n, lam) coefficients, stacked
        span_ok = (ring.residue_field.matrix_rank(ring.residue_codes(coeff)) == lam).all()
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

    def __repr__(self):
        p = self.params
        return (f"LrpcCode(n={p.n}, k={p.k}, lambda={p.lam}, "
                f"m={self.ext.m}, ring={self.ext.base.spec_string})")


class _CodeStack:
    """The codes of a stack of words, one per word, read as one code by
    the encoder and the decoder: each array that they read is the stack of
    the codes' arrays along a leading axis, which pairs with the words'
    axis in numpy's batched products.  An array is stacked on first read,
    so an encode stacks no decoder array and a decode no encoder map."""

    def __init__(self, codes):
        self.codes = codes
        self.ext, self.params = codes[0].ext, codes[0].params

    def __getattr__(self, name):  # reached only for names __init__ did not set
        if name not in ("_encode_map", "_h_map", "_f_maps", "_P", "F_basis"):
            raise AttributeError(name)
        stack = self.__dict__[name] = np.stack([getattr(c, name) for c in self.codes])
        return stack


def _build_codes(ext, params, h, f_basis, flags=None, h_ext=None) -> list:
    """LrpcCode(ext, params, h[j], f_basis[j], flags) for every j of a stack
    of canonical parity-check matrices h (B, n-k, n, D_S) and F bases
    (B, lambda, D_S): the list of the B codes, each one the code or the
    NoInvertibleMinor that its construction raises.  NotInF (an entry of
    some H outside its F) is raised for the stack.  ``h_ext``, when given,
    is trusted to be the stack of the H_ext (the generator has their
    coefficients).

    Every precomputation runs once for the stack: H_ext
    (:func:`build_h_ext`); the column solver P with P H_ext = (I_n; 0), the
    right block of the unit-pivot elimination of (H_ext | I), which has n
    pivots iff H_ext has an invertible n x n row minor (unique decoding),
    as its residue rank is n (over F_2 that packed rank is taken first, and
    only the codes that pass it are eliminated); the Jordan form of H over
    S, which must have n - k pivots; the systematic-style generator G with
    H G^T = 0, read off that form: it is (I | X) on permuted columns
    (piv | rest), where X = H1^-1 H2 for H1 = H[:, piv], H2 = H[:, rest],
    so G[:, piv] = -X^T and G[:, rest] = I_k; and the maps of the syndrome
    and the encoder.
    """
    ring = ext.base
    n, k, lam = params.n, params.k, params.lam
    if h_ext is None:
        h_ext = build_h_ext(ext, h, f_basis)
    out = [NoInvertibleMinor("H_ext lacks full column rank over the ring, "
                             "so the code is not uniquely decodable") for _ in h]
    solvable = np.arange(len(h))
    if ring.q == 2:  # a packed residue rank, a fraction of the elimination it can save
        solvable = np.flatnonzero(ring.residue_field.matrix_rank(ring.residue_codes(h_ext)) == n)
    w, _, r = unit_pivot_factor(ring, _with_identity(ring, _rows(h_ext, solvable)), ncols=n)
    solvable, w = solvable[r == n], _rows(w, np.flatnonzero(r == n))
    if not solvable.size:
        return out
    w_h, perm, r = unit_pivot_factor(ext, _rows(h, solvable))
    for j in solvable[r != n - k].tolist():
        out[j] = NoInvertibleMinor("parity-check matrix admits no invertible "
                                   "(n-k) x (n-k) column submatrix")
    codes, full = solvable[r == n - k], np.flatnonzero(r == n - k)
    w, w_h, perm = _rows(w, full), _rows(w_h, full), _rows(perm, full)
    g = np.zeros((len(codes), k, n, ext.D), dtype=np.int64)
    stack = np.arange(len(codes))[:, None]
    g[stack, :, perm[:, :n - k]] = ext.neg(w_h[:, :, n - k:])
    g[stack, np.arange(k), perm[:, n - k:]] = ext.one
    solver = np.ascontiguousarray(w[:, :, n:])
    h_map = ring.right_map(np.swapaxes(h_ext[codes], -3, -2))
    f_maps = ext.mul_matrices(f_basis[codes]).astype(ext.dtype).reshape(
        len(codes), lam * ext.D, ext.D)
    encode_map = ext.right_map(g)
    for i, j in enumerate(codes.tolist()):
        code = out[j] = LrpcCode.__new__(LrpcCode)
        code.ext, code.params, code.H, code.F_basis = ext, params, h[j], f_basis[j]
        code.H_ext, code._P = h_ext[j], solver[i]
        code._h_jordan = (w_h[i], perm[i], n - k)
        code.F_module = Submodule(ring, ext.m, ext.vec_rep(f_basis[j]))
        code.flags = dict(flags) if flags else code._compute_flags()
        code._G, code._h_map = g[i], h_map[i]
        code._f_maps, code._encode_map = f_maps[i], encode_map[i]
    return out


def build_h_ext(ext: ExtensionDesc, h_matrix, f_basis) -> np.ndarray:
    """Expanded parity-check matrix over R: rows blocked by parity row i,
    inner index ell, holding the coefficients of H[i, j] over the F basis.
    A stack of matrices (..., rows, n, D_S), each with its basis
    (..., lambda, D_S), gives the stack of their expansions.

    One column reduction B T = (I_lambda | 0) of the basis rows B serves
    every entry: v T = (x | 0) iff v = x B.  Raises NotInF when an entry
    does not decompose over the basis (or the basis rows are dependent).
    """
    ring = ext.base
    h_matrix = np.asarray(h_matrix, dtype=np.int64)
    lead, (rows, n) = h_matrix.shape[:-3], h_matrix.shape[-3:-1]
    f_basis = np.asarray(f_basis, dtype=np.int64)
    lam = f_basis.shape[-2]
    t = column_jordan(ring, ext.vec_rep(f_basis), exc=NotInF)
    vt = ring.matmul(ext.vec_rep(h_matrix.reshape(lead + (rows * n, ext.D))), t)
    outside = vt[..., lam:, :].reshape(-1, rows * n, (ext.m - lam) * ring.D).any(axis=-1)
    if outside.any():
        i, j = divmod(int(np.argmax(outside.any(axis=0))), n)
        raise NotInF(f"entry ({i},{j}) does not lie in the module F")
    coeffs = vt[..., :lam, :].reshape(lead + (rows, n, lam, ring.D))
    return np.swapaxes(coeffs, -3, -2).reshape(lead + (rows * lam, n, ring.D))


def generate_code(params: CodeParams, ext: ExtensionDesc, rng) -> LrpcCode:
    """Sample an LRPC code with the unique-decoding, maximal-row-span,
    unity and square properties, by rejection: :func:`generate_codes` on
    the one generator ``rng``.

    F is drawn as a free rank-lambda module containing 1 and redrawn until
    the square-property check passes; H coefficients are drawn from
    R* union {0} (unity), rows are redrawn until they span F, and the whole
    matrix is redrawn while LrpcCode refuses it (NoInvertibleMinor: H_ext
    lacks full column rank over R or H full free row rank over S).
    """
    codes, failure = generate_codes(params, ext, [rng])
    if failure is not None:
        raise failure
    return codes[0]


def generate_codes(params: CodeParams, ext: ExtensionDesc, rngs):
    """:func:`generate_code` for every generator of ``rngs``, in lockstep:
    (codes, failure), where codes lists the code that generate_code makes
    from each generator, which is left where generate_code leaves it.  If a
    generator runs out of a budget, failure is the GenerationFailed that
    generate_code raises for the first such generator, and codes stops
    before it: the generators from there on are left anywhere.  Otherwise
    failure is None.

    Each rejection loop runs in rounds.  In a round every generator that is
    still sampling draws exactly what the one-generator loop draws next: F's
    generators, the next row of H, or, after a refusal, H again from its
    first row.  Then one stacked call decides which draws are accepted:
    the unit-pivot elimination of the F generators (F is free iff it has
    lambda pivots) and :func:`modlin.square_witnesses`; the residue ranks
    of the rows; and :func:`_build_codes`, whose NoInvertibleMinor sends a
    generator back to draw a new H.  GENERATION_ATTEMPTS bounds the F
    draws, the draws of each row and the H draws of each generator apart.
    """
    ring = ext.base
    n, k, lam = params.n, params.k, params.lam
    params.validate_for_extension(ext.m)
    out = [None] * len(rngs)
    f_basis = np.zeros((len(rngs), lam, ext.D), dtype=np.int64)
    todo = np.arange(len(rngs))
    for _ in range(GENERATION_ATTEMPTS):
        if not todo.size:
            break
        gens = np.array([np.concatenate([ext.one[None, :], ext.rand(rngs[j], (lam - 1,))])
                         for j in todo.tolist()])
        w, perm, r = unit_pivot_factor(ring, ext.vec_rep(gens))
        good = r == lam  # a free F: its Jordan form has lambda pivots
        if good.any():
            basis = ext.unrep(_unpermuted_rows(w[good], perm[good], lam))
            has = square_witnesses(ext, basis)[0]
            f_basis[todo[good][has]] = basis[has]
            good[good] = has
        todo = todo[~good]
    for j in todo.tolist():
        out[j] = GenerationFailed("could not sample a support module with the "
                                  "square property")
    flags = {"unique_decoding": True, "maximal_row_span": True,
             "unity": True, "square_property": True}
    todo = [j for j, res in enumerate(out) if res is None]
    h_tries = dict.fromkeys(todo, 0)
    while todo:
        rows_of = {j: [] for j in todo}
        tries = dict.fromkeys(todo, 0)
        drawing = todo
        while drawing:
            draws = [ring.rand_unit_or_zero(rngs[j], (n, lam)) for j in drawing]
            ranks = ring.residue_field.matrix_rank(ring.residue_codes(np.array(draws)))
            for j, row, rank in zip(drawing, draws, ranks.tolist()):
                if rank == lam:
                    rows_of[j].append(row)
                    tries[j] = 0
                else:
                    tries[j] += 1
            drawing = [j for j in drawing
                       if len(rows_of[j]) < n - k and tries[j] < GENERATION_ATTEMPTS]
        for j in todo:
            if tries[j] == GENERATION_ATTEMPTS:
                out[j] = GenerationFailed("could not sample a parity-check row "
                                          "whose coefficients span F")
        todo = [j for j in todo if tries[j] < GENERATION_ATTEMPTS]
        if not todo:
            break
        coeff = np.array([rows_of[j] for j in todo]).reshape(len(todo), n - k, n, lam, ring.D)
        h = np.zeros((len(todo), n - k, n, ext.D), dtype=np.int64)
        for ell in range(lam):
            h += ext.scalar_mul(coeff[:, :, :, ell], f_basis[todo, None, None, ell])
            h %= ext.char
        h_ext = coeff.swapaxes(2, 3).reshape(len(todo), (n - k) * lam, n, ring.D)
        refused = []
        for j, code in zip(todo, _build_codes(ext, params, h, f_basis[todo], flags, h_ext)):
            out[j] = code
            if isinstance(code, NoInvertibleMinor):
                h_tries[j] += 1
                refused.append(j)
                if h_tries[j] == GENERATION_ATTEMPTS:
                    out[j] = GenerationFailed("retry budget exhausted while sampling H; "
                                              "parameters are likely infeasible")
        todo = [j for j in refused if h_tries[j] < GENERATION_ATTEMPTS]
    for j, code in enumerate(out):
        if isinstance(code, GenerationFailed):
            return out[:j], code
    return out, None


# ---------------------------------------------------------------------------
# encoding and syndromes


def encode(code, msg) -> np.ndarray:
    """Codeword msg . G of the message (length-k vector over S), or the
    codewords of a stack of messages (..., k, D_S).  ``code`` is an
    LrpcCode, or a list of the B codes of a stack of B messages (B, k, D_S),
    one per message (see :func:`_per_word`)."""
    code, msg = _per_word(code, msg, "k")
    # one (1, k D_S) row per message: a stack makes vector-matrix products
    # (each with its own code's map), not one matrix product large enough
    # for OpenBLAS to spread over threads
    return code.ext.apply_right(msg[..., None, :, :], code._encode_map)[..., 0, :, :]


def syndrome(code: LrpcCode, received, *, canonical: bool = False) -> np.ndarray:
    """s = r H^T over S, through the LRPC structure: H = sum_ell f_ell H_ell
    for the R-matrices H_ell held in H_ext, so s = sum_ell f_ell (H_ell r).
    H_ext r is one product over Z_char per theta-coordinate of r, through
    the R-map of H_ext^T (``_h_map``, see TensorAlgebra.right_map); the sum
    over ell is one product with the multiplication maps of f_1 .. f_lambda
    stacked (``_f_maps``).  ``received`` may be one word or a stack of words
    (..., n, D_S); ``canonical`` says that it is already an array of
    canonical residues, which skips its reduction.  The decoder also passes
    a :class:`_CodeStack` with a stack (B, n, D_S) of its B words."""
    ext = code.ext
    n, k = code.params.n, code.params.k
    r = received if canonical else _as_svector(ext, received, n)
    h_r = ext.base.apply_right(ext.vec_rep(r).swapaxes(-3, -2), code._h_map)
    h_r = h_r.swapaxes(-3, -2)  # row (i, ell): H_ell r
    h_r = h_r.reshape(r.shape[:-2] + (n - k, code._f_maps.shape[-2]))
    return ext._dot(h_r, code._f_maps)


def _per_word(code, words, length):
    """(code, words) for a stack of words of ``length`` ("n" or "k")
    elements of S: the words as canonical residues (:func:`_as_svector`),
    and the code each word is read with.  An LrpcCode is shared by every
    word: its arrays broadcast over the stack, as a stack of one.  A list
    holds one code per word of a stack (B, length, D_S), all of one
    extension and one set of parameters: a :class:`_CodeStack`, or the
    shared code when the list repeats one code.  Raises ExtensionMismatch
    for an empty list, for codes of two shapes and for B words that do not
    pair with the codes."""
    if isinstance(code, LrpcCode):
        return code, _as_svector(code.ext, words, getattr(code.params, length))
    codes = list(code)
    if not codes:
        raise ExtensionMismatch("a stack of codes needs at least one code")
    first = codes[0]
    words = _as_svector(first.ext, words, getattr(first.params, length))
    if words.shape[:-2] != (len(codes),):
        raise ExtensionMismatch(f"expected a stack of {len(codes)} vectors, one per code")
    if all(c is first for c in codes):
        return first, words
    if any(c.ext is not first.ext or c.params != first.params for c in codes):
        raise ExtensionMismatch("the codes of a stack need one extension and one "
                                "set of parameters")
    return _CodeStack(codes), words


def _take(code, idx):
    """The code of the words ``idx`` of a stack read with ``code``: a
    shared code is every word's, and a :class:`_CodeStack` keeps the codes
    of those words."""
    if isinstance(code, LrpcCode) or len(idx) == len(code.codes):
        return code
    return _CodeStack([code.codes[i] for i in idx])


def _as_svector(ext, v, length):
    """v as canonical residues: a vector of ``length`` elements of S, or a
    stack of vectors, given as an array (..., length, D_S) or as a list of
    B arrays (length, D_S) for any B."""
    shape = (length, ext.D)
    if not isinstance(v, np.ndarray):
        v = list(v)
        if all(np.shape(x) == shape for x in v):
            return np.array(v, dtype=np.int64).reshape((-1,) + shape) % ext.char
    elif v.shape[-2:] == shape:
        return v % ext.char
    rows = [ext.coerce(x) for x in v]
    if len(rows) != length or any(x.shape != (ext.D,) for x in rows):
        raise ExtensionMismatch(f"expected a vector of length {length}")
    return np.array(rows, dtype=np.int64) % ext.char


# ---------------------------------------------------------------------------
# erasure decoding


def erasure_decode(code: LrpcCode, support_basis, synd, *,
                   canonical: bool = False):
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

    A stack of G supports, bases (G, t', D_S) with syndromes (G, n-k, D_S),
    is solved with each step run once for the stack and gives the list of
    the G outcomes: the error, or the RankDeficient or NoSolution instance
    that the call on that support alone raises.  The decoder also passes a
    :class:`_CodeStack` of the G supports' codes.
    """
    ext, ring = code.ext, code.ext.base
    n, k, lam = code.params.n, code.params.k, code.params.lam
    basis = np.asarray(support_basis, dtype=np.int64)
    if not canonical:
        synd = _as_svector(ext, synd, n - k)
    one = basis.ndim < 3
    if one:
        basis, synd = basis.reshape(1, -1, ext.D), synd[None]
    (g, t_p), nu = basis.shape[:2], lam * basis.shape[1]
    if synd.shape != (g, n - k, ext.D):
        raise ExtensionMismatch("expected one syndrome of length n - k per support")
    dependent = "the products f_ell eps_u are not linearly independent"
    if t_p == 0:
        outs = [NoSolution("nonzero syndrome with empty support") if s.any()
                else np.zeros((n, ext.D), dtype=np.int64) for s in synd]
    elif nu > ext.m:  # more products than R^m has independent rows
        outs = [RankDeficient(dependent) for _ in synd]
    else:
        m = ext.m
        f_maps = code._f_maps.reshape(code._f_maps.shape[:-2] + (lam, ext.D, ext.D))
        prods = ext._dot(basis[:, None], f_maps)
        u_mat = ext.vec_rep(prods.reshape(g, nu, ext.D))               # rows: ell*t' + u
        w, perm, r = unit_pivot_factor(ring, _with_identity(ring, u_mat), ncols=m)
        v_mat = ext.vec_rep(synd)                                      # (G, n-k, m, D_R)
        v_piv = v_mat[np.arange(g)[:, None], :, perm[:, :nu]].swapaxes(1, 2)  # V[:, p]
        y = ring.matmul(v_piv, w[:, :, m:])
        outside = (ring.matmul(y, u_mat) != v_mat).any(axis=(1, 2, 3))
        pb = ring.matmul(code._P, y.reshape(g, (n - k) * lam, t_p, ring.D))
        inconsistent = pb[:, n:].any(axis=(1, 2, 3))
        err = ext.unrep(ring.matmul(pb[:, :n], ext.vec_rep(basis)))
        outs = [RankDeficient(dependent) if r_j < nu
                else NoSolution("syndrome lies outside the support-product module") if out_j
                else NoSolution("expanded system is inconsistent for this support") if inc_j
                else e_j
                for r_j, out_j, inc_j, e_j in zip(r.tolist(), outside.tolist(),
                                                  inconsistent.tolist(), err)]
    if not one:
        return outs
    if isinstance(outs[0], Exception):
        raise outs[0]
    return outs[0]


# ---------------------------------------------------------------------------
# full decoding


def decode_local(code: LrpcCode, received, with_state: bool = False):
    """Rank-syndrome decoding over a local ring.

    Follows the decoder line by line: syndrome, syndrome support and its
    freeness (line 5), divisibility of its free rank by lambda (line 8);
    the candidate support E' = S cap f_2^-1 S cap ... cap f_lambda^-1 S
    (lines 11-13), freeness and rank checks of E' (lines 14-17) and erasure
    decoding (line 18) run in :func:`_decode_group`, on a stack of this one
    word, from S's cached Jordan form.  The recovered error is re-verified
    against the syndrome before the codeword is returned; the decoder
    never returns a non-codeword.  With ``with_state`` the state also
    holds the scaled supports f_i^-1 S and E' as a Submodule
    (:func:`modlin.intersect_preimages`), both built only for it.
    """
    ext = code.ext
    lam = code.params.lam
    r = _as_svector(ext, received, code.params.n)
    s = syndrome(code, r, canonical=True)
    state = DecoderState(syndrome=s)

    def finish(result):
        return (result, state) if with_state else result

    if not s.any():
        state.error = np.zeros_like(r)
        return finish(r)
    s_sup = ext.support(s)
    state.syndrome_support = s_sup
    nu, s_free = free_module_test(s_sup)
    if not s_free:
        return finish(DecodingFailure(5, "syndrome support is not a free module"))
    state.nu = nu
    if nu % lam:
        return finish(DecodingFailure(8, f"lambda does not divide frk(S) = {nu}"))
    state.t_prime = nu // lam
    if with_state:
        scaled = ext.mul(code.F_inv[1:, None, :], ext.unrep(s_sup.basis())[None, :, :])
        state.scaled_supports = [s_sup] + [Submodule(ext.base, ext.m, ext.vec_rep(g))
                                           for g in scaled]
        state.error_support = intersect_preimages(ext, s_sup, code.F_basis[1:])
    w, perm, _ = s_sup.jordan()
    [out] = _decode_group(code, r[None], s[None], w[None], perm[None], nu)
    if with_state and not isinstance(out, DecodingFailure):
        state.error = (r - out) % ext.char
    return finish(out)


def decode_batch(code, words) -> list:
    """:func:`decode_local` of every word of a stack (B, n, D_S): the list of
    the B results, each a word or a DecodingFailure equal to decode_local's,
    ``detail`` included.  Any other shape raises ExtensionMismatch.
    ``code`` is the words' one code, or the list of their B codes, one per
    word (see :func:`_per_word`), and each word is decoded by its own code.

    Decoding draws no random numbers, so every stage runs once for the
    whole stack: the syndromes; the Jordan forms of their supports (lines 5
    and 8), one stacked :func:`modlin.unit_pivot_factor`; then lines 11-18
    once for each group of words with the same frk(S) = nu
    (:func:`_decode_group`).  Only the words are reduced mod char.
    """
    code, words = _per_word(code, words, "n")
    ext = code.ext
    n, k, lam = code.params.n, code.params.k, code.params.lam
    if words.ndim != 3:
        raise ExtensionMismatch(f"expected a stack of words of shape (B, {n}, {ext.D})")
    out = [None] * len(words)
    synd = syndrome(code, words, canonical=True)
    live = synd.any(axis=(1, 2))
    for i in np.flatnonzero(~live):
        out[i] = words[i]
    live = np.flatnonzero(live)
    w, perm, nu = unit_pivot_factor(ext.base, ext.vec_rep(_rows(synd, live)))
    free = ~(w.any(axis=(2, 3)) & (np.arange(n - k) >= nu[:, None])).any(axis=1)
    for i, rank, is_free in zip(live.tolist(), nu.tolist(), free.tolist()):
        if not is_free:
            out[i] = DecodingFailure(5, "syndrome support is not a free module")
        elif rank % lam:
            out[i] = DecodingFailure(8, f"lambda does not divide frk(S) = {rank}")
    keep = free & (nu % lam == 0)
    for rank in sorted(set(nu[keep].tolist())):
        group = np.flatnonzero(keep & (nu == rank))
        idx = live[group]
        results = _decode_group(_take(code, idx), _rows(words, idx), _rows(synd, idx),
                                _rows(w, group), _rows(perm, group), rank)
        for i, res in zip(idx.tolist(), results):
            out[i] = res
    return out


def _decode_group(code, words, synd, w, perm, nu):
    """Lines 11-18 of the decoder for a stack of words (G, n, D_S) with
    canonical syndromes synd whose supports S are free of rank nu, a
    multiple of lambda, given by their stacked Jordan forms (w, perm): the
    list of the G results, each a decoded word or a DecodingFailure.
    ``code`` is their one code or the :class:`_CodeStack` of their G codes.

    E' = S cap f_2^-1 S cap ... is K B for B S's Jordan basis and K the
    left kernel of the meet matrix Z (:func:`modlin._meet_matrix`), found
    for the group by one stacked unit-pivot elimination of (Z | I), with r
    pivots in Z's columns: W = (U Z[:, perm] | U) for an invertible U.
    When W[r:, :cols] = 0, K = U[r:] is free, its rows are rows of an
    invertible matrix, and K B is a basis of E' of rank nu - r with no
    further elimination.

    Otherwise E' is not free, and the word fails at line 14:
      * B is a basis of the free S, so x -> x B is injective and
        E' = K B is isomorphic to ker_L(Z) = {x : x Z = 0}.
      * x Z = 0 iff y = x U^-1 kills U Z[:, perm] = (I_r X; 0 Y), so y's
        first r entries are 0 and ker_L(Z) is isomorphic to
        {y in R^(nu-r) : y Y = 0} for Y = W[r:, r:cols], whose entries are
        all non-units (no unit is left below the pivots).
      * Y != 0: every entry of Y lies in the maximal ideal m, so that
        kernel holds Soc(R)^(nu-r), Soc(R) = Ann(m), which is therefore
        its socle; it is not all of R^(nu-r), since a unit vector at a
        nonzero row of Y is outside.
      * A free submodule of R^(nu-r) whose socle is Soc(R)^(nu-r) has
        rank nu - r (a free module of rank f has socle Soc(R)^f, whose
        length is f times that of Soc(R)), so it has |R|^(nu-r) elements
        and is all of R^(nu-r).  Hence the kernel, and E', are not free.

    Then the rank check of line 16, one stacked :func:`erasure_decode` of
    the rest, whose RankDeficient is line 16 (the product condition
    frk(E'F) = nu) and whose NoSolution is line 18, and the check that each
    recovered error reproduces its syndrome.
    """
    ext, ring = code.ext, code.ext.base
    t_p = nu // code.params.lam
    basis = _unpermuted_rows(w, perm, nu)  # (G, nu, m, D_R)
    scalars = code.F_basis[..., 1:, :]
    out = [None] * len(words)
    free, r_e, e_basis = [True] * len(words), [nu] * len(words), basis
    if nu < ext.m and scalars.shape[-2]:  # else E' = S, as in intersect_preimages
        z = _meet_matrix(ext, basis, _free_complement(ring, w, perm, nu), scalars)
        cols = z.shape[-2]
        kernel, _, rk = unit_pivot_factor(ring, _with_identity(ring, z), ncols=cols)
        free = ~(kernel[..., :cols, :].any(axis=(2, 3))
                 & (np.arange(nu) >= rk[:, None])).any(axis=1)
        r_e, free = (nu - rk).tolist(), free.tolist()
        e_basis = ring.matmul(kernel[:, nu - t_p:, cols:], basis)  # E' where K is free of rank t'
    for j, (rank, is_free) in enumerate(zip(r_e, free)):
        if not is_free:
            out[j] = DecodingFailure(14, "intersected support is not a free module")
        elif rank != t_p:
            out[j] = DecodingFailure(16, f"frk of the intersected support is {rank}, "
                                         f"expected {t_p}")

    todo = [j for j, res in enumerate(out) if res is None]
    if not todo:
        return out
    done, errs = [], []
    for j, res in zip(todo, erasure_decode(_take(code, todo), ext.unrep(_rows(e_basis, todo)),
                                           _rows(synd, todo), canonical=True)):
        if isinstance(res, RankDeficient):
            out[j] = DecodingFailure(16, "product of candidate support with F has wrong free rank")
        elif isinstance(res, NoSolution):
            out[j] = DecodingFailure(18, str(res))
        else:
            done.append(j)
            errs.append(res)
    if not done:
        return out
    err = np.array(errs)
    bad = (syndrome(_take(code, done), err, canonical=True)
           != _rows(synd, done)).any(axis=(1, 2))
    decoded = np.subtract(_rows(words, done), err, out=err)
    decoded %= ext.char
    for j, word, is_bad in zip(done, decoded, bad.tolist()):
        if is_bad:  # pragma: no cover
            out[j] = DecodingFailure(18, "recovered error does not reproduce the syndrome")
        else:
            out[j] = word
    return out


# ---------------------------------------------------------------------------
# error sampling


def sample_error(ext: ExtensionDesc, n: int, t: int, rng) -> np.ndarray:
    """Uniform error vector of length n with free support of rank exactly t:
    :func:`sample_errors` on the one generator ``rng``.

    Uniform free support via sample_free_submodule, then a uniform
    coefficient matrix rejected until its residue image has full rank,
    which makes the support of the assembled vector exactly the sampled
    module (and the overall distribution uniform).
    """
    errs, failure = sample_errors(ext, n, t, [rng])
    if failure is not None:
        raise failure
    return errs[0]


def sample_errors(ext: ExtensionDesc, n: int, t: int, rngs):
    """:func:`sample_error` for every generator of ``rngs``, in lockstep:
    (errs, failure), where errs (B, n, D_S) holds the error that
    sample_error draws from each generator, which is left where
    sample_error leaves it.

    The supports come from :func:`modlin.sample_free_submodules`.  Then in
    each round every generator still sampling draws its coefficient matrix,
    and one stacked residue rank keeps those of rank t; one product of the
    coefficient stack with the basis stack makes the errors.  A generator
    draws at most ERROR_ATTEMPTS coefficient matrices.  If one runs out of
    its support or coefficient budget, failure is the GenerationFailed that
    sample_error raises for the first such generator, and errs stops before
    it: the generators from there on are left anywhere.  Otherwise failure
    is None.
    """
    if t < 0 or t > min(n, ext.m):
        raise BadRank("error rank must satisfy 0 <= t <= min(n, m)")
    if t == 0:
        return np.zeros((len(rngs), n, ext.D), dtype=np.int64), None
    ring = ext.base
    gens, failure = sample_free_submodules(ring, ext.m, t, rngs)
    coeff = np.zeros((len(gens), n, t, ring.D), dtype=np.int64)
    todo = np.arange(len(gens))
    for attempt in range(ERROR_ATTEMPTS):
        if not todo.size:
            break
        c = np.array([ring.rand(rngs[j], (n, t)) for j in todo.tolist()])
        good = ring.residue_field.matrix_rank(ring.residue_codes(c)) == t
        if attempt == 0:  # every generator in order: no scatter
            coeff = c
        else:
            coeff[todo[good]] = c[good]
        todo = todo[~good]
    if todo.size:
        failure = GenerationFailed("could not sample a full-rank coefficient matrix")
        coeff, gens = coeff[:todo[0]], gens[:todo[0]]
    # gens is a basis (its pivot block is the identity), in coordinates over R
    return ext.unrep(ring.matmul(coeff, gens)), failure


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
