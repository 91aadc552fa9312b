"""Module linear algebra over a finite commutative local ring R.

Linear systems over R are expanded into systems over the maximal Galois
subring R0 (one block per basis element z_l) and solved completely by
the Howell-form machinery of the chain module.  Every other elimination
is one Gauss-Jordan kernel with unit pivots, :func:`unit_pivot_factor`:
its pivot count is the free rank (the rank of the residue-projected
generators), and :func:`column_jordan`, :func:`gauss_inverse`, the free
case of ``LocalRingDesc.left_kernel`` and the decoder's erasure step run
it on a matrix with an identity block appended.  It takes a stack of
matrices of one shape, one matrix being a stack of one, and has one
dispatcher over kernels with one result.  Over a ring with residue field
F_2 it is residue-first: a unit is an entry with nonzero residue, and a
row operation with a unit pivot commutes with the residue map, so every
choice it makes (pivot columns, row and column swaps, r) is made on the
residue rows, and W is then computed exactly from the Schur form those
choices fix; a large enough stack runs the steps for all its matrices at
once with per-matrix pivot masks, a smaller one packs each matrix's rows
into Python ints.  Over other residue fields a stack runs the steps for
all its matrices at once with per-matrix pivots.  Over Z_char itself
(D == 1, odd p) that is ``fq.unit_pivot_rref``, the kernel of the F_p
RREF with char = p^s; at D > 1 (extensions, GR(4,2), ...) the pivot
inverses are deferred, rows are cleared by multiples of the unnormalised
pivot row, and one array inverse of the pivot products normalises W at
the end.  On top of that sit the intersection, product, counting,
sampling and product-recovery operations used by the decoder; the
decoder's E' = S cap f_2^-1 S cap ... is :func:`intersect_preimages`, one
left kernel K read off S's Jordan form, and K B for S's basis B is a
basis of E' whenever the unit-pivot kernel gave K.

Matrices over R are numpy arrays of shape (rows, cols, D); vectors are
(cols, D).  A Submodule of R^n stores a generator matrix and lazily
caches its Jordan form, reduced generators, the Howell form its membership
test reduces against, and the tracked form that ``coefficients_of`` solves
with (the caches are write-once, so concurrent readers are safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from . import fq
from .errors import (AmbientMismatch, BadRank, GenerationFailed, NoSuitableBasis,
                     NotFree, OneNotInModule, RingMismatch)
from .rings import LocalRingDesc

# Stacks of at least STACK_MIN matrices over a residue field F_2 are
# eliminated together; smaller ones loop over the per-matrix kernel, since
# the stacked kernel pays a fixed cost per pivot step.  It broke even at
# about 8 matrices of 12 x 20 over Z4 and of 6 x 10 over Z4[x]/(x^2).  With
# q > 2 every nonempty stack takes a stacked kernel, a matrix alone too.
STACK_MIN = 8
SAMPLE_ATTEMPTS = 100  # residue matrices per sampled free submodule


# ---------------------------------------------------------------------------
# matrices


class MatR:
    """A rectangular matrix over a local ring, entries in canonical form."""

    def __init__(self, ring: LocalRingDesc, entries):
        self.ring = ring
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim == 2 and ring.D == 1:
            arr = arr[..., None]
        if arr.ndim != 3 or arr.shape[-1] != ring.D:
            raise RingMismatch("matrix entries must have the ring's coordinate width")
        self.array = arr % ring.char

    @property
    def shape(self):
        return self.array.shape[:2]

    def __repr__(self):
        return f"MatR({self.ring.spec_string}, {self.shape[0]}x{self.shape[1]})"


def _as_matrix(ring, a):
    if isinstance(a, MatR):
        if a.ring is not ring:
            raise RingMismatch("matrix belongs to a different ring")
        return a.array
    return MatR(ring, a).array


def _as_vector(ring, v):
    v = np.asarray(v, dtype=np.int64)
    if v.ndim == 1 and ring.D == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[-1] != ring.D:
        raise RingMismatch("vector entries must have the ring's coordinate width")
    return v % ring.char


# ---------------------------------------------------------------------------
# unit-pivot Gauss-Jordan elimination


def unit_pivot_factor(arith, a, ncols=None):
    """Gauss-Jordan elimination of the rows of A with unit pivots.

    Works over any local arithmetic (base ring or extension): an entry is
    a pivot candidate iff it is a unit.  Pivots are sought in the first
    ``ncols`` columns (all by default): the leftmost column with a unit at
    or below the current row, and the topmost unit row in it; a column
    swap brings each pivot to the front.  Returns (W, perm, r) with
    W = U A[:, perm] for an invertible U, W[:, :r] = (I_r; 0) and no unit
    left in W[r:, r:ncols]; ``perm`` maps W's column j to A's column
    perm[j].  r is the free rank of the row module, which is free iff
    W[r:] = 0.  For A = (A1 | A2) with A1 invertible of size r, W[:, r:]
    is A1^-1 A2.

    A stack of matrices, shape (B, s, N, D), gives the stacked results:
    W (B, s, N, D), perm (B, N) and r (B,), each matrix's equal to its own
    call; a single matrix is a stack of one.  Every kernel makes the same
    choices and returns the same result.  When the residue field is F_2
    (q == 2) every choice (pivots, swaps, r) is made on the residue rows: a
    row operation with a unit pivot commutes with the residue map, so the
    choices are the unit-pivot ones, and they fix W.  A stack of at least
    STACK_MIN matrices is eliminated at once
    (:func:`_factor_residue_f2_stack`), a smaller one matrix by matrix on
    packed rows (:func:`_factor_residue_f2`).  When q > 2 every stack is
    eliminated at once: over Z_char itself (D == 1) by
    ``fq.unit_pivot_rref``, which pivots without column swaps and whose
    pivot columns give perm (:func:`_swap_perm`), and at D > 1 by
    :func:`_factor_units_stack`.

    A has shape (s, N, D) or (B, s, N, D) for the arithmetic's D, and
    0 <= ncols <= N; anything else raises RingMismatch (the shape) or
    BadRank (ncols).
    """
    w = np.asarray(a, dtype=np.int64) % arith.char
    if w.ndim not in (3, 4) or w.shape[-1] != arith.D:
        raise RingMismatch(f"expected a matrix (s, N, {arith.D}) or a stack "
                           f"(B, s, N, {arith.D}), got shape {w.shape}")
    n = w.shape[-2] if ncols is None else ncols
    if not 0 <= n <= w.shape[-2]:
        raise BadRank(f"ncols must lie in [0, {w.shape[-2]}], got {n}")
    if w.ndim == 3:
        w, perm, r = _factor_stack(arith, w[None], n)
        return w[0], perm[0], int(r[0])
    return _factor_stack(arith, w, n)


def _factor_stack(arith, w, n):
    """:func:`unit_pivot_factor` of a canonical stack w (B, s, N, D)."""
    if not len(w):
        return w, np.zeros((0, w.shape[2]), dtype=np.intp), np.zeros(0, dtype=np.intp)
    if arith.q == 2:
        if len(w) >= STACK_MIN:
            return _factor_residue_f2_stack(arith, w, n)
        if len(w) == 1:  # views, not np.stack: a stack of one is the decoder's one-word path
            w1, perm, r = _factor_residue_f2(arith, w[0], n)
            return w1[None], perm[None], np.array([r])
        parts = [_factor_residue_f2(arith, x, n) for x in w]
        return (np.stack([x[0] for x in parts]), np.stack([x[1] for x in parts]),
                np.array([x[2] for x in parts], dtype=np.intp))
    if arith.D == 1:
        _, pivots, rank = fq.unit_pivot_rref(w[..., 0], arith.p, arith.char, n)
        perm = _swap_perm(pivots, rank, w.shape[2])
        return np.take_along_axis(w, perm[:, None, :, None], axis=2), perm, rank
    return _factor_units_stack(arith, w, n)


def _swap_perm(pivots, rank, n):
    """perm (B, n) of :func:`unit_pivot_factor` for the pivot columns
    pivots[b, :rank[b]], ascending, of each matrix: the swaps of each
    position h with pivot h's column, which has not moved before step h."""
    perms = []
    for cols, r in zip(pivots.tolist(), rank.tolist()):
        perm = list(range(n))
        for h, c in enumerate(cols[:r]):
            perm[h], perm[c] = perm[c], perm[h]
        perms.append(perm)
    return np.array(perms, dtype=np.intp).reshape(len(rank), n)


def _rows(a, idx):
    """a[idx], without the copy when idx is every row."""
    return a if len(idx) == len(a) else a[idx]


def _factor_units_stack(arith, w, n):
    """:func:`unit_pivot_factor` of every matrix of a canonical stack w
    (B, s, N, D) at once, over a local arithmetic with q > 2 and D > 1,
    pivots in the first n columns.

    Step h runs on every matrix that still has a unit in its rows h.. and
    columns h..n: each swaps the leftmost column holding one and the
    topmost unit row in it to (h, h), and the swaps are fancy-indexed.

    The pivot inverses are deferred.  The pivot row is not normalised:
    with d the pivot, every row i != h becomes d w_i - c_i w_h, which
    clears column h.  That is the normalised step's row times the unit d,
    and scaling a row by a unit keeps its unit pattern, so every later
    choice is the normalised elimination's.  Each pivot row j ends as
    P_j = d_j d_(j+1) ... d_(r-1) times that elimination's row, and every
    row below as P_0 times it; one array ``inverse`` of every matrix's
    P_0 .. P_(r-1) undoes the scales, and the pivot block is set to I.
    Scaling by d is one ``_dot`` with d's multiplication matrix, and
    c (x) w_h one ``_dot`` with the pivot row's matrices side by side.
    Columns left of h are zero in row h, so each step updates columns h
    onward only.
    """
    char, D = arith.char, arith.D
    B, s, N = w.shape[:3]
    k = min(s, n)
    perm = np.tile(np.arange(N), (B, 1))
    rank = np.zeros(B, dtype=np.intp)
    scale = np.zeros((B, k, D), dtype=np.int64)  # scale[b, j] = P_j once r is known
    live = np.arange(B)
    for h in range(k):
        x = _rows(w, live)  # w itself while every matrix is live
        units = arith.is_unit(x[:, h:, h:n])
        cols = units.any(axis=1)
        keep = cols.any(axis=1)
        if not keep.all():
            live, units, cols, x = live[keep], units[keep], cols[keep], x[keep]
            if not live.size:
                break
        ar = np.arange(len(live))
        j = cols.argmax(axis=1)
        i = h + units[ar, :, j].argmax(axis=1)
        j += h
        if (i != h).any():  # swaps that move nothing are skipped
            x[ar, h], x[ar, i] = x[ar, i], x[ar, h]
        if (j != h).any():
            x[ar, :, h], x[ar, :, j] = x[ar, :, j], x[ar, :, h]
            perm[live, h], perm[live, j] = perm[live, j], perm[live, h]
        piv = x[:, h, h:].copy()
        maps = arith.mul_matrices(piv)  # maps[:, 0] multiplies by d
        sc = _rows(scale, live)
        sc[:, :h] = arith._dot(sc[:, :h], maps[:, 0])
        sc[:, h] = piv[:, 0]
        if sc is not scale:
            scale[live] = sc
        cross = arith._dot(x[:, :, h], maps.transpose(0, 2, 1, 3).reshape(len(ar), D, -1))
        x[:, :, h:] = arith._dot(x[:, :, h:], maps[:, None, 0])
        x[:, :, h:] -= cross.reshape(x[:, :, h:].shape)
        x[:, :, h:] %= char
        x[:, h, h:] = piv
        if x is not w:
            w[live] = x
        rank[live] += 1
    if rank.any():
        # row i < r of a matrix carries P_i and every row below it P_0; the
        # pivot block, zero off its diagonal, is set to I
        pivots = np.arange(k) < rank[:, None]
        inv = np.broadcast_to(arith.one, scale.shape).copy()
        inv[pivots] = arith.inverse(scale[pivots])
        rows = np.where(np.arange(s) < rank[:, None], np.arange(s), 0)
        w = arith._dot(w, arith.mul_matrices(inv)[np.arange(B)[:, None], rows])
        b, i = np.nonzero(pivots)
        w[b, i, i] = arith.one
    return w, perm, rank


def _factor_residue_f2(arith, w, n):
    """:func:`unit_pivot_factor` over a local arithmetic with residue
    field F_2 for the canonical A = w of shape (s, N, D) and pivots in its
    first n columns.

    The units are the entries with nonzero residue, and a unit-pivot row
    operation maps to the same operation on the residue rows.  So the loop
    runs on the residue of A, each row packed into an int with identity
    bits above column N: pivots by OR, AND and a scan of perm, elimination
    by XOR.  It fixes perm, r and the row order; the rows of A in that
    order are (A_R; A_2), and A_R[:, perm] = (A11 | A12).  The pivot rows
    are combinations of A_R alone, so their identity bits hold
    X = A11^-1 over F_2 (zero outside R), and they end as
    B = A11^-1 A_R[:, perm] = (I | A11^-1 A12).  B comes from X A_R by
    Newton steps B <- (2I - B11) B, each of which squares I - B11, whose
    entries lie in the maximal ideal; that ideal's upsilon-th power is 0,
    so ceil(log2 upsilon) steps make B11 = I.  The rows below are
    A_2[:, perm] - A21 B.  X A_R sums rows of A, one ``_dot`` over
    Z_char; the other products go through the ring's ``matmul`` (``_dot``
    when D == 1).  Both split any sum that could lose exactness.
    """
    char = arith.char
    s, N = w.shape[0], w.shape[1]
    rows = [x | 1 << (N + i) for i, x in enumerate(fq.pack_rows(arith.is_unit(w)))]
    order, perm = list(range(s)), list(range(N))
    h = 0
    while h < s and h < n:
        live = 0
        for x in rows[h:]:
            live |= x
        j = h
        while j < n and not live >> perm[j] & 1:
            j += 1
        if j == n:
            break
        bit, i = 1 << perm[j], h
        while not rows[i] & bit:
            i += 1
        rows[h], rows[i] = rows[i], rows[h]
        order[h], order[i] = order[i], order[h]
        perm[h], perm[j] = perm[j], perm[h]
        piv = rows[h]
        rows = [x ^ piv if x & bit else x for x in rows]
        rows[h] = piv
        h += 1
    a = w.take(perm, axis=1)
    x = fq.unpack_rows([row >> N for row in rows[:h]], s)
    b = arith._dot(x, a.reshape(s, N * arith.D)).reshape(h, N, arith.D)
    for _ in range((arith.upsilon - 1).bit_length()):  # ceil(log2 upsilon)
        b = (2 * b - arith.matmul(b[:, :h], b)) % char
    a2 = a.take(order[h:], axis=0)
    if h < s:
        a2 = (a2 - arith.matmul(a2[:, :h], b)) % char
    return np.concatenate([b, a2]), np.array(perm, dtype=np.intp), h


def _factor_residue_f2_stack(arith, w, n):
    """:func:`_factor_residue_f2` of every matrix of a canonical stack w
    (B, s, N, D) at once, pivots in the first n columns.

    The residue rows are a boolean (B, s, N + s) array with the identity
    bits after column N.  Step h runs the packed loop's step h on every
    word that still has a unit in its rows h.. and columns h..n: each word
    picks its own pivot column and row, the swaps are fancy-indexed, and
    elimination is one XOR under a per-word mask.  r is the number of
    steps a word stayed live.  The lift pads the pivot block to
    k = min(s, n) rows: rows r.. of X are 0, and the products see only
    columns < r of each word (``block``), so X A, the Newton steps and
    A2 - A21 B are batched products whose rows below r stay 0, and whose
    values equal the one-matrix kernel's.
    """
    char, D = arith.char, arith.D
    B, s, N = w.shape[:3]
    k = min(s, n)
    bits = np.zeros((B, s, N + s), dtype=bool)
    bits[:, :, :N] = arith.is_unit(w)
    bits[:, np.arange(s), N + np.arange(s)] = True
    perm = np.tile(np.arange(N), (B, 1))
    order = np.tile(np.arange(s), (B, 1))
    rank = np.zeros(B, dtype=np.intp)
    live = np.ones(B, dtype=bool)
    words = np.arange(B)
    for h in range(k):
        cols = bits[:, h:, h:n].any(axis=1)
        live &= cols.any(axis=1)
        if not live.any():
            break
        rank += live
        j = np.where(live, h + cols.argmax(axis=1), h)
        i = np.where(live, h + bits[words, h:, j].argmax(axis=1), h)
        bits[words, h], bits[words, i] = bits[words, i], bits[words, h]
        order[words, h], order[words, i] = order[words, i], order[words, h]
        bits[words, :, h], bits[words, :, j] = bits[words, :, j], bits[words, :, h]
        perm[words, h], perm[words, j] = perm[words, j], perm[words, h]
        hit = bits[:, :, h] & live[:, None]
        hit[:, h] = False
        bits ^= hit[:, :, None] & bits[:, h, None, :]
    a = np.take_along_axis(w, perm[:, None, :, None], axis=2)
    pivot = np.arange(s) < rank[:, None]
    block = (np.arange(k) < rank[:, None])[:, None, :, None]
    x = bits[:, :k, N:] & pivot[:, :k, None]
    b = arith._dot(x, a.reshape(B, s, N * D)).reshape(B, k, N, D)
    for _ in range((arith.upsilon - 1).bit_length()):  # ceil(log2 upsilon)
        square = arith.matmul(b[:, :, :k] * block, b)
        b *= 2
        b -= square
        b %= char
    out = np.take_along_axis(a, order[:, :, None, None], axis=1)
    out -= arith.matmul(out[:, :, :k] * block, b)
    out %= char
    out[:, :k] = np.where(pivot[:, :k, None, None], b, out[:, :k])
    return out, perm, rank


def _with_identity(arith, a):
    """(A | I_k) for A of shape (..., k, n, D): the matrix whose unit-pivot
    elimination records the row operations in its last k columns."""
    a = np.asarray(a, dtype=np.int64)
    k = a.shape[-3]
    eye = np.zeros(a.shape[:-3] + (k, k, a.shape[-1]), dtype=np.int64)
    eye[..., np.arange(k), np.arange(k), :] = arith.one
    return np.concatenate([a, eye], axis=-2)


def column_jordan(arith, b, exc=NotFree):
    """T (n x n, invertible) with B T = (I_r | 0) for B with independent rows,
    or the stack of them for a stack of such B (..., r, n, D).

    Row reduction of (B^T | I_n) with pivots in B^T's r columns gives
    (U B^T | U) with U B^T = (I_r; 0), so T = U^T.  Raises ``exc`` when
    fewer than r pivots are units, which happens exactly when the rows
    are not linearly independent over the local ring; otherwise no column
    of B^T moved, since a column without a unit pivot never gains one.
    """
    bt = np.swapaxes(np.asarray(b, dtype=np.int64), -3, -2)
    r = bt.shape[-2]
    w, _, rank = unit_pivot_factor(arith, _with_identity(arith, bt), ncols=r)
    if np.any(rank < r):
        raise exc("rows are not linearly independent over the ring")
    return np.swapaxes(w[..., r:, :], -3, -2)


def gauss_inverse(arith, m, exc=NotFree):
    """Inverse of a square matrix over a local arithmetic: Gauss-Jordan
    with unit pivots on (M | I), whose right block becomes M^-1."""
    k = np.shape(m)[0]
    w, _, r = unit_pivot_factor(arith, _with_identity(arith, m), ncols=k)
    if r < k:
        raise exc("matrix is not invertible over the ring")
    return w[:, k:]


# ---------------------------------------------------------------------------
# submodules of R^n


class Submodule:
    """A finitely generated R-submodule of R^n, stored by generators."""

    def __init__(self, ring: LocalRingDesc, ambient: int, gens):
        self.ring = ring
        self.ambient = ambient
        gens = np.asarray(gens, dtype=np.int64)
        if gens.size == 0:
            gens = gens.reshape(0, ambient, ring.D)
        if gens.ndim == 2 and ring.D == 1:
            gens = gens[..., None]
        if gens.ndim != 3 or gens.shape[1] != ambient or gens.shape[2] != ring.D:
            raise AmbientMismatch(
                f"generators must be rows of length {ambient} over the ring")
        self.gens = gens % ring.char
        self._jordan = None
        self._reduced: Optional[np.ndarray] = None
        self._howell = None
        self._member_form = None

    @classmethod
    def zero(cls, ring, ambient):
        return cls(ring, ambient, np.zeros((0, ambient, ring.D), dtype=np.int64))

    @classmethod
    def full(cls, ring, ambient):
        gens = np.zeros((ambient, ambient, ring.D), dtype=np.int64)
        idx = np.arange(ambient)
        gens[idx, idx] = ring.one
        return cls(ring, ambient, gens)

    def jordan(self):
        """(W, perm, r) of :func:`unit_pivot_factor` on the generators."""
        if self._jordan is None:
            self._jordan = unit_pivot_factor(self.ring, self.gens)
        return self._jordan

    def _jordan_rows(self, stop=None) -> np.ndarray:
        """Rows of W up to ``stop``, with the column permutation undone."""
        w, perm, _ = self.jordan()
        return _unpermuted_rows(w[None], perm[None], stop)[0]

    def reduced_gens(self) -> np.ndarray:
        """Nonzero Jordan rows: a smaller generating set for the module."""
        if self._reduced is None:
            rows = self._jordan_rows()
            self._reduced = rows[rows.any(axis=(1, 2))]
        return self._reduced

    def basis(self) -> np.ndarray:
        r, free = free_module_test(self)
        if not free:
            raise NotFree("module is not free; it has no basis")
        return self._jordan_rows(r)

    def is_zero(self) -> bool:
        return not self.gens.any()

    def _ambient_vector(self, v):
        v = _as_vector(self.ring, v)
        if v.shape[0] != self.ambient:
            raise AmbientMismatch("vector length does not match the ambient space")
        return v

    def _member_solve(self, v):
        """x over R0 (expanded as by ``expand_vector``) with x . gens = v,
        or None when v is not a member."""
        ring = self.ring
        v = self._ambient_vector(v)
        if not self.gens.any():
            return None if v.any() else np.zeros(
                (self.gens.shape[0] * ring.gamma, ring.mu), dtype=np.int64)
        if self._member_form is None:
            self._member_form = ring.solve_form(self.gens)
        return self._member_form.member_solve(ring.expand_vector(v))

    def contains(self, v) -> bool:
        """Membership by greedy reduction against the cached Howell form of
        the generators' R0-expansion, which carries no block of columns
        tracking coefficients (only :meth:`coefficients_of` needs one)."""
        ring = self.ring
        v = self._ambient_vector(v)
        if not self.gens.any():
            return not v.any()
        if self._howell is None:
            self._howell = ring.chain.howell(ring.expand_rows(self.gens))
        return self._howell.member_solve(ring.expand_vector(v)) is not None

    def coefficients_of(self, v):
        """Coefficients x with x . gens = v, or None when v is not a member."""
        w = self._member_solve(v)
        return None if w is None else self.ring.contract_vectors(w)

    def equals(self, other: "Submodule") -> bool:
        """Submodule equality by mutual membership of generators."""
        if self.ambient != other.ambient or self.ring is not other.ring:
            raise AmbientMismatch("modules live in different ambient spaces")
        return (all(other.contains(g) for g in self.reduced_gens())
                and all(self.contains(g) for g in other.reduced_gens()))

    def sum(self, other: "Submodule") -> "Submodule":
        if self.ambient != other.ambient or self.ring is not other.ring:
            raise AmbientMismatch("modules live in different ambient spaces")
        return Submodule(self.ring, self.ambient,
                         np.concatenate([self.gens, other.gens], axis=0))

    def elements(self, cap=2 ** 20) -> np.ndarray:
        """All module elements (for small rings/tests); shape (count, n, D)."""
        ring = self.ring
        cur = np.zeros((1, self.ambient, ring.D), dtype=np.int64)
        all_scalars = ring.enumerate_elements()
        for g in self.reduced_gens():
            scaled = ring.mul(all_scalars[:, None, :], g[None, :, :])
            cur = (cur[None, :, :, :] + scaled[:, None, :, :]).reshape(
                -1, self.ambient, ring.D) % ring.char
            cur = np.unique(cur.reshape(cur.shape[0], -1), axis=0).reshape(
                -1, self.ambient, ring.D)
            if cur.shape[0] > cap:
                raise MemoryError("module too large to enumerate")
        return cur

    def __repr__(self):
        return (f"Submodule({self.ring.spec_string}, ambient={self.ambient}, "
                f"gens={self.gens.shape[0]})")


# ---------------------------------------------------------------------------
# linear systems


@dataclass
class SolutionSet:
    """Complete solution set of a linear system over R: the affine set
    particular + span(kernel_gens); particular None means inconsistent."""

    ring: LocalRingDesc
    particular: Optional[np.ndarray]
    kernel_gens: np.ndarray

    @property
    def is_consistent(self) -> bool:
        return self.particular is not None

    def all_solutions(self, cap=2 ** 16) -> np.ndarray:
        """Enumerate the full solution set (tests/small systems)."""
        if self.particular is None:
            return np.zeros((0,) + self.kernel_gens.shape[1:], dtype=np.int64)
        n = self.particular.shape[0]
        ker = Submodule(self.ring, n, self.kernel_gens).elements(cap)
        return (ker + self.particular[None]) % self.ring.char


def solve_linear(ring: LocalRingDesc, a, b) -> SolutionSet:
    """Solve A x = b over R with the complete solution set.

    Each unknown is expanded over the Galois subring R0 (gamma unknowns per
    entry), the expanded chain-ring system is brought to Howell form, and
    the particular solution plus homogeneous kernel generators are mapped
    back to R^n.
    """
    a = _as_matrix(ring, a)
    b = _as_vector(ring, b)
    if a.shape[0] != b.shape[0]:
        raise RingMismatch("matrix and right-hand side have mismatched heights")
    particular, kernel = ring.solve_right(a, b)
    return SolutionSet(ring, particular, kernel)


# ---------------------------------------------------------------------------
# rank and freeness


def free_module_test(n_mod: Submodule):
    """(free rank, is the module free): the unit-pivot count r of the
    Jordan form W, and the vanishing of W's rows below r."""
    w, _, r = n_mod.jordan()
    return r, not w[r:].any()


def free_rank(n_mod: Submodule) -> int:
    """Free rank via the residue field: the F_q-rank of the projected
    generator matrix."""
    ring = n_mod.ring
    if n_mod.gens.shape[0] == 0:
        return 0
    codes = ring.residue_codes(n_mod.gens)
    return ring.residue_field.matrix_rank(codes)


def module_rank(n_mod: Submodule) -> int:
    """Minimal number of generators: dim_{F_q} N/mN (Nakayama).  For a
    free module it is the free rank; otherwise it is log_q|N| - log_q|mN|,
    both sizes counted by :func:`_log_size`."""
    r, free = free_module_test(n_mod)
    if free:
        return r
    ring = n_mod.ring
    gens = n_mod.reduced_gens()
    m_gens = ring.mul(np.array(ring.maximal_ideal_gens)[:, None, None, :], gens[None])
    return _log_size(ring, gens) - _log_size(ring, m_gens.reshape(-1, n_mod.ambient, ring.D))


def _log_size(ring: LocalRingDesc, gens) -> int:
    """log_q of the size of the row module of ``gens``: the sum of s - v
    over the pivots p^v of the Howell form of its R0-expansion.  By the
    Howell property, the members that vanish left of a pivot's column hold
    the ideal (p^v) of R0 there, of size q^(s-v)."""
    if gens.shape[0] == 0:
        return 0
    return sum(ring.s - v for v in ring.chain.howell(ring.expand_rows(gens)).vals)


# ---------------------------------------------------------------------------
# intersections


def _unpermuted_rows(w, perm, stop):
    """Rows up to ``stop`` of stacked Jordan forms w (B, s, n, D), with
    their column permutations perm (B, n) undone."""
    out = np.empty_like(w[:, :stop])
    out[np.arange(len(perm))[:, None], :, perm] = w[:, :stop].swapaxes(1, 2)
    return out


def _free_complement(ring, w, perm, r) -> np.ndarray:
    """T2 (n x (n-r)) with y in G iff y T2 = 0, for G free of rank r, from
    its Jordan form (w, perm, r), or stacked T2 from stacked Jordan forms
    with one r: W is (I_r | X) on the permuted columns, so T2 = [-X; I]
    with rows placed by perm."""
    n = w.shape[-2]
    rows = np.zeros(w.shape[:-3] + (n, n - r, ring.D), dtype=np.int64)  # in perm order
    rows[..., :r, :, :] = ring.neg(w[..., :r, r:, :])
    rows[..., np.arange(r, n), np.arange(n - r), :] = ring.one
    t2 = np.empty_like(rows)
    t2[(perm,) if perm.ndim == 1 else (np.arange(len(perm))[:, None], perm)] = rows
    return t2


def intersect_with_free(n_mod: Submodule, g_mod: Submodule) -> Submodule:
    """N intersected with a free module G.

    y = x Ngens lies in G iff x (Ngens T2) = 0 for G's complement T2 (see
    :func:`_free_complement`), and the intersection is the image of the
    left kernel of Ngens T2.  Costs O(n^2 max(gamma^3 s, r)) base-ring
    operations for s generators of N.
    """
    ring = n_mod.ring
    if n_mod.ambient != g_mod.ambient or ring is not g_mod.ring:
        raise AmbientMismatch("modules live in different ambient spaces")
    r, is_free = free_module_test(g_mod)
    if not is_free:
        raise NotFree("second operand must be a free module")
    if r == 0 or n_mod.is_zero():
        return Submodule.zero(ring, n_mod.ambient)
    if r == n_mod.ambient:
        return Submodule(ring, n_mod.ambient, n_mod.gens)
    ngens = n_mod.reduced_gens()
    kernel = ring.left_kernel(ring.matmul(ngens, _free_complement(ring, *g_mod.jordan())))
    if kernel.shape[0] == 0:
        return Submodule.zero(ring, n_mod.ambient)
    return Submodule(ring, n_mod.ambient, ring.matmul(kernel, ngens))


def intersect_preimages(ext, g_mod: Submodule, scalars) -> Submodule:
    """G intersected with {y : a y in G} for every a in ``scalars``, for a
    free submodule G of S (as R^m); for units a these are the a^-1 G.

    With B G's Jordan basis and T2 its complement, y = x B lies in
    {y : a y in G} iff x (vec(a B) T2) = 0.  So the intersection is K B for
    K the left kernel of Z = [vec(a_i B) T2 for every a_i], of shape
    r x (#scalars)(m - r): one kernel, and no elimination of any a^-1 G.
    """
    ring = ext.base
    if g_mod.ring is not ring or g_mod.ambient != ext.m:
        raise AmbientMismatch("the module must live in R^m over the extension's base ring")
    r, is_free = free_module_test(g_mod)
    if not is_free:
        raise NotFree("the module must be free")
    scalars = np.asarray(scalars, dtype=np.int64).reshape(-1, ext.D)
    basis = g_mod.basis()
    if r == 0 or r == ext.m or scalars.shape[0] == 0:
        return Submodule(ring, ext.m, basis)
    t2 = _free_complement(ring, *g_mod.jordan())
    kernel = ring.left_kernel(_meet_matrix(ext, basis, t2, scalars))
    return Submodule(ring, ext.m, ring.matmul(kernel, basis))


def _meet_matrix(ext, basis, t2, scalars):
    """Z = [vec(a_i B) T2 for every a_i], of shape (..., r, ell (m - r), D),
    for a basis B (..., r, m, D) of a free G with complement T2, or stacks
    of them: x Z = 0 iff x B lies in every {y : a_i y in G}."""
    ring = ext.base
    lead, (r, m, d) = basis.shape[:-3], basis.shape[-3:]
    ell = scalars.shape[-2]
    scaled = ext._dot(ext.unrep(basis)[..., None, :, :], ext.mul_matrices(scalars))
    z = ring.matmul(ext.vec_rep(scaled).reshape(lead + (ell * r, m, d)), t2)
    z = np.swapaxes(z.reshape(lead + (ell, r, m - r, d)), -4, -3)
    return z.reshape(lead + (r, ell * (m - r), d))


def general_intersection(n1: Submodule, n2: Submodule) -> Submodule:
    """Intersection of two arbitrary submodules via the combined kernel
    x1 G1 - x2 G2 = 0 (fallback when neither operand is known free)."""
    ring = n1.ring
    if n1.ambient != n2.ambient or ring is not n2.ring:
        raise AmbientMismatch("modules live in different ambient spaces")
    g1 = n1.reduced_gens()
    g2 = n2.reduced_gens()
    if g1.shape[0] == 0 or g2.shape[0] == 0:
        return Submodule.zero(ring, n1.ambient)
    stacked = np.concatenate([g1, (-g2) % ring.char], axis=0)
    kernel = ring.left_kernel(stacked)
    if kernel.shape[0] == 0:
        return Submodule.zero(ring, n1.ambient)
    gens = ring.matmul(kernel[:, :g1.shape[0], :], g1)
    return Submodule(ring, n1.ambient, gens)


# ---------------------------------------------------------------------------
# products of submodules of the extension


def module_product(ext, a_mod: Submodule, b_mod: Submodule) -> Submodule:
    """Product module AB inside S: generated by the pairwise products of
    the generators (sufficient, since generators span)."""
    ring = ext.base
    if a_mod.ring is not ring or b_mod.ring is not ring:
        raise RingMismatch("submodules are not over the extension's base ring")
    if a_mod.ambient != ext.m or b_mod.ambient != ext.m:
        raise AmbientMismatch("support modules must live in R^m")
    ga = a_mod.reduced_gens()
    gb = b_mod.reduced_gens()
    if ga.shape[0] == 0 or gb.shape[0] == 0:
        return Submodule.zero(ring, ext.m)
    ea = ext.unrep(ga)
    eb = ext.unrep(gb)
    prods = ext.mul(ea[:, None, :], eb[None, :, :]).reshape(-1, ext.D)
    return Submodule(ring, ext.m, ext.vec_rep(prods))


def scale_module(ext, n_mod: Submodule, s_elem) -> Submodule:
    """The module s * N = {s x : x in N} for an extension element s."""
    gens = n_mod.reduced_gens()
    if gens.shape[0] == 0:
        return Submodule.zero(ext.base, ext.m)
    elems = ext.unrep(gens)
    scaled = ext.mul(elems, np.asarray(s_elem)[None, :])
    return Submodule(ext.base, ext.m, ext.vec_rep(scaled))


# ---------------------------------------------------------------------------
# counting and sampling


def count_independent_tuples(ring: LocalRingDesc, n: int, r: int) -> int:
    """Number of r-tuples of linearly independent vectors in R^n:
    q^((upsilon-1) n r) * prod_{i<r} (q^n - q^i), as an exact integer."""
    if r < 0 or r > n:
        raise BadRank("need 0 <= r <= n")
    q, ups = ring.q, ring.upsilon
    return q ** ((ups - 1) * n * r) * prod(q ** n - q ** i for i in range(r))


def count_free_submodules(ring: LocalRingDesc, n: int, r: int) -> int:
    """Number of free rank-r submodules of R^n (tuples up to GL_r(R))."""
    if r < 0 or r > n:
        raise BadRank("need 0 <= r <= n")
    return count_independent_tuples(ring, n, r) // count_independent_tuples(ring, r, r)


def sample_free_submodule(ring: LocalRingDesc, ambient: int, rank: int,
                          rng) -> Submodule:
    """Uniform sample from the free rank-``rank`` submodules of R^ambient:
    :func:`sample_free_submodules` on the one generator ``rng``.

    Two stages: a uniform rank-dimensional subspace of F_q^ambient (via a
    uniform full-rank residue matrix, represented by its unique RREF), then
    a uniform lift.  Each module with residue image V has exactly one basis
    whose pivot-column block is the exact identity and whose remaining
    entries reduce to the RREF entries; choosing those entries uniformly
    among lifts (q^((upsilon-1) r (n-r)) per module, the same for every
    residue image) makes the two-stage scheme uniform.  Raises
    GenerationFailed after SAMPLE_ATTEMPTS residue matrices of lower rank.
    """
    gens, failure = sample_free_submodules(ring, ambient, rank, [rng])
    if failure is not None:
        raise failure
    return Submodule(ring, ambient, gens[0])


def sample_free_submodules(ring: LocalRingDesc, ambient: int, rank: int, rngs):
    """:func:`sample_free_submodule` for every generator of ``rngs``, in
    lockstep: (gens, failure), where gens (B, rank, ambient, D) holds the
    basis that sample_free_submodule draws from each generator, which is
    left where sample_free_submodule leaves it.

    In each round every generator still sampling draws its residue matrix,
    and one stacked RREF keeps those of full rank; then each draws its lift
    of the RREF.  A generator draws at most SAMPLE_ATTEMPTS residue
    matrices.  If one draws them all in vain, failure is the
    GenerationFailed that sample_free_submodule raises, and gens stops
    before the first such generator: the generators from there on are left
    anywhere.  Otherwise failure is None.
    """
    if rank < 0 or rank > ambient:
        raise BadRank(f"rank must lie in [0, {ambient}]")
    if rank == 0:
        return np.zeros((len(rngs), 0, ambient, ring.D), dtype=np.int64), None
    field = ring.residue_field
    digits = np.zeros((len(rngs), rank, ambient, field.mu), dtype=np.int64)
    pivots = np.zeros((len(rngs), rank), dtype=np.intp)
    todo = np.arange(len(rngs))
    for attempt in range(SAMPLE_ATTEMPTS):
        if not todo.size:
            break
        codes = np.array([rngs[j].integers(0, ring.q, size=(rank, ambient))
                          for j in todo.tolist()])
        rows, piv, r = field.rref(codes)
        good = r == rank
        if attempt == 0:  # every generator in order: no scatter
            digits, pivots = rows, piv
        else:
            digits[todo[good]] = rows[good]
            pivots[todo[good]] = piv[good]
        todo = todo[~good]
    failure = None
    if todo.size:
        failure = GenerationFailed("could not sample a full-rank residue matrix")
        digits, pivots = digits[:todo[0]], pivots[:todo[0]]
    gens = np.empty(digits.shape[:3] + (ring.D,), dtype=np.int64)
    for i, rng in enumerate(rngs[:len(gens)]):
        gens[i] = ring.rand_ideal(rng, (rank, ambient))
    gens += digits @ ring._psi_lift % ring.p
    gens %= ring.char
    b = np.arange(len(gens))[:, None]
    gens[b, :, pivots] = 0
    gens[b, np.arange(rank), pivots] = ring.one
    return gens, failure


# ---------------------------------------------------------------------------
# square property and factor recovery


class SquarePropertyReport:
    """Outcome of the square-property check for a module F containing 1.

    ``beta2``, the rank of F^2, may be given as a function of no arguments;
    it is then computed on first read (code generation never reads it).
    """

    def __init__(self, has_square_property: bool,
                 suitable_basis: Optional[np.ndarray], beta2, i0: Optional[int]):
        self.has_square_property = has_square_property
        self.suitable_basis = suitable_basis  # (lambda, D_S) extension elements, b1 = 1
        self._beta2 = beta2
        self.i0 = i0  # witness index, 1-based as in the defining condition

    @property
    def beta2(self) -> int:
        if callable(self._beta2):
            self._beta2 = self._beta2()
        return self._beta2


def square_property_check(ext, f_mod: Submodule) -> SquarePropertyReport:
    """Check the square property of F and produce a suitable basis.

    The suitable basis is F's Jordan basis, whose first element is 1; then
    a witness index i0 with F intersect (b_i0 F') = 0 is searched for
    (:func:`square_witnesses`).
    """
    one_vec = ext.vec_rep(ext.one)
    lam, is_free = free_module_test(f_mod)
    # For a free F, 1 in F makes some generator a unit in column 0, so the
    # Jordan form pivots there first (perm[0] = 0).  Its basis rows have
    # b_i[perm[j]] = delta_ij for j < lam, so 1 = e_0 = sum_i one_vec[perm[i]]
    # b_i = b_1: 1 is in F iff the first basis row is 1.
    if is_free:
        vecs = f_mod.basis()
        has_one = lam > 0 and np.array_equal(vecs[0], one_vec)
    else:
        has_one = f_mod.contains(one_vec)
    if not has_one:
        raise OneNotInModule("the module does not contain 1")
    def beta2():
        return module_rank(module_product(ext, f_mod, f_mod))

    if not is_free:
        return SquarePropertyReport(False, None, beta2, None)
    basis = ext.unrep(vecs)
    has, i0 = square_witnesses(ext, basis[None])
    if not has[0]:
        return SquarePropertyReport(False, None, beta2, None)
    return SquarePropertyReport(True, basis, beta2, int(i0[0]) or None)


def square_witnesses(ext, basis):
    """The square property of a stack of free modules F containing 1, given
    by their Jordan bases (B, lambda, D_S) with b_1 = 1: (has, i0), where
    i0[j] is the least i0 in 2..lambda with F intersect b_i0 F' = 0 for
    F' = <b_2, ..., b_lambda> (0 if there is none, and when lambda = 1,
    where F has the property), and has[j] says whether F_j has it.

    A basis element is a unit of S, so b_i0 F' is free of rank lambda - 1,
    and the intersection is 0 iff the 2 lambda - 1 rows b_1, ..., b_lambda,
    b_i0 b_2, ..., b_i0 b_lambda have no nontrivial relation over R.  Over
    a finite local ring that holds iff their residues are independent over
    F_q: if those are dependent, unit-pivot elimination leaves a
    combination with a unit coefficient inside m R^m, which a nonzero
    element of the annihilator of m turns into a nontrivial relation.  So
    each i0 costs one stacked residue rank.
    """
    ring = ext.base
    b, lam = basis.shape[:2]
    i0 = np.zeros(b, dtype=np.intp)
    for i in range(2, lam + 1):
        todo = np.flatnonzero(i0 == 0)
        if not todo.size:
            break
        rows = np.concatenate([basis[todo], ext.mul(basis[todo, i - 1, None], basis[todo, 1:])],
                              axis=1)
        ranks = ring.residue_field.matrix_rank(ring.residue_codes(ext.vec_rep(rows)))
        i0[todo[ranks == 2 * lam - 1]] = i
    return (i0 > 0) | (lam == 1), i0


def recover_factor(ext, ab_mod: Submodule, report: SquarePropertyReport) -> Submodule:
    """Recover A from AB and a module B with the square property, as the
    intersection of the modules b_i^{-1} (AB) over the suitable basis.

    The b_i are basis elements of a free module, so they have nonzero
    residue and are units: b_i^{-1} AB = {y : b_i y in AB}, and for a free
    AB the intersection is one :func:`intersect_preimages`.  A non-free AB
    has non-free scalings, which are intersected one by one.  Exact
    recovery holds when frk(A B^2) = rank(A) * beta2; otherwise the
    result is a module containing A (documented failure mode).
    """
    if not report.has_square_property or report.suitable_basis is None:
        raise NoSuitableBasis("module lacks a suitable basis")
    scalars = report.suitable_basis[1:]
    if free_module_test(ab_mod)[1]:
        return intersect_preimages(ext, ab_mod, scalars)
    result = ab_mod
    for b in scalars:
        result = general_intersection(result, scale_module(ext, ab_mod, ext.inverse(b)))
    return result
