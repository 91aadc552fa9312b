"""Module linear algebra over a finite commutative local ring R.

Linear systems over R are expanded into systems over the maximal Galois
subring R0 (one block per basis element z_l) and solved completely by the
Howell-form machinery of the chain module.  Free-rank and freeness are
decided by the unit-pivot factorization A = P T Q, whose pivot count
equals the rank of the residue-projected generators.  On top of that sit
the intersection, product, counting, sampling and product-recovery
operations used by the decoder.

Matrices over R are numpy arrays of shape (rows, cols, D); vectors are
(cols, D).  A Submodule of R^n stores a generator matrix and lazily
caches its factorization, free rank and membership form (the caches are
write-once, so concurrent readers are safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .errors import (AmbientMismatch, BadRank, NoSuitableBasis, NotFree,
                     OneNotInModule, RingMismatch)
from .rings import LocalRingDesc


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
# unit-pivot factorization  A = P T Q


@dataclass
class TriFactorization:
    """A = P T Q with P invertible, Q a column permutation, and
    T = [[T1, T2], [0, T3]]: T1 upper uni-triangular of size r, every entry
    of T3 a non-unit.  ``perm`` maps T's column j to A's column perm[j].
    P/Pinv are tracked on request only (rank queries do not need them)."""

    arith: object
    P: Optional[np.ndarray]
    Pinv: Optional[np.ndarray]
    T: np.ndarray
    perm: np.ndarray
    r: int

    @property
    def t3_zero(self) -> bool:
        return not self.T[self.r:].any()

    def tq_rows(self) -> np.ndarray:
        """Rows of T Q, i.e. T with columns moved back to A's order."""
        out = np.zeros_like(self.T)
        out[:, self.perm] = self.T
        return out

    def reconstruct(self) -> np.ndarray:
        """P T Q; equals the factored matrix exactly."""
        if self.P is None:
            raise NotFree("factorization was computed without P tracking")
        pt = self.arith.matmul(self.P, self.T)
        out = np.zeros_like(pt)
        out[:, self.perm] = pt
        return out


def unit_pivot_factor(arith, a, track_p: bool = True) -> TriFactorization:
    """Factor A = P T Q by elimination with unit pivots.

    Works over any local arithmetic (base ring or extension): an entry is
    a pivot candidate iff it is a unit, everything left over lands in the
    T3 block with entries in the maximal ideal.  Column scanning is
    left-to-right, rows top-down, matching the elimination order of the
    free-module test.
    """
    a = np.asarray(a, dtype=np.int64) % arith.char
    s, n = a.shape[0], a.shape[1]
    d = a.shape[2]
    t = a.copy()
    p_mat = p_inv = None
    if track_p:
        p_mat = np.zeros((s, s, d), dtype=np.int64)
        p_inv = np.zeros((s, s, d), dtype=np.int64)
        idx = np.arange(s)
        p_mat[idx, idx] = arith.one
        p_inv[idx, idx] = arith.one
    perm = np.arange(n)
    h = 0
    while h < s and h < n:
        units = arith.is_unit(t[h:, h:])
        unit_cols = np.nonzero(units.any(axis=0))[0]
        if unit_cols.size == 0:
            break
        col = h + int(unit_cols[0])
        row = h + int(np.argmax(units[:, unit_cols[0]]))
        if row != h:
            t[[h, row]] = t[[row, h]]
            if track_p:
                p_inv[[h, row]] = p_inv[[row, h]]
                p_mat[:, [h, row]] = p_mat[:, [row, h]]
        if col != h:
            t[:, [h, col]] = t[:, [col, h]]
            perm[[h, col]] = perm[[col, h]]
        u = t[h, h].copy()
        ui = arith.inverse(u)
        t[h] = arith.mul(t[h], ui)
        if track_p:
            p_inv[h] = arith.mul(p_inv[h], ui)
            p_mat[:, h] = arith.mul(p_mat[:, h], u)
        if h + 1 < s:
            coefs = t[h + 1:, h].copy()
            if coefs.any():
                t[h + 1:] = (t[h + 1:] - arith.mul(coefs[:, None, :], t[h][None, :, :])) % arith.char
                if track_p:
                    p_inv[h + 1:] = (p_inv[h + 1:] - arith.mul(coefs[:, None, :], p_inv[h][None, :, :])) % arith.char
                    delta = arith.mul(p_mat[:, h + 1:, :], coefs[None, :, :])
                    p_mat[:, h] = (p_mat[:, h] + delta.sum(axis=1)) % arith.char
        h += 1
    return TriFactorization(arith, p_mat, p_inv, t, perm, h)


def column_jordan(arith, b, exc=NotFree):
    """T (n x n, invertible) with B T = (I_r | 0) for B with independent rows.

    The column operations run on B stacked over I_n, whose lower block
    becomes T.  Raises ``exc`` when some row cannot produce a unit pivot,
    which happens exactly when the rows are not linearly independent over
    the local ring.
    """
    b = np.asarray(b, dtype=np.int64) % arith.char
    r, n = b.shape[0], b.shape[1]
    w = np.zeros((r + n, n, b.shape[2]), dtype=np.int64)
    w[:r] = b
    w[r + np.arange(n), np.arange(n)] = arith.one
    for i in range(r):
        units = np.nonzero(arith.is_unit(w[i, i:]))[0]
        if units.size == 0:
            raise exc("rows are not linearly independent over the ring")
        punit = i + int(units[0])
        if punit != i:
            w[:, [i, punit]] = w[:, [punit, i]]
        w[:, i] = arith.mul(w[:, i], arith.inverse(w[i, i]))
        coefs = w[i].copy()
        coefs[i] = 0
        if coefs.any():
            w = (w - arith.mul(coefs[None, :, :], w[:, i][:, None, :])) % arith.char
    return w[r:]


def row_jordan(arith, a, ncols=None):
    """Gauss-Jordan elimination of the rows of A with unit pivots.

    Pivots are sought in the first ``ncols`` columns (all by default) by
    the rule of :func:`unit_pivot_factor`: the leftmost column with a unit
    at or below the current row, and the topmost unit row in it; a column
    swap brings each pivot to the front.  Returns (W, perm, r) with
    W = U A[:, perm] for an invertible U, W[:, :r] = (I_r; 0) and no unit
    left in W[r:, r:ncols]; ``perm`` maps W's column j to A's column
    perm[j].  For A = (A1 | A2) with A1 invertible of size r, W[:, r:]
    is A1^-1 A2.
    """
    w = np.asarray(a, dtype=np.int64) % arith.char
    s, n = w.shape[0], w.shape[1] if ncols is None else ncols
    perm = np.arange(w.shape[1])
    h = 0
    while h < s and h < n:
        units = arith.is_unit(w[h:, h:n])
        unit_cols = np.nonzero(units.any(axis=0))[0]
        if unit_cols.size == 0:
            break
        col = h + int(unit_cols[0])
        row = h + int(np.argmax(units[:, unit_cols[0]]))
        if row != h:
            w[[h, row]] = w[[row, h]]
        if col != h:
            w[:, [h, col]] = w[:, [col, h]]
            perm[[h, col]] = perm[[col, h]]
        # columns left of h are unit vectors, zero in row h: skip them
        w[h, h:] = arith.mul(w[h, h:], arith.inverse(w[h, h]))
        coefs = w[:, h].copy()
        coefs[h] = 0
        if coefs.any():
            w[:, h:] = (w[:, h:] - arith.mul(coefs[:, None, :], w[h, h:][None, :, :])) % arith.char
        h += 1
    return w, perm, h


def gauss_inverse(arith, m, exc=NotFree):
    """Inverse of a square matrix over a local arithmetic: Gauss-Jordan
    with unit pivots on (M | I), whose right block becomes M^-1."""
    m = np.asarray(m, dtype=np.int64) % arith.char
    k = m.shape[0]
    eye = np.zeros_like(m)
    eye[np.arange(k), np.arange(k)] = arith.one
    w, _, r = row_jordan(arith, np.concatenate([m, eye], axis=1), ncols=k)
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
        self._fact: Optional[TriFactorization] = None
        self._reduced: Optional[np.ndarray] = None
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

    def factorization(self) -> TriFactorization:
        if self._fact is None:
            self._fact = unit_pivot_factor(self.ring, self.gens, track_p=False)
        return self._fact

    def reduced_gens(self) -> np.ndarray:
        """Nonzero rows of T Q: a smaller generating set for the module."""
        if self._reduced is None:
            rows = self.factorization().tq_rows()
            if rows.shape[0] == 0:
                self._reduced = rows
            else:
                keep = rows.reshape(rows.shape[0], -1).any(axis=1)
                self._reduced = rows[keep]
        return self._reduced

    def basis(self) -> np.ndarray:
        r, free = free_module_test(self)
        if not free:
            raise NotFree("module is not free; it has no basis")
        return self.factorization().tq_rows()[:r]

    def is_zero(self) -> bool:
        return not self.gens.any()

    def contains(self, v) -> bool:
        v = _as_vector(self.ring, v)
        if v.shape[0] != self.ambient:
            raise AmbientMismatch("vector length does not match the ambient space")
        if not self.gens.any():
            return not v.any()
        if self._member_form is None:
            self._member_form = self.ring.solve_form(np.swapaxes(self.gens, 0, 1))
        return self._member_form.member_solve(self.ring.expand_vector(v)) is not None

    def coefficients_of(self, v):
        """Coefficients x with x . gens = v, or None when v is not a member."""
        v = _as_vector(self.ring, v)
        if not self.gens.any():
            return None if v.any() else np.zeros((self.gens.shape[0], self.ring.D), dtype=np.int64)
        if self._member_form is None:
            self._member_form = self.ring.solve_form(np.swapaxes(self.gens, 0, 1))
        w = self._member_form.member_solve(self.ring.expand_vector(v))
        if w is None:
            return None
        return self.ring.contract_vectors(w)

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


# SupportModule is a Submodule of R^m whose generator rows are the vector
# representations of extension elements.
SupportModule = Submodule


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
    """(free rank, is the module free): pivot count of the unit-pivot
    factorization, and the vanishing of the T3 block."""
    fact = n_mod.factorization()
    return fact.r, fact.t3_zero


def free_rank(n_mod: Submodule) -> int:
    """Free rank via the residue field: the F_q-rank of the projected
    generator matrix."""
    ring = n_mod.ring
    if n_mod.gens.shape[0] == 0:
        return 0
    codes = ring.residue_codes(n_mod.gens)
    return ring.residue_field.matrix_rank(codes)


def module_rank(n_mod: Submodule) -> int:
    """Minimal number of generators, by greedy elimination (last first).

    A generator g is redundant iff it lies in the module generated by the
    remaining generators together with m*N; over a local ring this greedy
    scan yields the rank regardless of elimination order.
    """
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


# ---------------------------------------------------------------------------
# intersections


def intersect_with_free(n_mod: Submodule, g_mod: Submodule) -> Submodule:
    """N intersected with a free module G.

    Brings a basis B of G to B T = (I_r | 0) with T invertible; then
    y = x Ngens lies in G iff x (Ngens T2) = 0, so the intersection is the
    image of the left kernel of Ngens T2.  Costs
    O(n^2 max(gamma^3 s, r)) base-ring operations for s generators of N.
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
    basis = g_mod.basis()
    t = column_jordan(ring, basis)
    t2 = t[:, r:, :]
    ngens = n_mod.reduced_gens()
    m = ring.matmul(ngens, t2)
    kernel = ring.left_kernel(m)
    if kernel.shape[0] == 0:
        return Submodule.zero(ring, n_mod.ambient)
    gens = ring.matmul(kernel, ngens)
    return Submodule(ring, n_mod.ambient, gens)


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
    """Uniform sample from the free rank-``rank`` submodules of R^ambient.

    Two stages: a uniform rank-dimensional subspace of F_q^ambient (via a
    uniform full-rank residue matrix, represented by its unique RREF), then
    a uniform lift.  Each module with residue image V has exactly one basis
    whose pivot-column block is the exact identity and whose remaining
    entries reduce to the RREF entries; choosing those entries uniformly
    among lifts (q^((upsilon-1) r (n-r)) per module, the same for every
    residue image) makes the two-stage scheme uniform.
    """
    if rank < 0 or rank > ambient:
        raise BadRank(f"rank must lie in [0, {ambient}]")
    if rank == 0:
        return Submodule.zero(ring, ambient)
    field = ring.residue_field
    while True:
        codes = rng.integers(0, ring.q, size=(rank, ambient))
        if field.matrix_rank(codes) == rank:
            break
    digits, pivots = field.rref(codes)
    gens = ring.rand_with_residue(rng, digits)
    for bi, pc in enumerate(pivots):
        gens[:, pc] = 0
        gens[bi, pc] = ring.one
    return Submodule(ring, ambient, gens)


# ---------------------------------------------------------------------------
# square property and factor recovery


@dataclass
class SquarePropertyReport:
    """Outcome of the square-property check for a module F containing 1."""

    has_square_property: bool
    suitable_basis: Optional[np.ndarray]  # (lambda, D_S) extension elements, b1 = 1
    beta2: int
    i0: Optional[int]  # witness index, 1-based as in the defining condition


def square_property_check(ext, f_mod: Submodule) -> SquarePropertyReport:
    """Check the square property of F and produce a suitable basis.

    Builds a basis with b1 = 1 (swap 1 for any basis element with a unit
    coefficient in 1's expansion), then decides via frk(F^2) = l(l+1)/2;
    when that shortcut fails, searches directly for a witness index i0
    with F intersect (b_i0 F') = 0 before reporting false.
    """
    ring = ext.base
    one_vec = ext.vec_rep(ext.one)
    if not f_mod.contains(one_vec):
        raise OneNotInModule("the module does not contain 1")
    lam, is_free = free_module_test(f_mod)
    f2 = module_product(ext, f_mod, f_mod)
    beta2 = module_rank(f2)
    if not is_free:
        return SquarePropertyReport(False, None, beta2, None)
    basis_vecs = f_mod.basis()
    coeffs = Submodule(ring, ext.m, basis_vecs).coefficients_of(one_vec)
    unit_idx = next(i for i in range(lam)
                    if np.atleast_1d(ring.is_unit(coeffs[i]))[0])
    order = [unit_idx] + [i for i in range(lam) if i != unit_idx]
    basis = np.array([ext.one] + [ext.unrep(basis_vecs[i]) for i in order[1:]],
                     dtype=np.int64)
    if lam == 1:
        return SquarePropertyReport(True, basis, beta2, None)
    frk_f2 = free_rank(f2)
    shortcut = frk_f2 == lam * (lam + 1) // 2
    f_prime = Submodule(ring, ext.m, ext.vec_rep(basis[1:]))
    witness = None
    for i0 in range(2, lam + 1):
        scaled = scale_module(ext, f_prime, basis[i0 - 1])
        if general_intersection(f_mod, scaled).is_zero():
            witness = i0
            break
    if shortcut and witness is None:  # pragma: no cover - excluded by theory
        raise AssertionError("square-property shortcut contradicts witness search")
    if witness is None:
        return SquarePropertyReport(False, None, beta2, None)
    return SquarePropertyReport(True, basis, beta2, witness)


def recover_factor(ext, ab_mod: Submodule, report: SquarePropertyReport) -> Submodule:
    """Recover A from AB and a module B with the square property, as the
    intersection of the modules b_i^{-1} (AB) over the suitable basis.

    Exact recovery holds when frk(A B^2) = rank(A) * beta2; otherwise the
    result is a module containing A (documented failure mode).
    """
    if not report.has_square_property or report.suitable_basis is None:
        raise NoSuitableBasis("module lacks a suitable basis")
    result = ab_mod
    for b in report.suitable_basis[1:]:
        binv = ext.inverse(b)
        scaled = scale_module(ext, ab_mod, binv)
        _, scaled_free = free_module_test(scaled)
        if scaled_free:
            result = intersect_with_free(result, scaled)
        else:
            result = general_intersection(result, scaled)
    return result
