"""Structure-tensor arithmetic, and complete linear algebra over Galois rings.

Every ring here (Galois rings, finite local rings, their Galois
extensions) is a finite local ring that is free over Z_{p^s} with bilinear
multiplication.  `TensorAlgebra` holds that arithmetic once: elements are
numpy arrays whose trailing axis holds the D coordinates, reduced mod p^s,
and (a*b)_k = sum_ij a_i b_j T[i,j,k] for a precomputed (D, D, D)
structure tensor T.  All routines broadcast over leading axes.  Products
contract in float64 (one BLAS call) when every partial sum stays below
2^53, in int64 below 2^63, and refuse rings past that bound.

A Galois ring GR(p^s, mu) is a chain ring: its ideals are
(1) > (p) > ... > (p^s) = 0, so every nonzero element factors as
p^v * unit.  That structure makes a Howell-form row reduction possible,
which in turn yields *complete* solution sets of linear systems (a
particular solution plus generators of the homogeneous kernel),
membership tests for row modules, and kernels.
"""

from __future__ import annotations

import numpy as np

from . import fq
from .errors import (MalformedModulus, NotAUnit, NotPrime, RingMismatch,
                     UnsupportedRing)

# The largest rank D over Z_char a ring may have.  It bounds the dense
# (D, D, D) structure tensor and its two product views to 2 MiB each (int64
# or float64).  The workloads and tests use D <= 40.
MAX_RANK = 64


def check_rank(D, what):
    """Refuse a ring of rank D over Z_char past MAX_RANK, before any
    modulus search or tensor allocation."""
    if D > MAX_RANK:
        raise UnsupportedRing(f"{what} has rank {D} over its coefficient ring; "
                              f"at most {MAX_RANK} is supported")


def check_residue_field(p, mu, what):
    """Refuse a residue field F_q, q = p^mu, past 2^63: its elements are
    int64 codes below q, and samplers draw them with rng.integers(0, q)."""
    if p ** mu > 2 ** 63:
        raise UnsupportedRing(f"{what} has a residue field of size {p}^{mu}; "
                              "at most 2^63 is supported")


def power_basis_tensor(f, char, mul=np.multiply):
    """Structure tensor T[i, j] = x^(i+j) mod f of the power basis of A[x]/(f).

    ``f`` is monic of degree d >= 1, given by d+1 ascending coefficients
    over the coefficient ring A: integers for A = Z_char, or coordinate
    rows multiplied by ``mul``.  The result has shape (d, d, d) + f.shape[1:].
    """
    f = np.asarray(f, dtype=np.int64)
    d = len(f) - 1
    pows = np.zeros((2 * d - 1, d) + f.shape[1:], dtype=np.int64)
    pows[0, 0] = f[d]  # the leading coefficient, i.e. one
    for k in range(1, 2 * d - 1):
        pows[k, 1:] = pows[k - 1, :-1]
        pows[k] = (pows[k] - mul(pows[k - 1, -1:], f[:d])) % char
    return pows[np.add.outer(np.arange(d), np.arange(d))]


def poly_string(coeffs, var="x", spec=False):
    """Polynomial text from ascending coefficients (ints or strings; zero
    terms are dropped): "1 + 3*x^2", or with ``spec`` the compact
    highest-degree-first form of spec strings, "3*x^2+1"."""
    terms = []
    for i, c in enumerate(coeffs):
        c = str(c)
        if c == "0":
            continue
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        terms.append(c if not mono else mono if c == "1" else f"{c}*{mono}")
    if spec:
        return "+".join(reversed(terms)) or "0"
    return " + ".join(terms) or "0"


def inverse_mod(a, char):
    """Inverses mod char of the units in an int64 array, one Python pow each."""
    return np.array([pow(int(x), -1, char) for x in a.ravel()],
                    dtype=np.int64).reshape(a.shape)


class TensorAlgebra:
    """A finite local ring free of rank D over Z_char, char = p^s.

    ``q`` is the size of the residue field and ``upsilon`` a bound on the
    nilpotency index of the maximal ideal, which bounds the Newton steps of
    :meth:`inverse` (the base rings' inverse; Galois extensions invert by
    the norm instead).  Subclasses supply ``is_unit`` (the residue map) and
    may refine :meth:`coerce`, :meth:`coords` and :meth:`format_elem`.
    Instances are immutable once built and every operation is pure.

    Products take canonical operands, in [0, char).  ``dtype`` is the type
    they contract in: float64 when the largest partial sum, D^2 (char-1)^3
    for ``mul`` (or (char-1)^2 when D == 1), is below 2^53, else int64,
    and construction raises UnsupportedRing past 2^63.  Longer sums of
    products, as in ``matmul``, are split to stay below the same bound.
    """

    mismatch = RingMismatch  # raised by coerce for foreign values

    def __init__(self, char, p, q, upsilon, mult_tensor):
        self.char = char
        self.p = p
        self.q = q
        self.upsilon = upsilon
        self.mult_tensor = np.asarray(mult_tensor, dtype=np.int64) % char
        self.D = D = self.mult_tensor.shape[0]
        top = (char - 1) ** 2 * (D * D * (char - 1) if D > 1 else 1)
        if top >= 2 ** 63:
            raise UnsupportedRing(f"products over Z_{char} with D = {D} "
                                  "would overflow int64")
        self.dtype = np.float64 if top < 2 ** 53 else np.int64
        exact = 2 ** 53 if self.dtype is np.float64 else 2 ** 63
        self._dot_len = (exact - 1) // (char - 1) ** 2  # longest exact sum of products
        self._t_pairs = self.mult_tensor.reshape(D * D, D).astype(self.dtype)  # T[(i, j), k]
        self._t_rows = self.mult_tensor.reshape(D, D * D).astype(self.dtype)  # T[i, (j, k)]
        self.zero = np.zeros(self.D, dtype=np.int64)
        self.one = np.zeros(self.D, dtype=np.int64)
        self.one[0] = 1

    # -- arithmetic on coordinate arrays (..., D) --

    def add(self, a, b):
        return (np.asarray(a) + np.asarray(b)) % self.char

    def sub(self, a, b):
        return (np.asarray(a) - np.asarray(b)) % self.char

    def neg(self, a):
        return (-np.asarray(a)) % self.char

    def mul(self, a, b):
        if self.D == 1:
            return (np.asarray(a) * np.asarray(b)) % self.char
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        outer = a[..., :, None] * b[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (self.D * self.D,))
        return (outer @ self._t_pairs).astype(np.int64) % self.char

    def matmul(self, a, b):
        """Matrix product: (..., r, k, D) x (..., k, c, D) -> (..., r, c, D),
        the leading axes broadcast as in numpy's matmul.  a is reduced
        after meeting T, so the product with b sums k*D terms below char^2."""
        if self.D == 1:
            return self._dot(a[..., 0], b[..., 0])[..., None]
        (r, k, d), c = a.shape[-3:], b.shape[-2]
        at = a.reshape(-1, d).astype(self.dtype) @ self._t_rows  # [(.., r, k), (j, l)]
        at = at.astype(np.int64) % self.char
        bt = b.swapaxes(-3, -2).reshape(b.shape[:-3] + (1, c, k * d))  # [.., c, (k, j)]
        return self._dot(bt, at.reshape(a.shape[:-3] + (r, k * d, d)))

    def mul_matrices(self, a):
        """The Z_char matrices of x -> x a for canonical a of shape (..., D):
        shape (..., D, D), int64, row j holding the coordinates of e_j a,
        where e_j is the j-th basis element."""
        a = np.asarray(a)
        maps = (a.astype(self.dtype) @ self._t_rows).astype(np.int64)  # [..., (j, k)]
        maps %= self.char
        return maps.reshape(a.shape[:-1] + (self.D, self.D))

    def right_map(self, b):
        """The Z_char matrix of x -> x b for b of shape (k, c, D): shape
        (k*D, c*D), in ``dtype``, for :meth:`apply_right`, or the stack of
        them for a stack of matrices (..., k, c, D).  Row (i, j) holds the
        coordinates of e_j b[i, :], the j-th row of b[i, :]'s
        multiplication matrices."""
        (k, c, d), lead = b.shape[-3:], b.shape[:-3]
        maps = self.mul_matrices(b).swapaxes(-3, -2)  # [i, l, j, m] -> [i, j, l, m]
        return maps.astype(self.dtype, order="C").reshape(lead + (k * d, c * d))

    def apply_right(self, a, b_map):
        """a b for a of shape (..., k, D), given ``b_map = right_map(b)``:
        one vector-matrix product over Z_char, shape (..., c, D)."""
        out = self._dot(a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],)), b_map)
        return out.reshape(out.shape[:-1] + (out.shape[-1] // self.D, self.D))

    def _dot(self, x, y):
        """x @ y % char for canonical x (..., L) and y (..., L, c), summing
        at most ``_dot_len`` products at a time so that each sum is exact."""
        x = x.astype(self.dtype, copy=False)
        y = y.astype(self.dtype, copy=False)
        step = self._dot_len
        out = (x[..., :step] @ y[..., :step, :]).astype(np.int64)
        out %= self.char
        for lo in range(step, x.shape[-1], step):
            part = (x[..., lo:lo + step] @ y[..., lo:lo + step, :]).astype(np.int64)
            part %= self.char
            out += part
            out %= self.char
        return out

    def pow(self, a, e):
        """a^e by square-and-multiply; for e < 0, (a^-1)^-e, which needs a
        to be a single unit."""
        e = int(e)
        if e < 0:
            a, e = self.inverse(a), -e
        result = np.broadcast_to(self.one, np.asarray(a).shape).copy()
        base = np.asarray(a) % self.char
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a):
        """Inverse of each unit in a (..., D) array: the residue-field
        inverse a^(q-2), lifted by Newton steps b <- b (2 - a b), which fix
        an entry once it is exact.  Raises NotAUnit if any entry is not a
        unit."""
        a = np.asarray(a) % self.char
        if not self.is_unit(a).all():
            raise NotAUnit(f"{a} is not a unit of {self!r}")
        if self.D == 1:
            return inverse_mod(a, self.char)
        b = a.copy() if self.q == 2 else self.pow(a, self.q - 2)
        two = (2 * self.one) % self.char
        for _ in range(self.upsilon.bit_length() + 2):
            ab = self.mul(a, b)
            if (ab == self.one).all():
                return b
            b = self.mul(b, (two - ab) % self.char)
        raise NotAUnit("inversion failed to converge")  # pragma: no cover

    def arith(self, a, b, op: str):
        """Dispatch form of the basic operations; ``b`` is ignored for neg."""
        a = self.coerce(a)
        if op == "neg":
            return self.neg(a)
        b = self.coerce(b)
        if op == "add":
            return self.add(a, b)
        if op == "sub":
            return self.sub(a, b)
        if op == "mul":
            return self.mul(a, b)
        raise ValueError(f"unknown op {op!r}")

    # -- sampling and elements --

    def rand(self, rng, shape=()):
        return rng.integers(0, self.char, size=tuple(shape) + (self.D,), dtype=np.int64)

    def rand_unit(self, rng, shape=()):
        return self.rand_accepted(rng, shape, self.is_unit)

    def rand_accepted(self, rng, shape, accept):
        """Uniform over the elements where ``accept`` (vectorized over rows
        of coordinates) holds: each rejected entry is redrawn until it
        passes."""
        out = self.rand(rng, shape)
        flat = out.reshape(-1, self.D)
        bad = np.flatnonzero(~accept(flat))
        while bad.size:  # only the redrawn entries are tested again
            draw = rng.integers(0, self.char, size=(bad.size, self.D), dtype=np.int64)
            flat[bad] = draw
            bad = bad[~accept(draw)]
        return out

    def coerce(self, v):
        """Coordinate array from an int, coordinate array, or element."""
        if isinstance(v, RingElem):
            if v.ring is not self:
                raise self.mismatch("element belongs to a different ring")
            return v.flat
        if isinstance(v, (int, np.integer)):
            return (int(v) * self.one) % self.char
        arr = np.asarray(v, dtype=np.int64) % self.char
        if arr.shape[-1] != self.D:
            raise self.mismatch(f"expected {self.D} coordinates, got {arr.shape[-1]}")
        return arr

    def elem(self, v) -> "RingElem":
        return RingElem(self, self.coerce(v))

    def coords(self, flat):
        """The coordinates of one element, as :attr:`RingElem.coords` shows them."""
        return np.asarray(flat)

    def format_elem(self, flat):
        """Text of one element, read as a polynomial in x over the flat basis."""
        return poly_string(flat)


class RingElem:
    """A value of a TensorAlgebra: a thin wrapper over flat coordinates."""

    __slots__ = ("ring", "flat")

    def __init__(self, ring: TensorAlgebra, flat):
        self.ring = ring
        self.flat = np.asarray(flat, dtype=np.int64) % ring.char

    @property
    def coords(self):
        """Coordinates grouped over the subring the ring is presented over."""
        return self.ring.coords(self.flat)

    def _other(self, v):
        return self.ring.coerce(v)

    def __add__(self, other):
        return RingElem(self.ring, self.ring.add(self.flat, self._other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return RingElem(self.ring, self.ring.sub(self.flat, self._other(other)))

    def __rsub__(self, other):
        return RingElem(self.ring, self.ring.sub(self._other(other), self.flat))

    def __mul__(self, other):
        return RingElem(self.ring, self.ring.mul(self.flat, self._other(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.flat))

    def __pow__(self, e):
        return RingElem(self.ring, self.ring.pow(self.flat, e))

    def __eq__(self, other):
        if isinstance(other, (int, np.integer, list, tuple, np.ndarray, RingElem)):
            return np.array_equal(self.flat, self._other(other))
        return NotImplemented

    def __hash__(self):
        return hash(self.flat.tobytes())

    def is_unit(self) -> bool:
        return bool(self.ring.is_unit(self.flat))

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inverse(self.flat))

    def residue(self) -> int:
        """Image in the residue field of a local ring, as an integer code."""
        return int(self.ring.residue_codes(self.flat))

    def __repr__(self):
        return self.ring.format_elem(self.flat)


class ChainRing(TensorAlgebra):
    """GR(p^s, mu) = Z_{p^s}[x]/(h) with h monic, irreducible mod p: the
    default modulus of :func:`fq.smallest_irreducible` unless h is given,
    in which case h is checked."""

    def __init__(self, p: int, s: int, mu: int, h=None):
        if not fq.is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if s < 1 or mu < 1:
            raise MalformedModulus("need s >= 1 and mu >= 1")
        check_rank(mu, f"GR({p ** s},{mu})")
        check_residue_field(p, mu, f"GR({p ** s},{mu})")
        self.s = s
        self.mu = mu
        char = p ** s
        if h is None:
            h = fq.smallest_irreducible(fq.Fq(p), mu)
        else:
            h = [int(c) % char for c in h]
            if len(h) != mu + 1 or h[-1] != 1:
                raise MalformedModulus("modulus must be monic of the stated degree")
            if mu > 1 and not fq.irreducible(fq.Fq(p), [c % p for c in h]):
                raise MalformedModulus("modulus is not irreducible mod p")
        self.h = np.array(h, dtype=np.int64)
        super().__init__(char, p, p ** mu, s, power_basis_tensor(self.h, char))

    def __repr__(self):
        return f"ChainRing(p={self.p}, s={self.s}, mu={self.mu})"

    def is_unit(self, a):
        """Units are the elements of valuation 0: some coefficient prime to p."""
        return (np.asarray(a) % self.p).any(axis=-1)

    def val(self, a):
        """p-adic valuation of one element: min coefficient valuation, s for 0."""
        a = np.asarray(a)
        v = self.s
        for c in a.reshape(-1):
            c = int(c)
            if c == 0:
                continue
            w = 0
            while c % self.p == 0:
                c //= self.p
                w += 1
            v = min(v, w)
            if v == 0:
                return 0
        return v

    def divide_exact(self, a, v):
        """a // p^v coefficientwise; exact when val(a) >= v."""
        return np.asarray(a) // (self.p ** v)

    # ------------------------------------------------------------------
    # Howell form

    def howell(self, mat, n_main=None):
        """Howell-form reduction of the rows of ``mat``.

        ``mat`` has shape (k, n, mu).  Pivots are normalized to p^v (unit
        part scaled away); for every pivot with v > 0 the annihilator row
        p^(s-v) * row is folded back in, which is what makes greedy
        reduction against the result a complete membership test for the
        row module.

        Returns a HowellForm over all n columns.  ``n_main`` marks how many
        leading columns are "real" when ``mat`` carries augmented tracking
        columns; it is recorded on the result for the solver helpers.
        """
        mat = np.asarray(mat, dtype=np.int64) % self.char
        k, n = mat.shape[0], mat.shape[1]
        if n_main is None:
            n_main = n
        pivots = {}  # col -> [row, val]
        queue = [mat[i].copy() for i in range(k)]
        qi = 0
        while qi < len(queue):
            r = queue[qi]
            qi += 1
            while True:
                nz = np.nonzero(np.any(r, axis=-1))[0] if self.mu > 1 else np.nonzero(r[:, 0])[0]
                if nz.size == 0:
                    break
                c = int(nz[0])
                v = self.val(r[c])
                old = pivots.get(c)
                if old is not None and v >= old[1]:
                    qcoef = self.divide_exact(r[c], old[1])
                    r = (r - self.mul(qcoef[None, :], old[0])) % self.char
                    continue
                # r becomes column c's pivot: a new one, or one of smaller
                # valuation, in which case the displaced row is reduced next
                u = self.divide_exact(r[c], v)
                if not np.array_equal(u % self.char, self.one):
                    r = self.mul(r, self.inverse(u)) % self.char
                pivots[c] = [r, v]
                if v > 0:
                    queue.append((r * (self.p ** (self.s - v))) % self.char)
                if old is None:
                    break
                r = old[0]
        cols = sorted(pivots)
        rows = np.array([pivots[c][0] for c in cols], dtype=np.int64).reshape(len(cols), n, self.mu)
        vals = [pivots[c][1] for c in cols]
        return HowellForm(self, rows, cols, vals, n_main)

    # ------------------------------------------------------------------
    # solving

    def solve(self, a, b):
        """Complete solution set of A x = b over the chain ring.

        ``a`` has shape (m, n, mu) and ``b`` shape (m, mu).  Returns
        (particular, kernel) where particular is an (n, mu) array or None
        when the system is inconsistent, and kernel is a (g, n, mu) array
        of generators of the homogeneous solution module.
        """
        a = np.asarray(a, dtype=np.int64) % self.char
        m = a.shape[0]
        hf = self.kernel_form(np.swapaxes(a, 0, 1))
        particular = hf.member_solve(np.asarray(b, dtype=np.int64).reshape(m, self.mu) % self.char)
        return particular, hf.kernel_part()

    def left_kernel(self, mat):
        """Generators of {x : x M = 0} for M of shape (k, n, mu)."""
        return self.kernel_form(mat).kernel_part()

    def kernel_form(self, mat):
        """Howell form of (M | I_k) for M of shape (k, n, mu): its kernel
        part generates {x : x M = 0}, and its member_solve gives some x
        with x M = v."""
        k, n = mat.shape[0], mat.shape[1]
        aug = np.zeros((k, n + k, self.mu), dtype=np.int64)
        aug[:, :n] = mat
        aug[np.arange(k), n + np.arange(k)] = self.one
        return self.howell(aug, n_main=n)


class HowellForm:
    """Rows in Howell form, with optional augmented tracking columns."""

    def __init__(self, ring, rows, cols, vals, n_main):
        self.ring = ring
        self.rows = rows          # (r, n_total, mu)
        self.cols = cols          # pivot columns, ascending
        self.vals = vals          # pivot valuations
        self.n_main = n_main

    def kernel_part(self):
        """Tracking parts of rows whose pivot lies in the augmented block."""
        ring = self.ring
        picks = [i for i, c in enumerate(self.cols) if c >= self.n_main]
        n_aug = self.rows.shape[1] - self.n_main
        if not picks:
            return np.zeros((0, n_aug, ring.mu), dtype=np.int64)
        return self.rows[picks][:, self.n_main:, :]

    def member_solve(self, v):
        """Greedy-reduce ``v`` (shape (n_main, mu)) against the main block.

        Returns the accumulated tracking combination (an (n_aug, mu) array,
        or the coefficient vector itself if the form has no augmentation)
        when v lies in the row module of the main block, else None.
        """
        ring = self.ring
        res = np.asarray(v, dtype=np.int64).copy() % ring.char
        n_aug = self.rows.shape[1] - self.n_main
        witness = np.zeros((max(n_aug, 1), ring.mu), dtype=np.int64)
        col_to_idx = {c: i for i, c in enumerate(self.cols) if c < self.n_main}
        for c in range(self.n_main):
            if not np.any(res[c]):
                continue
            i = col_to_idx.get(c)
            if i is None:
                return None
            pv = self.vals[i]
            if ring.val(res[c]) < pv:
                return None
            qcoef = ring.divide_exact(res[c], pv)
            res = (res - ring.mul(qcoef[None, :], self.rows[i, :self.n_main])) % ring.char
            if n_aug:
                witness = (witness - ring.mul(qcoef[None, :], self.rows[i, self.n_main:])) % ring.char
        if np.any(res):
            return None  # pragma: no cover - reduction always clears main cols
        return (-witness) % ring.char if n_aug else witness
