"""The Galois extension S of a local ring R.

S = R[theta]/(f) for a monic degree-m polynomial f whose residue image is
irreducible over the residue field F_q.  S is itself a local ring with
maximal ideal mS and residue field F_{q^m}, and is free of rank m as an
R-module, so each element has a vector representation in R^m.

Elements are flat coordinate vectors of length D_S = m * D_R over
Z_{p^s}; index i*D_R + a holds coordinate a (in R's flat basis) of the
coefficient of theta^i.  Multiplication uses a precomputed structure
tensor, exactly as in the base ring.  Descriptors are immutable and all
operations pure, so they are safe to share across threads.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import fq
from .chain import (RingElem, TensorAlgebra, check_rank, poly_string,
                    power_basis_tensor)
from .errors import ExtensionMismatch, MalformedModulus
from .rings import LocalRingDesc


class ExtensionDesc(TensorAlgebra):
    """Degree-m Galois extension of a local ring, with vectorized arithmetic."""

    mismatch = ExtensionMismatch

    def __init__(self, base: LocalRingDesc, m: int, f=None):
        if m < 1:
            raise MalformedModulus("extension degree must be >= 1")
        check_rank(m * base.D, f"{base.spec_string} ext m={m}")
        self.base = base
        self.m = m
        if f is None:
            f = self._default_modulus()
        self.f = self._coerce_modulus(f)
        self._validate_modulus()
        super().__init__(base.char, base.p, base.q ** m, base.upsilon,
                         self._build_tensor())
        self.spec_string = f"{base.spec_string} ext m={m} f={self.modulus_string()}"

    # ------------------------------------------------------------------
    # construction

    def _default_modulus(self):
        """Deterministic default, lifted coefficientwise from F_q: t + 1 for
        m = 1; for gcd(m, mu) = 1 the smallest irreducible of degree m over
        F_p, which stays irreducible over F_q; otherwise no polynomial over
        F_p is irreducible over F_q (Lidl-Niederreiter, Thm 3.46), and it is
        the smallest over F_q (see ``fq.smallest_irreducible``)."""
        field = self.base.residue_field
        if self.m == 1:
            codes = [1, 1]
        else:
            coeffs = field.prime if gcd(self.m, field.mu) == 1 else field
            codes = fq.smallest_irreducible(coeffs, self.m)
        rows = np.zeros((self.m + 1, self.base.D), dtype=np.int64)
        rows[:, :field.mu] = field.digits(codes)
        return rows

    def _coerce_modulus(self, f):
        rows = []
        for c in list(f):
            rows.append(self.base.coerce(c))
        arr = np.array(rows, dtype=np.int64)
        if arr.shape != (self.m + 1, self.base.D):
            raise MalformedModulus(
                f"modulus needs {self.m + 1} coefficients over the base ring")
        return arr

    def _validate_modulus(self):
        base = self.base
        if not np.array_equal(self.f[-1], base.one):
            raise MalformedModulus("extension modulus must be monic")
        fbar = [int(c) for c in base.residue_codes(self.f)]
        if not fq.irreducible(base.residue_field, fbar):
            raise MalformedModulus(
                "residue image of the extension modulus is not irreducible")

    def _build_tensor(self):
        base, m = self.base, self.m
        dr = base.D
        # theta[i, j] = theta^(i+j) as (m, dr) coordinates over R
        theta = power_basis_tensor(self.f, base.char, base.mul)
        # T_S[(i,a), (j,b), (k,c)] = sum_ed T_R[a,b,e] T_R[e,d,c] theta[i,j][k,d]
        g = np.einsum("ijkd,edc->ijekc", theta, base.mult_tensor) % base.char
        block = np.einsum("abe,ijekc->iajbkc", base.mult_tensor, g) % base.char
        return block.reshape(m * dr, m * dr, m * dr)

    def modulus_string(self):
        return poly_string(self._coeff_strings(self.f), spec=True)

    def _coeff_strings(self, rows):
        """Text of base-ring coefficients, parenthesized unless scalar."""
        out = []
        for c in rows:
            text = self.base.format_elem(c)
            out.append(text if self.base.D == 1 or text == "0" else f"({text})")
        return out

    def __repr__(self):
        return f"ExtensionDesc({self.base.spec_string}, m={self.m})"

    # ------------------------------------------------------------------
    # arithmetic: TensorAlgebra's, bound again in this class's own dict so
    # that perfbench/spans.py can trace S's calls apart from the base ring's

    mul = TensorAlgebra.mul
    matmul = TensorAlgebra.matmul
    inverse = TensorAlgebra.inverse
    ext_arith = TensorAlgebra.arith
    ext_inverse = inverse

    def vec_rep(self, a):
        """R-linear bijection S -> R^m: (..., D_S) -> (..., m, D_R)."""
        a = np.asarray(a)
        return a.reshape(a.shape[:-1] + (self.m, self.base.D))

    def unrep(self, v):
        v = np.asarray(v)
        return v.reshape(v.shape[:-2] + (self.D,))

    def scalar_mul(self, r, a):
        """Multiply S-elements by base-ring scalars: r (..., D_R), a (..., D_S)."""
        vec = self.vec_rep(np.asarray(a))
        out = self.base.mul(np.asarray(r)[..., None, :], vec)
        return self.unrep(out)

    def embed_ring(self, r):
        """Embed base-ring coordinates into S (theta^0 block)."""
        r = np.asarray(r)
        out = np.zeros(r.shape[:-1] + (self.D,), dtype=np.int64)
        out[..., :self.base.D] = r % self.char
        return out

    def is_unit(self, a):
        """Units of S are the elements with nonzero residue in F_{q^m},
        i.e. with some coordinate of the vector representation a unit of R."""
        vec = self.vec_rep(np.asarray(a))
        return self.base.residue(vec).any(axis=(-1, -2))

    # ------------------------------------------------------------------
    # element plumbing

    def coerce(self, v):
        """Coordinate array from an int, coordinate array, or element of S
        or of the base ring (embedded as a constant)."""
        if isinstance(v, RingElem) and v.ring is self.base:
            return self.embed_ring(v.flat)
        return super().coerce(v)

    coords = vec_rep

    def format_elem(self, flat):
        """Text of one element as a polynomial in t over the base ring."""
        return poly_string(self._coeff_strings(self.vec_rep(flat)), "t")

    def from_poly(self, coeffs) -> RingElem:
        """Element from theta-polynomial coefficients (base-ring coercibles)."""
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise MalformedModulus("too many theta coefficients")
        vec = np.zeros((self.m, self.base.D), dtype=np.int64)
        for i, c in enumerate(coeffs):
            vec[i] = self.base.coerce(c)
        return RingElem(self, self.unrep(vec))

    def theta(self) -> RingElem:
        return self.from_poly([0, 1]) if self.m > 1 else self.elem(0)

    def support(self, u):
        """Support of a vector over S: the R-submodule of R^m spanned by the
        vector representations of its entries."""
        from .modlin import Submodule
        u = np.asarray([self.coerce(x) for x in u]) if not isinstance(u, np.ndarray) \
            else self.coerce(u)
        u = u.reshape(-1, self.D)
        return Submodule(self.base, self.m, self.vec_rep(u))


ExtElem = RingElem  # one element class serves S and its base ring
