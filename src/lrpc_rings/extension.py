"""The Galois extension S of a local ring R.

S = R[theta]/(f) for a monic degree-m polynomial f whose residue image is
irreducible over the residue field F_q.  S is itself a local ring with
maximal ideal mS and residue field F_{q^m}, and is free of rank m as an
R-module, so each element has a vector representation in R^m.

Elements are flat coordinate vectors of length D_S = m * D_R over
Z_{p^s}; index i*D_R + a holds coordinate a (in R's flat basis) of the
coefficient of theta^i.  Multiplication uses a precomputed structure
tensor, exactly as in the base ring.  A unit is inverted by its norm to R,
through the Frobenius automorphism of S/R.  Descriptors are immutable (the
Frobenius matrices are built once, on the first inverse) and all operations
pure, so they are safe to share across threads.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

import numpy as np

from . import fq
from .chain import (RingElem, TensorAlgebra, check_rank, inverse_mod,
                    poly_string, power_basis_tensor)
from .errors import ExtensionMismatch, MalformedModulus, NotAUnit
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
    # arithmetic: mul and matmul are TensorAlgebra's, bound again in this
    # class's own dict so that perfbench/spans.py can trace S's calls apart
    # from the base ring's; inverse is S's own

    mul = TensorAlgebra.mul
    matmul = TensorAlgebra.matmul

    def inverse(self, a):
        """Inverse of each unit in a (..., D_S) array by its norm
        (Itoh-Tsujii): a^-1 = N(a)^-1 Q for Q = sigma(a) sigma^2(a) ...
        sigma^(m-1)(a), where N(a) = a Q lies in R.  Q is built along the
        bits of m - 1 from Q_1 = sigma(a), by Q_2h = Q_h sigma^h(Q_h) and
        Q_(h+1) = sigma(a Q_h): about log2 m products and as many
        sigma-maps, each one vector-matrix product.  Raises NotAUnit if any
        entry is not a unit."""
        a = np.asarray(a) % self.char
        prod = self.one
        if self.m > 1:
            sigma, chain = self._frobenius
            prod = self._dot(a, sigma)
            for sigma_h, bit in chain:
                prod = self.mul(prod, self._dot(prod, sigma_h))
                if bit:
                    prod = self._dot(self.mul(a, prod), sigma)
        norm = self.mul(a, prod)[..., :self.base.D]
        if not self.base.is_unit(norm).all():  # N(a) mod m is the norm of a mod m
            raise NotAUnit(f"{a} is not a unit of {self!r}")
        if self.base.D == 1:
            return prod * inverse_mod(norm, self.char) % self.char
        return self.scalar_mul(self.base.inverse(norm), prod)

    @cached_property
    def _frobenius(self):
        """The Frobenius sigma of S/R as a Z_char matrix on row vectors,
        x -> x @ sigma, with the matrices of the addition chain on m - 1
        that :meth:`inverse` walks: one (sigma^h, bit) per bit of m - 1
        after the leading one, h the value of the bits before it.

        sigma fixes R and sends theta to the root of f that is congruent to
        theta^q mod mS (q = |F_q|), found by Newton steps from theta^q; so
        row (i, a) of sigma holds e_a y^i for y = sigma(theta) and e_a the
        a-th basis element of R."""
        y = self.pow(self.theta().flat, self.base.q)
        derivative = [(i * c) % self.char for i, c in enumerate(self.f)][1:]
        for _ in range(self.upsilon.bit_length() + 2):
            fy = self._eval_poly(self.f, y)
            if not fy.any():
                break
            # TensorAlgebra's inverse: sigma is not there yet to invert by
            y = self.sub(y, self.mul(fy, TensorAlgebra.inverse(self, self._eval_poly(derivative, y))))
        else:  # pragma: no cover - Hensel's lemma: f has a simple root there
            raise MalformedModulus("no root of the modulus lifts theta^q")
        powers = [self.one]
        for _ in range(1, self.m):
            powers.append(self.mul(powers[-1], y))
        basis = self.embed_ring(np.eye(self.base.D, dtype=np.int64))
        sigma = self.mul(np.array(powers)[:, None], basis[None]).reshape(self.D, self.D)
        chain, power = [], sigma  # power = sigma^h along the chain
        for bit in bin(self.m - 1)[3:]:
            chain.append((power.astype(self.dtype), bit == "1"))
            power = self._dot(power, power)
            if bit == "1":
                power = self._dot(power, sigma)
        if not np.array_equal(self._dot(power, sigma), np.eye(self.D, dtype=np.int64)):
            raise MalformedModulus("the Frobenius of S/R does not have order m")  # pragma: no cover
        return sigma.astype(self.dtype), chain

    def _eval_poly(self, coeffs, y):
        """sum_i coeffs[i] y^i in S, for base-ring coefficient rows, by Horner."""
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, y), self.embed_ring(c))
        return acc

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
        return self.base.is_unit(self.vec_rep(a)).any(axis=-1)

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
        """The root theta of f: the class of t, which for m = 1 is -f_0."""
        if self.m == 1:
            return RingElem(self, self.embed_ring(self.base.neg(self.f[0])))
        return self.from_poly([0, 1])

    def support(self, u):
        """Support of a vector over S: the R-submodule of R^m spanned by the
        vector representations of its entries."""
        from .modlin import Submodule
        u = np.asarray([self.coerce(x) for x in u]) if not isinstance(u, np.ndarray) \
            else self.coerce(u)
        u = u.reshape(-1, self.D)
        return Submodule(self.base, self.m, self.vec_rep(u))

