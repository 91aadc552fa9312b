"""Rank, free rank, intersections and products of modules over Z4.

Over a field every submodule (subspace) is free; over a local ring like
Z4 that breaks down, and two different rank notions appear:

  * rank    -- the minimal number of generators,
  * free rank -- the largest rank of a free submodule.

They agree exactly on free modules.  This demo walks the classic worked
example inside S = Z4[t]/(t^5+t^2+1), where sums, intersections and
products of free modules fail to be free.

Run:  python demos/02_modules_rank_and_products.py
"""

import numpy as np

from lrpc_rings import (ExtensionDesc, Submodule, Zmod, free_module_test,
                        free_rank, intersect_with_free, module_product,
                        module_rank, quotient_ring, square_property_check,
                        recover_factor, sample_free_submodule,
                        unit_pivot_factor)

z4 = Zmod(4)
ext = ExtensionDesc(z4, 5, f=[1, 0, 1, 0, 0, 1])  # S = Z4[t]/(t^5+t^2+1)
print("extension:", ext.spec_string)

# two free rank-2 submodules of S, given by generators
a_mod = ext.support([ext.from_poly([3, 2, 0, 3, 0]).flat,   # 3t^3+2t+3
                     ext.from_poly([1, 3, 0, 2, 2]).flat])  # 2t^4+2t^3+3t+1
b_mod = ext.support([ext.from_poly([1, 0, 0, 2, 1]).flat,   # t^4+2t^3+1
                     ext.from_poly([3, 2, 0, 3, 2]).flat])  # 2t^4+3t^3+2t+3

print("\nA:", free_module_test(a_mod), "(free rank, is free)")
print("B:", free_module_test(b_mod))

# the unit-pivot Gauss-Jordan form behind the free-module test:
# W = U A[:, perm] with U invertible and W[:, :r] = (I_r; 0)
w, perm, r = unit_pivot_factor(z4, a_mod.gens)
jordan_rows = np.empty_like(w)
jordan_rows[:, perm] = w  # columns back in A's order
print(f"Jordan rows of A (r = {r}):")
print(jordan_rows[..., 0])
print("the Jordan rows span A:", Submodule(z4, 5, jordan_rows).equals(a_mod))

# sums, intersections and products need not be free
print("\nA + B:", free_module_test(a_mod.sum(b_mod)), " <- free rank 3, not free")
cap = intersect_with_free(a_mod, b_mod)
print("A cap B:", free_module_test(cap),
      " equals <2t^3+2>:", cap.equals(ext.support([ext.from_poly([2, 0, 0, 2]).flat])))
ab = module_product(ext, a_mod, b_mod)
print("A B:", free_module_test(ab), " <- the product of free modules, not free")

# rank vs free rank on a non-free module: the maximal ideal of Z4[x]/(x^2)
rxi = quotient_ring(2, 2, [0, 0, 1])
q_mod = Submodule(rxi, 1, np.array([[rxi.from_poly([2]).flat],
                                    [rxi.from_poly([0, 1]).flat]]))
print("\nover", rxi.spec_string, ": the ideal <2, xi> has rank",
      module_rank(q_mod), "and free rank", free_rank(q_mod))

# ---------------------------------------------------------------------------
# recovering a factor from a product: the engine behind syndrome decoding

rng = np.random.default_rng(7)
big = ExtensionDesc(z4, 20)
f_mod = big.support([big.one, big.theta().flat])
report = square_property_check(big, f_mod)
print("\nF = <1, t> over", big.base.spec_string, "m=20:",
      "square property =", report.has_square_property,
      "| rank of F^2 =", report.beta2)

a_rand = sample_free_submodule(z4, 20, 2, rng)
product = module_product(big, a_rand, f_mod)
recovered = recover_factor(big, product, report)
print("recovered A from A*F exactly:", recovered.equals(a_rand))
