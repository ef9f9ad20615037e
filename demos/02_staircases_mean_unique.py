"""Staircase-shaped data always pins down a single basis.

A staircase (downward-closed set of exponent vectors, read as points) is
basic only for itself, so its vanishing ideal has one reduced Groebner
basis under every monomial order.  The converse fails: a set can have a
unique basis without being any shift of a staircase.
"""

from gbfan import (
    GrevLexOrder,
    PointSet,
    all_reduced_gbs,
    bm_reduced_gb,
    enumerate_order_ideals,
    find_staircase_shift,
    format_polynomial,
    is_staircase,
    is_unique_gb,
)

# sweep every staircase in a few small ambient boxes
for p, n in [(2, 2), (2, 3), (3, 2)]:
    total = 0
    for m in range(1, p**n + 1):
        for ideal in enumerate_order_ideals(p, n, m):
            V = PointSet(p, n, ideal.points)
            assert len(all_reduced_gbs(V)) == 1
            total += 1
    print(f"p={p}, n={n}: all {total} staircases have a unique basis")

# the smallest interesting instance, with its basis printed
V = PointSet(3, 2, [(0, 0), (0, 1), (1, 0)])
assert is_staircase(V)
basis = bm_reduced_gb(V, GrevLexOrder())
print("\nstaircase", V.points)
for g in basis.generators:
    print("  ", format_polynomial(g.poly, basis.order, ("x", "y")))

# uniqueness without any staircase in sight: no shift of this set is
# downward closed, yet its basis count is still one
W = PointSet(2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
print("\nchain-like set", W.points)
print("staircase shift found:", find_staircase_shift(W))
unique, count = is_unique_gb(W)
print("unique basis:", unique, "| reduced bases:", count)
basis = bm_reduced_gb(W, GrevLexOrder())
for g in basis.generators:
    print("  ", format_polynomial(g.poly, basis.order, ("x", "y", "z")))
