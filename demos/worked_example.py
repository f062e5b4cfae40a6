"""Walk through the invariant computation on the repository's worked example.

A genus-3 and a genus-4 handlebody are linked so that their linking
matrix is the 3x4 matrix below; see fixtures/worked_example.hlk for the
diagram it came from.
"""

from hlk import (
    IntMatrix,
    elementary_divisors,
    handlebody_linking,
    quotient_groups,
    reconstruct_lk,
    smith_normal_form,
)

M = IntMatrix.from_rows([
    [-1, -1, 0, 2],
    [1, -3, -2, 0],
    [0, 0, 2, -2],
])

print("Linking matrix M (rows = loops of h1, columns = loops of h2):")
for i in range(M.rows):
    print("   ", list(M.row(i)))

r = smith_normal_form(M)
print("\nSmith normal form D = U M V:")
for i in range(r.d.rows):
    print("   ", list(r.d.row(i)))
print("check: U M V == D ->", r.u @ M @ r.v == r.d)

print("\nElementary divisors:", elementary_divisors(M))
print("Invariant: Lk =", handlebody_linking(M))

a1, a2 = quotient_groups(M)
print("\nQuotient groups of the two complements:")
print("  A1 =", a1)
print("  A2 =", a2)
print("Their torsion agrees; the free ranks differ by m - n =", M.rows - M.cols)

l = len(elementary_divisors(M))
print("\nFrom A1 and the chain length l =", l, "the invariant is recovered:")
print("  reconstruct_lk(A1, l) =", reconstruct_lk(a1, l))
