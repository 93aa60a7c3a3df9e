"""Frobenius-Schur indicators by two independent routes.

Each irreducible module of the bismash product is named by an orbit
representative x, its stabilizer order t (the dimension), and a
character index i mod n/t.  The congruence route decides the indicator
from (u1, u2) alone; the oracle route averages the induced character
over the transporter sets with exact root-of-unity arithmetic.  They
must agree everywhere -- and the skew case really occurs.
"""

from bismash import (
    IrrepDescriptor,
    Permutation,
    from_cycles,
    indicator_bruteforce,
    indicator_reduced,
    indicator_table,
    tally_indicators,
)

# the smallest-degree family with a skew-symmetric module: 4 | n, n >= 12
x = from_cycles(16, [(1, 5, 9, 13), (3, 7, 11, 15)])
print(f"x = {x}, dimension t = 2, characters i = 0..7")
for i in range(8):
    d = IrrepDescriptor.from_permutation(x, i)
    fast = indicator_reduced(d)
    slow = indicator_bruteforce(d)
    marker = "  <-- skew" if fast == -1 else ""
    print(f"  i={i}: reduced {fast:+d}, oracle {slow:+d}{marker}")

print()
print("degree 2: the unique totally orthogonal case")
for t, reps, values in indicator_table(2):
    for row, vals in zip(reps.tolist(), values.tolist()):
        for i, v in enumerate(vals):
            print(f"  module (rep={Permutation(row)}, t={t}, i={i}): {v:+d}")

print()
print("degree 12, dimension 2: the census splits 30 / 2 / 16")
table = indicator_table(12, 2)
tal = tally_indicators(table)
print(f"  per-(permutation, character) tallies: +1: {tal[1]}, -1: {tal[-1]}, 0: {tal[0]}")
for t, reps, values in table:
    for row, vals in zip(reps.tolist(), values.tolist()):
        for i, v in enumerate(vals):
            if v == -1:
                print(f"  the skew class: rep {Permutation(row)}, i={i}")
