"""The worst-case measure K(n) = max m(w) over all words of length n.

Exhaustive enumeration (letter-swap reduced, so half the space) gives the
exact table; the closed form floor(n/6) + floor((n+4)/6) + 1 matches it
everywhere except n = 11, where a single orbit reaches 5 instead of 4.
"""

from palfact import k_formula, length_row, length_rows, verify_theorem1

rows = length_rows(20)
print(" n  K(n)  formula  maximizers")
for row in rows:
    print(f"{row.n:>2}  {row.k:>4}  {k_formula(row.n):>7}  {row.maximizer_count}")

# The one disagreement between the uniform formula branch and the data:
print()
print("uniform branch at n=11:", 11 // 6 + (11 + 4) // 6 + 1, "  enumerated:", rows[10].k)

# The words responsible, grouped by the symmetry group (letter swap and
# reversal, under which m is invariant):
for orbit in length_row(11).orbits():
    print("extremal orbit at n=11:", orbit.words, "size", orbit.size)

# The formula check as a single claim report:
report = verify_theorem1(18)
print()
print(f"formula vs enumeration up to 18 ({report.cases} lengths): {'ok' if report.passed else report.counterexamples}")
