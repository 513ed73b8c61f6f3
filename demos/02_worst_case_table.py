"""The worst-case measure K(n) = max m(w) over all words of length n.

A depth-first search over the words starting with 'a' (the others are their
letter swaps) gives the exact table with every maximizer; subadditivity,
m(uv) <= m(u) + K(|v|), prunes every prefix that cannot reach the maximum.
The closed form floor(n/6) + floor((n+4)/6) + 1 matches it everywhere except
n = 11, where a single orbit reaches 5 instead of 4.
"""

from palfact import k_formula, verify_theorem1, worst_rows

rows = worst_rows(20)
print(" n  K(n)  formula  maximizers")
for row in rows:
    print(f"{row.n:>2}  {row.k:>4}  {k_formula(row.n):>7}  {row.maximizer_count}")

# The one disagreement between the uniform formula branch and the data:
print()
print("uniform branch at n=11:", 11 // 6 + (11 + 4) // 6 + 1, "  enumerated:", rows[10].k)

# The words responsible, grouped by the symmetry group (letter swap and
# reversal, under which m is invariant):
for orbit in rows[10].orbits():
    print("extremal orbit at n=11:", orbit.words, "size", orbit.size)

# The formula check as a single claim report:
report = verify_theorem1(18)
print()
print(f"formula vs enumeration up to 18 ({report.cases} lengths): {'ok' if report.passed else report.counterexamples}")
