"""The average measure kbar(n) = 2^-n sum m(w) over words of length n.

All counts are exact integers and all averages exact rationals; the
two-decimal column reproduces the published table.  Subadditivity of
kbar makes kbar(n)/n converge to its infimum, so the smallest computed
ratio is already a valid upper bound for the limit.
"""

from fractions import Fraction

from palfact import length_row, length_rows, subadditivity_check

# The histogram underneath the average: x_k = number of words with m = k.
hist = length_row(10)
print("x_k at n=10:", hist.counts, " total", sum(hist.counts.values()), "= 2^10")

# The exact average is a property of the same row.
rows = length_rows(21)
print()
print(" n         S(n)   kbar   kbar/n")
for row in rows:
    print(f"{row.n:>2} {row.s:>12}   {row.kbar_text}   {row.ratio_text}")

# Exact rational identity at n=21 (reduced to a power-of-two denominator):
kbar21 = rows[20].kbar
print()
print(f"kbar(21) = {kbar21.numerator}/2^{kbar21.denominator.bit_length() - 1} exactly")

# Pairwise subadditivity over the computed range, in exact arithmetic, as a
# claim report; its params carry the least ratio kbar(n)/n as "num/den".
report = subadditivity_check(21)
print(f"subadditive over {report.cases} pairs: {report.passed}")
min_ratio = Fraction(report.params["min_ratio"])
print(f"min ratio at n={report.params['min_ratio_n']}: {min_ratio} = {float(min_ratio):.6f}")
