"""Bounding the limit of kbar(n)/n from both sides.

Upper bound: subadditivity gives lim kbar(n)/n <= kbar(21)/21, an exact
rational.  Lower bound: at most a_k = C(n-1, k-1) 2^((n+k)/2) words split
into k palindromes, and balancing that count against 2^n leads to the
root theta' of an entropy-style function f; the value g(theta') bounds
the limit from below.
"""

from palfact import bounds_report, counting_bounds, f_theta, g_theta, length_row, theta_prime

# The counting skeleton at n = 9: cumulative a_k passes 2^9 = 512 at p = 2.
cb = counting_bounds(9)
print("a_k at n=9:", [round(a, 1) for a in cb.a[:4]], " p =", cb.p, " theta_9 =", cb.theta_n)

# f is negative at 0, positive at 1/3, strictly increasing in between:
print()
print(f"f(0) = {f_theta(0.0):+.6f}   f(1/3) = {f_theta(1/3):+.6f}")
root = theta_prime()
print(f"unique root theta' = {root:.8f},  g(theta') = {g_theta(root):.8f}")

# Both bounds, the upper one from the exact row of length 21:
report = bounds_report(length_row(21))
print()
print(f"{report.lower_text} < lim kbar(n)/n <= {report.upper_text}")
print(f"upper bound exactly {report.upper_bound} = {float(report.upper_bound):.8f}")
print(f"critical points of g: {report.g_prime_roots}")
