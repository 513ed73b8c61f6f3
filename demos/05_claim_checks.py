"""Replaying every finite computation behind the worst-case closed form.

Each report replays one machine-checkable claim: explicit factorization
witnesses, exhaustive case analyses over bounded suffix spaces, the
absence of long palindromes in block powers, exact measures along two
word families, a randomized tuple inequality, and, against the exhaustive
enumeration, Theorem 1's closed form, subadditivity of the exact averages
and the counting bound.  These are the reports ``palfact verify all``
prints.  A failing report would carry concrete counterexamples.
"""

import time

from palfact.lemmas import standard_runs

start = time.perf_counter()
for claim in standard_runs(seed=42).values():
    report = claim()
    print(f"{report.lemma_id:<13} {report.verdict:<4} cases={report.cases:>7}  params={report.params}")
    for bad in report.counterexamples[:3]:
        print("   counterexample:", bad)
print(f"\ntotal {time.perf_counter() - start:.2f}s")
