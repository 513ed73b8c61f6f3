"""palfact: minimal palindromic factorizations of binary words.

Every binary word w splits into nonempty palindromic blocks; m(w) is the
least number of blocks needed and measures how far w is from being
symmetric.  The package computes m with an explicit witness, finds the
worst case K(n) = max m with every word attaining it, enumerates the exact
average kbar(n) = 2^-n sum m over all words of length n, replays the
computer-checkable steps behind the closed form for K(n), and evaluates
the constants bounding the limit of kbar(n)/n.

Only a scan loads numpy, and ``length_row`` and ``length_rows`` (from
``rows``) make one only when their memo is too short; ``worst_rows`` and
Lemmas 3 and 4 are pruned searches.  So importing the package, and every
function that builds no layer, leaves numpy unloaded.
"""

from .asymptotics import (
    AsymptoticsReport,
    CountingBounds,
    bounds_report,
    counting_bounds,
    f_theta,
    g_prime_roots,
    g_theta,
    theta_prime,
)
from .factorization import Factorization, longest_palindromic_factor, measure, min_factorization, reachable_k
from .lemmas import (
    LemmaReport,
    M_CONSTANTS,
    k_formula,
    ksum_property,
    subadditivity_check,
    verify_counting_bound,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lemma4,
    verify_lemma7,
    verify_lemma8,
    verify_lemma9,
    verify_theorem1,
)
from .rows import LengthRow, WorstRow, length_row, length_rows, worst_rows
from .words import (
    Orbit,
    Word,
    WordError,
    family,
    is_palindrome,
    orbit,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "CountingBounds",
    "Factorization",
    "LemmaReport",
    "LengthRow",
    "M_CONSTANTS",
    "Orbit",
    "Word",
    "WordError",
    "WorstRow",
    "bounds_report",
    "counting_bounds",
    "f_theta",
    "family",
    "g_prime_roots",
    "g_theta",
    "is_palindrome",
    "k_formula",
    "ksum_property",
    "length_row",
    "length_rows",
    "longest_palindromic_factor",
    "measure",
    "min_factorization",
    "orbit",
    "parse_word",
    "reachable_k",
    "subadditivity_check",
    "theta_prime",
    "verify_counting_bound",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_lemma4",
    "verify_lemma7",
    "verify_lemma8",
    "verify_lemma9",
    "verify_theorem1",
    "worst_rows",
]
