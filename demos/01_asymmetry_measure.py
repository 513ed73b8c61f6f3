"""The asymmetry measure m(w) and its witnesses.

Every binary word splits into nonempty palindromic blocks (single letters
always work), and m(w) is the least number of blocks.  A palindrome has
m = 1; the further a word is from any symmetric structure, the more
blocks it needs.
"""

from palfact import measure, min_factorization, parse_word, reachable_k

# A palindrome needs one block, a non-palindrome at least two.
for text in ["baab", "ab", "aabab", "aababbaabab"]:
    fact = min_factorization(text)
    print(f"m({text}) = {fact.m}   witness: {fact}")

# The witness is deterministic: among minimizing final blocks the
# shortest is preferred, recursively.
print()
print("cuts for aababbaabab:", min_factorization("aababbaabab").cuts)

# Along the prefixes of a word m grows by at most one per letter (the new
# letter can stand alone) but can fall when a long palindrome closes.
text = "aababbaabab"
prefix_measures = [measure(text[: i + 1]) for i in range(len(text))]
print("m along prefixes:", prefix_measures)

# m is the minimum of the set of realizable block counts; the whole set
# is computable too.  Splitting any block of length > 2 as x|p|x shows
# that k + 2 is realizable whenever k is (and 2k < length).
word = parse_word("aabab")
print()
print(f"block counts realizable for {word}: {sorted(reachable_k(word, len(word)))}")
