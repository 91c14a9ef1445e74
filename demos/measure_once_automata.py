"""Finite automata with a quantum register measured once at the end.

Words look like "x#y" (equality) or "x#y#x" (disjointness). A classical
control reads the tape and, per symbol, may apply one operator to a small
quantum register: a sign flip or swap (a signed permutation), or the dense
spread and collect at the markers; a symbol with no operator leaves the
register alone. After the end marker the register is measured once in its
basis. The equality machine is exact on its promise; the disjointness
machine reproduces the one-round protocol's acceptance probabilities.
"""

from promisecc import (
    BitString,
    PromiseLabel,
    accept_probability,
    disjointness_automaton,
    disjointness_word,
    equality_automaton,
    equality_word,
    equality_word_problem,
    round_accept_probability_fast,
)

n = 4

# ---------------------------------------------------------------------------
# The equality machine: n quantum states, n + 2 classical states. Accepts
# equal words with probability 1 and half-distance words with probability 0.
# ---------------------------------------------------------------------------
eq = equality_automaton(n)
print(f"equality machine at n={n}: {len(eq.quantum_labels)} quantum states, "
      f"{len(eq.classical_states)} classical states")

for xv, yv in ((0b0101, 0b0101), (0b0101, 0b0110), (0b1111, 0b0011)):
    x, y = BitString(xv, n), BitString(yv, n)
    word = equality_word(x, y)
    p = accept_probability(eq, word)
    print(f"  word {word}: accept {p:.6f}")

problem = equality_word_problem(n)
worst = 0.0
count = 0
for xv in range(1 << n):
    x = BitString(xv, n)
    for yv in range(1 << n):
        y = BitString(yv, n)
        word = equality_word(x, y)
        label = problem.classify(word)
        if label is PromiseLabel.OUTSIDE:
            continue
        target = 1.0 if label is PromiseLabel.YES else 0.0
        worst = max(worst, abs(accept_probability(eq, word) - target))
        count += 1
print(f"  exhaustive promise sweep: {count} words, max deviation {worst:.2e}")

# ---------------------------------------------------------------------------
# The disjointness machine: 2n quantum states, 2n + 2 classical states.
# Its acceptance equals the one-round protocol exactly, word by word.
# ---------------------------------------------------------------------------
dj = disjointness_automaton(n)
print(f"\ndisjointness machine at n={n}: {len(dj.quantum_labels)} quantum, "
      f"{len(dj.classical_states)} classical")

worst = 0.0
for xv in range(1 << n):
    x = BitString(xv, n)
    for yv in range(1 << n):
        y = BitString(yv, n)
        p = accept_probability(dj, disjointness_word(x, y))
        worst = max(worst, abs(p - round_accept_probability_fast(x, y)))
print(f"  max |machine - protocol| over all pairs: {worst:.2e}")

x, y = BitString(0b1100, n), BitString(0b0110, n)
print(f"  example {disjointness_word(x, y)}: accept "
      f"{accept_probability(dj, disjointness_word(x, y)):.6f} "
      f"(overlap {(0b1100 & 0b0110).bit_count()})")
