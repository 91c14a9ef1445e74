"""From a classical automaton to a communication protocol.

Any deterministic automaton that classifies the promise words "x#y#x"
yields a two-message protocol: Alice sends the state after her half,
Bob extends it and sends the state back, Alice announces the verdict.
The cost is 1 + 2*ceil(log2 N) bits for N states, so a state-count
lower bound follows from the communication lower bound. This script
builds one such automaton by brute force at n=4 and runs the chain.
"""

import math
from fractions import Fraction

from promisecc import (
    BitString,
    Margin,
    bruteforce_disjointness_dfa,
    disjointness_word,
    exact_deterministic_cc,
    problem_matrix,
    protocol_from_dfa,
    run_dfa,
    verify_promise_dfa,
)

n = 4

# ---------------------------------------------------------------------------
# Brute force a deterministic automaton that accepts exactly the Yes
# promise words over {0,1,#}. Only its reachable states are built, but it
# is not minimal: a concrete witness bounding the smallest size from above.
# ---------------------------------------------------------------------------
dfa = bruteforce_disjointness_dfa(n)
print(f"brute-force promise-correct automaton at n={n}: {dfa.size} states")
print(f"promise check over all words: {verify_promise_dfa(dfa, n)}")

for xv, yv in ((0b1010, 0b0101), (0b1010, 0b0110)):
    x, y = BitString(xv, n), BitString(yv, n)
    word = disjointness_word(x, y)
    print(f"  {word}: accepted={run_dfa(dfa, word)}")

# ---------------------------------------------------------------------------
# Turn the automaton into a protocol and check it decides every promise
# pair. Transmitting a state index twice plus the final answer costs
# 1 + 2*ceil(log2 N) bits.
# ---------------------------------------------------------------------------
protocol = protocol_from_dfa(dfa, n)
expected_cost = 1 + 2 * math.ceil(math.log2(dfa.size))
print(f"\nprotocol cost: {protocol.cost} bits (formula gives {expected_cost})")

wrong = 0
checked = 0
for xv in range(1 << n):
    x = BitString(xv, n)
    for yv in range(1 << n):
        m = (xv & yv).bit_count()
        if m == 0:
            want = 1
        elif 1 <= m <= 3:
            want = 0
        else:
            continue
        checked += 1
        if protocol.decide(x, BitString(yv, n)) != want:
            wrong += 1
print(f"decisions on all {checked} promise pairs: {wrong} wrong")

# ---------------------------------------------------------------------------
# The exact communication bound closes the loop: no protocol beats D, so
# no automaton can be small enough to undercut it.
# ---------------------------------------------------------------------------
matrix = problem_matrix("promise_disj", n, Margin(Fraction(1, 4), n))
min_cc = exact_deterministic_cc(matrix)
need = math.ceil((min_cc - 1) / 2)
print(f"\nexact deterministic cost of the promise problem: {min_cc} bits")
print(f"so any promise-correct automaton needs ceil(log2 N) >= {need}, "
      f"i.e. N >= {2 ** (need - 1) + 1}; the witness above has {dfa.size}")
