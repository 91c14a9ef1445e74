"""Round repetition versus error target, and the resulting message sizes.

A single quantum round leaves a No instance with acceptance up to
(1 - 2*lambda)^2, so independent repetitions drive the error below any
target eps. The classical one-way protocol samples positions instead.
This script prints the exact repetition counts next to their analytic
ceilings and verifies one amplified sweep end to end.
"""

from fractions import Fraction

from promisecc import (
    Margin,
    bit_cost,
    positions_count,
    qubit_cost,
    repetition_count,
    round_columns,
)

# ---------------------------------------------------------------------------
# Exact counts: smallest k with (1 - 3*lambda)^k <= eps for the quantum
# rounds and (1 - lambda)^k <= eps for sampled positions. Computed with
# exact rationals, so no floating point creeps into the counts.
# ---------------------------------------------------------------------------
margins = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
epsilons = [Fraction(1, 3), Fraction(1, 10)]

print("repetition counts per margin and error target")
print(f"{'lambda':>8} {'eps':>6} {'k_quantum':>10} {'k_classical':>12}")
for lam in margins:
    for eps in epsilons:
        kq = repetition_count(lam, eps)
        kc = positions_count(lam, eps)
        print(f"{str(lam):>8} {str(eps):>6} {kq:>10} {kc:>12}")

# ---------------------------------------------------------------------------
# The cost table joins counts with register sizes: k*(3 + 2*ceil(log2 n))
# qubits against k*ceil(log2 n) classical bits.
# ---------------------------------------------------------------------------
eps = Fraction(1, 3)
print("\ncommunication budgets at eps = 1/3")
header = ("lambda", "n", "k_quantum", "qubits", "k_classical", "bits")
print(" ".join(f"{h:>12}" for h in header))
for lam in (Fraction(1, 4), Fraction(1, 8)):
    kq = repetition_count(lam, eps)
    kc = positions_count(lam, eps)
    for n in (8, 64, 1024):
        row = (str(lam), n, kq, qubit_cost(n, kq), kc, bit_cost(n, kc))
        print(" ".join(f"{v:>12}" for v in row))

print(f"\nsingle-round registers: n=16 -> {qubit_cost(16, 1)} qubits, "
      f"k=4 classical samples at n=16 -> {bit_cost(16, 4)} bits")

# ---------------------------------------------------------------------------
# Verify one amplified sweep: at lambda = 1/8 and n = 8 the count says
# k = 3 rounds suffice for error 1/3 on every No pair.
# ---------------------------------------------------------------------------
n = 8
lam = Fraction(1, 8)
margin = Margin(lam, n)
k = repetition_count(lam, Fraction(1, 3))
# one batched dense round over the No pairs of each chunk of the promise's pairs
worst = max(
    p**k
    for x_values, y_values, yes in margin.promise.chunks()
    for p in round_columns(x_values[~yes], y_values[~yes], n)[1].tolist()
)
print(f"\nlambda={lam}, n={n}: k={k} rounds, worst No acceptance "
      f"{worst:.4f} <= 1/3 = {float(Fraction(1, 3)):.4f}")
