"""Classify sets under filters and decide admissibility of norm targets.

A target sequence is admissible for a filter exactly when its inverse
powers diverge over every stationary set.  The engine proves this with
named criteria, refutes it with explicit witness sets, and says so
honestly when neither certificate exists.
"""

from fractions import Fraction

from fbasis import (
    Complement,
    Finite,
    Frechet,
    GeometricIndex,
    PowerLog,
    Residue,
    Statistical,
    Summable,
    check_admissible,
    classify_set,
    dominates,
    natural_density,
    nonadmissibility_witness,
    slow_certificate,
    weight_sum,
)

harmonic = PowerLog(1, Fraction(-1))
evens = Residue(2, 0)
powers_of_two = GeometricIndex(Fraction(2))

# densities drive the statistical filter
print("density of evens:", natural_density(evens))
print("density of powers of two:", natural_density(powers_of_two))
print("evens under the statistical filter:", classify_set(evens, Statistical()))
print("co-geometric set under summable(1/n):",
      classify_set(Complement(powers_of_two), Summable(harmonic)))
print("finite sets are negligible:", classify_set(Finite((1, 2, 3)), Frechet()))

# admissibility verdicts with their criteria and witnesses
sqrt_n = PowerLog(1, Fraction(1, 2))
print("\nsqrt(n) statistical p=2:", check_admissible(sqrt_n, Statistical(), 2).kind)
v = check_admissible(PowerLog(1, Fraction(1)), Statistical(), 2)
print("n statistical p=2:", v.kind, "witness:", v.witness.to_text())
print("sqrt(n) under its own summable filter:",
      check_admissible(sqrt_n, Summable(PowerLog(1, Fraction(-1, 2))), 1).kind)

# the greedy block witness for a refuted summable criterion
witness = nonadmissibility_witness(PowerLog(1, Fraction(2)), harmonic, 1)
print("\ngreedy witness:", witness.to_text())
print("blocks:", [b.tolist() for b in witness.materialized_blocks()[:3]], "...")
print("block sums:", [round(s, 4) for s in witness.block_sums()])
print("inverse sum over the witness prefix:", round(witness.prefix_inverse_sum(), 4))
print("witness filter mass:", weight_sum(witness, harmonic).kind)

# slow filters admit no admissible sequence growing like sqrt(n)
print("\nsummable(n^-1/4):", slow_certificate(Summable(PowerLog(1, Fraction(-1, 4)))))
print("summable(1/n):", slow_certificate(Summable(harmonic)).kind)
print("statistical:", slow_certificate(Statistical()).kind)

# filter domination with a refutation witness
v = dominates(Frechet(), Statistical())
print("\nFrechet dominates statistical?", v.kind, "witness:", v.witness.to_text())
print("summable(1/n) dominates Frechet?", dominates(Summable(harmonic), Frechet()).kind)
