"""Enumerate the conserved-sequence grammar and check the charges it encodes.

A sequence of +-1 on an even-ended interval encodes the operator obtained by
reading it left to right: -1 becomes an annihilator, +1 a creator.  Permitted
sequences with constant boundary pairs commute with the Hamiltonian exactly;
break a boundary pair and the commutator is generically nonzero.
"""

import numpy as np

from nicolai import (
    ModelSpec,
    conservation_check,
    enumerate_hat_xi,
    enumerate_ring_sequences,
    monomial_to_sparse,
    sequence_to_operator,
    sign_sigma,
    transfer_count_hat_xi,
)
from nicolai.charges import all_embeddable_sequences, sample_edge_violating_sequences

# The interval sets grow as 2 * 3**(l-1); the transfer matrix over value
# pairs counts them independently of the enumeration.
for l in (1, 2, 3, 4, 5):
    seqs = enumerate_hat_xi(0, l)
    print(f"interval [0, {2 * l}]: {len(seqs):5d} sequences "
          f"(transfer matrix: {transfer_count_hat_xi(0, l)})")

print("\nthe six sequences on [0, 4], with their operators:")
for f in enumerate_hat_xi(0, 2):
    op = sequence_to_operator(f)
    word = " ".join(f"a{'*' if k == '+' else ''}({s})" for s, k in op.factors)
    print(f"  {f.pattern}   ->   {word}")

# Adjoints flip the sequence sign up to (-1)**sigma.
print("\nadjoint sign exponents:", [sign_sigma(0, l) for l in (1, 2, 3)])

# On a ring every embeddable interval sequence and every full-ring permitted
# sequence commutes with H -- exactly, in integer arithmetic.
# The spec builds its basis and H on first use and keeps them.
spec = ModelSpec.ring(3)
lattice = spec.lattice
basis = spec.basis
arcs = all_embeddable_sequences(lattice)
rings = enumerate_ring_sequences(lattice)
worst = max(conservation_check(spec, f) for f in arcs + rings)
print(f"\nring m=3: {len(arcs)} arc charges + {len(rings)} full-ring charges, "
      f"max |[H, Q(f)]| = {worst}")

# Violating a boundary pair breaks conservation essentially always.
rng = np.random.default_rng(1)
violators = sample_edge_violating_sequences(lattice, 40, rng)
nonzero = sum(1 for f in violators if conservation_check(spec, f) != 0)
print(f"boundary-pair violations with nonzero commutator: {nonzero}/40")

# Each charge is nilpotent and odd; squares vanish identically.
f = rings[1]
qf = monomial_to_sparse(sequence_to_operator(f), basis)
print("Q(f)^2 == 0:", (qf @ qf).is_zero())
