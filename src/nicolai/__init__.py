"""Exact diagonalization of the Nicolai supersymmetric fermion lattice model.

The package is organized bottom-up:

- :mod:`nicolai.fock`: exact CAR algebra on finite Fock spaces (integer
  sparse matrices, Jordan-Wigner signs from one canonical site order);
- :mod:`nicolai.model`: the supercharge, the Hamiltonian ``H = {Q, Q*}`` and
  its classical/hopping split, the model symmetries, and
  :class:`~nicolai.model.ModelSpec`, the model itself, which builds each of
  its objects (basis, Q, Q*, H, its split, the ground states as one array
  of Fock states, spectrum, eigenvalues) on first use and keeps it;
- :mod:`nicolai.grammar`: the forbidden-pattern rule shared by sequences and
  configurations, its breadth-first enumerator of packed word codes and its
  pair transfer matrix;
- :mod:`nicolai.charges`: the permitted-sequence grammar and the local
  fermionic constants of motion it encodes;
- :mod:`nicolai.groundstates`: the census of classical supersymmetric ground
  states (forbidden-triplet-free occupation patterns);
- :mod:`nicolai.dynamics`: spectra, dephasing, Mazur ergodicity gaps,
  no-resonance checks, Heisenberg evolution;
- :mod:`nicolai.cli`: the ``nicolai`` command-line front end.
"""

from .fock import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    FockBasis,
    Lattice,
    SparseOperator,
    anticommutator,
    apply_monomial,
    commutator,
    enumerate_basis,
    graded_commutator,
    monomial_to_sparse,
    normal_order,
    parity_operator,
)
from .model import (
    ModelSpec,
    OperatorSum,
    build_h_classical,
    build_h_hop,
    build_hamiltonian_explicit,
    build_hamiltonian_susy,
    build_supercharge,
    charge_triples,
    local_charge_1d,
    local_charge_2d,
    number_operator,
    particle_hole,
    translate2,
)
from .charges import (
    ConservedSequence,
    adjoint_identity_check,
    anticommute_check,
    arc_sequences,
    all_embeddable_sequences,
    conservation_check,
    conservation_sweep,
    enumerate_hat_xi,
    enumerate_ring_sequences,
    independence_probe,
    is_permitted,
    lattice_sequences,
    lattice_sweep,
    reference_interval_tables,
    sequence_to_operator,
    sign_sigma,
    transfer_count_hat_xi,
    transfer_count_ring_sequences,
)
from .groundstates import (
    Configuration,
    config_to_vector,
    enumerate_ground_configs,
    is_ground_config,
    kernel_census,
    transfer_count_ground_configs,
    verify_susy_ground,
)
from .dynamics import (
    Spectrum,
    ThermalState,
    dephase,
    diagonalize,
    ergodicity_report,
    evolve,
    fragment_eigenvalues,
    mazur_gap,
    no_resonance_check,
    time_averaged_autocorrelation,
)

__version__ = "0.1.0"
