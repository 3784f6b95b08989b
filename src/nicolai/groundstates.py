"""Classical supersymmetric ground states of the Nicolai model.

A configuration assigns 0 or 1 to every lattice site.  It is a ground-state
configuration exactly when no even-centered triple carries the occupation
patterns "0,1,0" or "1,0,1" (on tori: no five-site cross carries "center 1,
arms 0" or "center 0, arms 1").  Three characterizations coincide and are all
implemented here: the pattern criterion, the zero set of the diagonal
classical Hamiltonian, and annihilation of the product vector by Q and Q*.

Configurations use the ``{0, 1}`` alphabet; conserved sequences use
``{-1, +1}``.  The bijection ``0 <-> -1``, ``1 <-> +1`` identifies the
forbidden patterns of the two alphabets, but the types are kept distinct: a
configuration labels a Fock product vector, a sequence labels an operator.

The pattern rule and its enumerator live in :mod:`nicolai.grammar`.  The
command line reads the word codes of :func:`_ground_codes`, one integer per
configuration whose bit ``r`` is the occupation of the rank-``r`` site:
counted, spelled, cast to the Fock states ``ModelSpec.ground_states``, and
checked for annihilation all at once on CSR rows (:func:`_annihilated`).
A :class:`Configuration` is the library form, the array path's oracle and
the unit of :func:`verify_susy_ground`.  The census degeneracy is extensive:
counts grow like ``lambda**(n/2)`` with ``lambda = 3`` the leading
eigenvalue of the pair transfer matrix, an independent counting oracle for
every enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import grammar
from .charges import ConservedSequence
from .fock import (
    CREATE,
    FermionMonomial,
    FockBasis,
    Lattice,
    _row_entries,
    apply_monomial,
    enumerate_basis,
)
from .model import ModelSpec, charge_hoods

__all__ = [
    "Configuration",
    "GroundStateReport",
    "KernelCensus",
    "is_ground_config",
    "enumerate_ground_configs",
    "ground_config_mask",
    "transfer_count_ground_configs",
    "entropy_density",
    "config_to_vector",
    "occupation_monomial",
    "verify_susy_ground",
    "kernel_census",
]

# object enumeration limit; larger lattices are counted by transfer matrix
_MAX_EXHAUSTIVE = 24
# eigenvalues of H at most this far from zero count as kernel
_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class Configuration:
    """A ``{0, 1}`` occupation pattern, total on its lattice."""

    lattice: Lattice
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.lattice.nsites:
            raise ValueError("configuration must assign every site")
        if self.values.count(0) + self.values.count(1) != len(self.values):
            raise ValueError("occupations must be 0 or 1")

    @classmethod
    def from_state(cls, state: int, lattice: Lattice) -> "Configuration":
        return cls(lattice, tuple((state >> r) & 1 for r in range(lattice.nsites)))

    @classmethod
    def all_empty(cls, lattice: Lattice) -> "Configuration":
        return cls(lattice, (0,) * lattice.nsites)

    @classmethod
    def all_occupied(cls, lattice: Lattice) -> "Configuration":
        return cls(lattice, (1,) * lattice.nsites)

    @property
    def state(self) -> int:
        """Occupation integer: bit r holds the value at the rank-r site."""
        return sum(1 << r for r, v in enumerate(self.values) if v)

    def value_at(self, site) -> int:
        return self.values[self.lattice.rank(site)]

    def flipped(self) -> "Configuration":
        """Particle-hole image: every occupation bit inverted."""
        return Configuration(self.lattice, tuple(1 - v for v in self.values))

    def to_sequence(self) -> ConservedSequence:
        """Image under ``0 -> -1``, ``1 -> +1`` on the same support."""
        return ConservedSequence(
            self.lattice.sites,
            tuple(2 * v - 1 for v in self.values),
            closed=self.lattice.periodic,
            shape=self.lattice.shape,
        )

    def bitstring(self) -> str:
        return "".join(str(v) for v in self.values)


def _violated_triples(g: Configuration) -> list:
    """Centers of forbidden triples/crosses, with the pattern found: the
    occupations ``(left, center, right)`` of a triple, a phrase for a cross."""
    bad = []
    for hood in charge_hoods(g.lattice):
        center, *arms = (g.values[r] for r in hood)
        if grammar.forbidden(center, arms):
            c = g.lattice.sites[hood[0]]
            if len(arms) == 2:
                bad.append((c, (arms[0], center, arms[1])))
            else:
                bad.append((c, f"center {center}, arms {arms[0]}"))
    return bad


def is_ground_config(g: Configuration) -> bool:
    """No forbidden triple anywhere (wrapped triples included on rings)."""
    return not _violated_triples(g)


def ground_config_mask(lattice: Lattice, basis: FockBasis | None = None) -> np.ndarray:
    """Boolean mask over the full basis marking ground-state configurations.

    Bit arithmetic over Fock states, independent of the word enumeration:
    the pattern filter of :func:`~nicolai.grammar.permitted_codes`, applied
    once to every state, so the forbidden patterns come from
    :func:`~nicolai.grammar.forbidden` itself.
    """
    if basis is None:
        basis = enumerate_basis(lattice)
    return grammar._permits(basis.states, charge_hoods(lattice))


def _ground_codes(lattice: Lattice) -> np.ndarray:
    """The ground-state configurations as word codes, in lexicographic site
    order.  Bit ``r`` of a code is the occupation of the rank-``r`` site, so
    each code is its Fock state."""
    return grammar.permitted_codes(lattice.nsites, charge_hoods(lattice))


def enumerate_ground_configs(lattice: Lattice) -> list:
    """All ground-state configurations in lexicographic site order, one
    :class:`Configuration` per word; raises beyond ``_MAX_EXHAUSTIVE``
    sites (:func:`transfer_count_ground_configs` counts larger systems)."""
    n = lattice.nsites
    if n > _MAX_EXHAUSTIVE:
        raise ValueError(
            f"{n} sites exceeds the exhaustive limit ({_MAX_EXHAUSTIVE}); "
            "use the transfer-matrix count instead"
        )
    rows = grammar.unpack(_ground_codes(lattice), n, (0, 1))
    return [Configuration(lattice, v) for v in map(tuple, rows.tolist())]


def transfer_count_ground_configs(lattice: Lattice) -> int:
    """Independent transfer-matrix count of the ground-state configurations.

    Supports 1D chains with even endpoints and 1D rings.
    """
    if lattice.dimension != 1:
        raise ValueError("transfer-matrix counting is one-dimensional")
    if lattice.periodic:
        return grammar.ring_word_count(lattice.nsites)
    lo, hi = lattice.sites[0], lattice.sites[-1]
    if lo % 2 or hi % 2:
        raise ValueError("chain counting needs even endpoints")
    nblocks = (hi - lo) // 2  # pairs (2i, 2i+1); the final even site is free
    if nblocks < 1:
        return 2
    return int(grammar.transfer_power(nblocks - 1).sum()) * 2


def entropy_density(lattice: Lattice) -> float:
    """Ground-state entropy per site, ``log(lambda_max) / 2``."""
    lam = np.linalg.eigvals(grammar.pair_transfer_matrix().astype(float))
    return float(np.log(np.max(np.abs(lam))) / 2.0)


def occupation_monomial(g: Configuration) -> FermionMonomial:
    """Product of creation factors at the occupied sites, ascending order."""
    return FermionMonomial(1, tuple((s, CREATE) for s in g.lattice.sites if g.value_at(s) == 1))


def config_to_vector(g: Configuration, basis: FockBasis) -> np.ndarray:
    """Unit basis vector whose occupation bits equal the configuration.

    Identical to applying :func:`occupation_monomial` to the empty state; in
    the ascending-order convention the resulting amplitude is always +1.
    """
    if basis.lattice != g.lattice:
        raise ValueError("basis lives on a different lattice")
    v = np.zeros(basis.dim, dtype=np.float64)
    v[basis.index_of(g.state)] = 1.0
    return v


@dataclass
class GroundStateReport:
    """Outcome of the supersymmetry check on one configuration."""

    config: Configuration
    is_ground: bool
    q_residual: int
    q_dagger_residual: int
    h_residual: int
    violated_triples: list
    # per violated "1,0,1" triple: (center, signed image configuration) under
    # the local charge; per "0,1,0" triple the same under its adjoint
    flip_actions: list

    @property
    def annihilated(self) -> bool:
        return self.q_residual == self.q_dagger_residual == self.h_residual == 0


def verify_susy_ground(g: Configuration, spec: ModelSpec) -> GroundStateReport:
    """Check ``Q|g> = Q*|g> = H|g> = 0`` term by term, with no matrix.

    For ground configurations every elementary charge (and its adjoint) kills
    the vector.  For others, each violated "1,0,1" triple is flipped to
    "0,1,0" by the local charge (and back by its adjoint), with the fermionic
    sign recorded.  The same :func:`~nicolai.fock.apply_monomial` calls sum
    into ``Q|g>`` and ``Q*|g>`` per image state, and ``H|g> = Q(Q*|g>) +
    Q*(Q|g>)``; each residual is the largest magnitude in its vector.  No
    transpose or symmetry argument enters, so this is the independent oracle
    of :func:`_annihilated`.
    """
    lat = spec.lattice
    if g.lattice != lat:
        raise ValueError("configuration lives on a different lattice")
    terms = spec.q_sum.terms
    adjoints = [q.adjoint() for q in terms]

    flips, vectors = [], {"charge": Counter(), "adjoint": Counter(), "h": Counter()}
    for q, qd in zip(terms, adjoints):
        center = q.factors[len(q.factors) // 2][0]
        for kind, op in (("charge", q), ("adjoint", qd)):
            if (res := apply_monomial(op, g.state, lat)) is not None:
                flips.append((kind, center, res[0], Configuration.from_state(res[1], lat)))
                vectors[kind][res[1]] += res[0]
    # H|g> = Q(Q*|g>) + Q*(Q|g>)
    for ops, kind in ((terms, "adjoint"), (adjoints, "charge")):
        for (state, amplitude), op in itertools.product(vectors[kind].items(), ops):
            if (res := apply_monomial(op, state, lat)) is not None:
                vectors["h"][res[1]] += amplitude * res[0]
    q, qd, h = (max(map(abs, vectors[k].values()), default=0) for k in ("charge", "adjoint", "h"))
    return GroundStateReport(
        config=g,
        is_ground=is_ground_config(g),
        q_residual=q,
        q_dagger_residual=qd,
        h_residual=h,
        violated_triples=_violated_triples(g),
        flip_actions=flips,
    )


def _annihilated(spec: ModelSpec, states: np.ndarray) -> np.ndarray:
    """Whether ``Q|g> = Q*|g> = H|g> = 0``, for every Fock state ``g`` of
    ``states`` at once.  A state is its own basis index, Q* is Q's transpose
    and H is symmetric, so the three vectors are the CSR rows ``g`` of Q*, Q
    and H (:func:`~nicolai.fock._row_entries`); a stored zero counts as zero,
    as in :func:`verify_susy_ground`."""
    ok = np.ones(len(states), dtype=bool)
    for op in (spec.q_dagger, spec.q, spec.h):
        m = op.matrix
        owner, entry = _row_entries(m, states)
        ok[owner[m.data[entry] != 0]] = False
    return ok


@dataclass
class KernelCensus:
    """Ground-space bookkeeping for one model."""

    classical_count: int
    dim_ker_h_classical: int
    dim_ker_h: int
    min_positive_classical: float | None  # None when there is no positive value
    min_positive_h: float | None

    @property
    def consistent(self) -> bool:
        """The classical kernel must match the census exactly; the full SUSY
        kernel may only be at least as large (equality is not asserted)."""
        return (
            self.dim_ker_h_classical == self.classical_count
            and self.dim_ker_h >= self.classical_count
        )


def kernel_census(spec: ModelSpec) -> KernelCensus:
    """Count classical ground configurations against the operator kernels:
    H's kernel and least positive eigenvalue are read off
    ``spec.eigenvalues``, which keeps no eigenvector; H_classical's off
    ``spec.h.diagonal()`` (:class:`~nicolai.model.ModelSpec` states why)."""
    if spec.lattice.dimension != 1:
        raise ValueError("kernel census needs the classical/hopping split, available in 1D only")
    classical_count = len(spec.ground_states)

    eig = spec.eigenvalues
    dim_ker_h = int(np.count_nonzero(np.abs(eig) <= _ZERO_TOL))
    positive = eig[eig > _ZERO_TOL]
    min_pos_h = float(positive.min()) if positive.size else None

    diag = spec.h.diagonal()
    dim_ker_hcl = int(np.count_nonzero(diag == 0))
    pos = diag[diag > 0]
    min_pos_cl = float(pos.min()) if pos.size else None

    return KernelCensus(
        classical_count=classical_count,
        dim_ker_h_classical=dim_ker_hcl,
        dim_ker_h=dim_ker_h,
        min_positive_classical=min_pos_cl,
        min_positive_h=min_pos_h,
    )
