"""Supercharge and Hamiltonian of the Nicolai supersymmetric fermion model.

In one dimension the elementary charge sits on an even-centered triple,

    q(2i) = a(2i+1) a*(2i) a(2i-1),

and the supercharge Q is the sum of q over all triples the lattice supports
(every even site on a ring, with wrapped neighbours; only fully contained
triples on an open chain).  Q is nilpotent by the CAR algebra, and the
Hamiltonian is the supersymmetric form H = {Q, Q*}, manifestly positive
semidefinite with [H, Q] = 0.

H splits as H = H_classical + H_hop.  The classical part is diagonal in the
occupation basis and counts, per even-centered triple, the two patterns
"0,1,0" and "1,0,1"; the hopping part moves correlated pairs between
neighbouring triples.  On two-dimensional tori the elementary charge lives on
a five-site cross centered at an even-even site and H is always derived as
{Q, Q*}.

Every operator takes its sites from :func:`charge_hoods`, the neighbourhoods
of :func:`nicolai.grammar.hoods`: one charge per triple or cross, two hopping
terms per pair of triples that share a site.  The module has no site
arithmetic of its own beyond the shifts by two, on operators
(:func:`translate2`) and on Fock states and masks (:func:`_shift_group`,
:func:`_permute_bits`).

The model carries a global U(1) symmetry ([H, N] = 0), invariance under
translation by two sites on rings and along both axes of tori (certified
as the term identity T(Q) = Q: the shift permutes the neighbourhoods), and
a particle-hole transformation rho (swap every a and a*) with rho(Q) = -Q*
(+Q* on tori) and rho(H) = H.  The group of the certified shifts
(:attr:`ModelSpec.shifts`) is the one symmetry that both reductions use:
one spectrum per orbit of H's fragments, and one commutator check per orbit
of the conserved charges.

A :class:`ModelSpec` is the model: the lattice is its only setting (the
1D or 2D form follows from the lattice dimension), and it builds each of its
objects (the full Fock basis, Q, Q*, H, the classical ground states as one
array of Fock states, the spectrum and the eigenvalues alone, the exact
translation certificates) on first use and keeps it; in 1D the classical and
hopping parts of H are H's diagonal and off-diagonal entries.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import grammar
from .fock import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    FockBasis,
    Lattice,
    SparseOperator,
    _normal_form,
    anticommutator,
    enumerate_basis,
    terms_to_sparse,
)
from .fock import monomial_to_sparse  # noqa: F401  alias read by bench/test_bench.py

__all__ = [
    "OperatorSum",
    "ModelSpec",
    "charge_triples",
    "charge_hoods",
    "local_charge_1d",
    "local_charge_2d",
    "build_supercharge",
    "build_hamiltonian_susy",
    "build_hamiltonian_explicit",
    "build_h_classical",
    "build_h_hop",
    "forbidden_triple_projector",
    "number_operator",
    "translate2",
    "particle_hole",
]


@dataclass(frozen=True)
class OperatorSum:
    """A finite sum of fermion monomials."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple(t for t in self.terms if not t.is_zero)
        )

    def to_sparse(self, basis: FockBasis) -> SparseOperator:
        return terms_to_sparse(self.terms, basis)

    def adjoint(self) -> "OperatorSum":
        return OperatorSum(tuple(t.adjoint() for t in self.terms))

    def scaled(self, c) -> "OperatorSum":
        return OperatorSum(tuple(t.scaled(c) for t in self.terms))

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        return OperatorSum(self.terms + other.terms)

    def __mul__(self, other: "OperatorSum") -> "OperatorSum":
        """The product ``sum_ij a_i b_j``, term by term, in order."""
        return OperatorSum(tuple(a * b for a in self.terms for b in other.terms))

    def __neg__(self) -> "OperatorSum":
        return self.scaled(-1)

    def normal_form(self, lattice: Lattice) -> dict:
        """Merged normal-ordered form; canonical, so usable for term equality
        (``{}`` exactly for the zero operator).  ``ValueError`` for a factor
        site outside ``lattice``."""
        return _normal_form(self.terms, lattice)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class ModelSpec:
    """The model on one lattice: the lattice and the objects built from it,
    each on first use and then kept.

    ``h`` is the one Hamiltonian matrix.  The 1D split keeps no matrix of
    its own: every term of :func:`build_h_classical` is an occupation
    product, so it is diagonal, and every term of :func:`build_h_hop` moves
    its two centers, so it has no diagonal entry; once ``verify`` has
    decided ``H == H_classical + H_hop`` on terms, H_classical is
    ``h.diagonal()`` and H_hop is H's off-diagonal entries.
    ``ground_states`` is an int64 array; ``spectrum`` diagonalizes ``h``
    fragment by fragment (the connected components of its sparsity graph),
    with sparse eigenvectors; ``eigenvalues`` solves one fragment per orbit
    of the certified ``shifts`` and keeps no eigenvector.
    """

    lattice: Lattice

    def __post_init__(self):
        lat = self.lattice
        if lat.dimension == 1:
            lo, hi = lat.sites[0], lat.sites[-1]
            if not lat.periodic and (lo % 2 or hi % 2):
                raise ValueError(
                    "open chains need even endpoints (odd site count) "
                    f"so charge triples align; got [{lo}, {hi}]"
                )
        elif not lat.periodic:
            raise ValueError("the 2D model requires a periodic lattice")
        else:
            w, h = lat.shape
            if w % 2 or h % 2 or w < 4 or h < 4:
                raise ValueError(
                    "torus sides must be even and >= 4 so every five-site "
                    f"cross has distinct sites; got {w}x{h}"
                )

    @property
    def variant(self) -> str:
        """``"nicolai-1d"`` or ``"nicolai-2d"``, after the lattice dimension."""
        return f"nicolai-{self.lattice.dimension}d"

    @classmethod
    def ring(cls, m: int) -> "ModelSpec":
        return cls(Lattice.ring(m))

    @classmethod
    def chain(cls, lo: int, hi: int) -> "ModelSpec":
        return cls(Lattice.chain(lo, hi))

    @classmethod
    def chain_sites(cls, nsites: int) -> "ModelSpec":
        """Open chain [0, nsites-1]; nsites must be odd."""
        if nsites % 2 == 0:
            raise ValueError("open chains need an odd number of sites")
        return cls.chain(0, nsites - 1)

    @classmethod
    def torus(cls, width: int, height: int) -> "ModelSpec":
        return cls(Lattice.torus(width, height))

    def to_json(self) -> str:
        lat = self.lattice
        if lat.dimension == 1:
            extent = [lat.sites[0], lat.sites[-1]]
        else:
            w, h = lat.shape
            extent = [[0, w - 1], [0, h - 1]]
        return json.dumps(
            {
                "dimension": lat.dimension,
                "extent": extent,
                "boundary": lat.boundary,
                "variant": self.variant,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        d = json.loads(text)
        if d["dimension"] == 1:
            lo, hi = d["extent"]
            if d["boundary"] == "periodic":
                if lo != -(hi + 1):
                    raise ValueError(f"periodic extent must be [-m-1, m], got {d['extent']}")
                lat = Lattice.ring(hi)
            else:
                lat = Lattice.chain(lo, hi)
        else:
            (x0, x1), (y0, y1) = d["extent"]
            if (x0, y0) != (0, 0):
                raise ValueError("2D extent must start at (0, 0)")
            if d["boundary"] == "periodic":
                lat = Lattice.torus(x1 + 1, y1 + 1)
            else:
                lat = Lattice.rectangle(x1 + 1, y1 + 1)
        spec = cls(lat)
        if d["variant"] != spec.variant:
            raise ValueError(f"variant {d['variant']!r} does not fit this lattice")
        return spec

    @cached_property
    def basis(self) -> FockBasis:
        return enumerate_basis(self.lattice)

    @cached_property
    def q_sum(self) -> OperatorSum:
        return build_supercharge(self)

    @cached_property
    def q(self) -> SparseOperator:
        return self.q_sum.to_sparse(self.basis)

    @cached_property
    def q_dagger(self) -> SparseOperator:
        return self.q.adjoint()

    @cached_property
    def h(self) -> SparseOperator:
        """``{Q, Q*}`` as canonical CSR (sorted indices, no duplicate, no
        stored zero: the sparse product and sum drop the entries that
        cancel), so every reader takes it as it is stored."""
        h = anticommutator(self.q, self.q_dagger)
        h.matrix.sum_duplicates()
        return h

    def _shift2_identity(self, axis: int) -> bool:
        """``T(Q) == Q`` term by term for the shift ``T`` by two along ``axis``."""
        moved = translate2(self.q_sum, self.lattice, axis)
        return Counter(moved.terms) == Counter(self.q_sum.terms)

    @cached_property
    def h_translation2_invariant(self) -> bool:
        """Whether the shift by two sites (along x in 2D) maps the terms of Q
        onto themselves, ``T(Q) == Q`` term by term; periodic lattices only.
        What the identity certifies is stated on :attr:`shifts`."""
        return self._shift2_identity(0)

    @cached_property
    def shifts(self) -> tuple:
        """The certified shifts by two as site-rank permutations (``g[r]`` is
        the rank that rank r moves to): along x when
        ``h_translation2_invariant`` holds, and on tori along y when the
        same term identity holds for the y-shift.  Empty on open lattices.

        A shift T is the CAR *-automorphism ``a_x -> a_(T x)``, so the exact
        term identity ``T(Q) == Q`` gives ``T(H) == {T(Q), T(Q)*} == H``; it
        is stronger than the matrix identity, which follows from it, and no
        matrix is built.  The unitary U that implements T moves the Fock
        state x to ``+-g(x)`` (:func:`_permute_bits`), so ``U H U* == H``,
        and it maps the monomial with Jordan-Wigner masks ``(S, P)`` to
        ``+-`` the one with masks ``(g(S), g(P))``.  Every element of the
        group the shifts generate (:func:`_shift_group`) does the same.
        Hence H's fragments in one orbit share their eigenvalues
        (:func:`~nicolai.dynamics.fragment_eigenvalues`), and ``[H, Q(f)]``
        has the same max-abs entry for every charge of one orbit
        (:func:`~nicolai.charges._catalogue_residual`)."""
        lat = self.lattice
        if not lat.periodic:
            return ()
        certified = [0] if self.h_translation2_invariant else []
        certified += [a for a in range(1, lat.dimension) if self._shift2_identity(a)]
        return tuple(
            tuple(lat.rank(shift(site)) for site in lat.sites)
            for shift in (_shift2(lat, a) for a in certified)
        )

    @cached_property
    def ground_states(self) -> np.ndarray:
        """The classical ground configurations as int64 Fock states (bit r is
        the rank-r site), in word order: lexicographic by site, not ascending."""
        from .groundstates import _ground_codes  # deferred: builds on this module

        return _ground_codes(self.lattice).astype(np.int64)

    @cached_property
    def spectrum(self):
        from .dynamics import diagonalize  # deferred: builds on this module

        return diagonalize(self.h)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """H's eigenvalues, ascending, with no eigenvectors: one ``eigh`` per
        orbit of fragments under the certified :attr:`shifts`."""
        from .dynamics import fragment_eigenvalues  # deferred: builds on this module

        return fragment_eigenvalues(self.h, self.shifts)


def charge_hoods(lattice: Lattice) -> list:
    """Charge neighbourhoods as site ranks ``(center, *arms)``: the
    even-centered triples ``(center, left, right)`` in 1D, the five-site
    crosses ``(center, xminus, yminus, xplus, yplus)`` on tori."""
    if lattice.dimension == 2 and not lattice.periodic:
        raise ValueError("2D charges are defined on tori")
    return grammar.hoods(lattice.sites, lattice.periodic, lattice.shape)


def charge_triples(lattice: Lattice) -> list:
    """Even-centered triples ``(left, center, right)``, wrapped on rings."""
    if lattice.dimension != 1:
        raise ValueError("charge triples are one-dimensional")
    s = lattice.sites
    return [(s[l], s[c], s[r]) for c, l, r in charge_hoods(lattice)]


def _local_charge(lattice: Lattice, hood) -> FermionMonomial:
    """The charge on one neighbourhood of site ranks: ``a(right) a*(center)
    a(left)`` on a triple, ``a(xm) a(ym) a*(c) a(xp) a(yp)`` on a cross."""
    c, *arms = (lattice.sites[p] for p in hood)
    if len(arms) == 2:
        left, right = arms
        return FermionMonomial(1, ((right, ANNIHILATE), (c, CREATE), (left, ANNIHILATE)))
    xm, ym, xp, yp = arms
    return FermionMonomial(
        1,
        ((xm, ANNIHILATE), (ym, ANNIHILATE), (c, CREATE), (xp, ANNIHILATE), (yp, ANNIHILATE)),
    )


def _charge_at(lattice: Lattice, center) -> FermionMonomial:
    """The charge whose neighbourhood is centered at the site label ``center``."""
    for hood in charge_hoods(lattice):
        if lattice.sites[hood[0]] == center:
            if len(set(hood)) != len(hood):
                raise ValueError("cross sites collide; torus too small")
            return _local_charge(lattice, hood)
    raise ValueError(f"no charge neighbourhood of the lattice is centered at {center}")


def local_charge_1d(i: int, lattice: Lattice) -> FermionMonomial:
    """The three-site charge ``a(2i+1) a*(2i) a(2i-1)`` centered at ``2i``,
    read off the triple of :func:`charge_hoods` there; ``ValueError`` if
    the lattice has none (an open chain's edge)."""
    return _charge_at(lattice, lattice.wrap(2 * i))


def local_charge_2d(i: int, j: int, lattice: Lattice) -> FermionMonomial:
    """Five-site cross charge centered at the even-even site ``(2i, 2j)``,
    read off the cross of :func:`charge_hoods` there; ``ValueError`` if its
    sites collide (a side shorter than 3)."""
    return _charge_at(lattice, lattice.wrap((2 * i, 2 * j)))


def build_supercharge(spec: ModelSpec) -> OperatorSum:
    """Sum of the local charges over every triple/cross the lattice supports."""
    lat = spec.lattice
    return OperatorSum(tuple(_local_charge(lat, hood) for hood in charge_hoods(lat)))


def build_hamiltonian_susy(q: OperatorSum, basis: FockBasis) -> SparseOperator:
    """``H = {Q, Q*}`` realized on ``basis``; symmetric positive semidefinite."""
    qm = q.to_sparse(basis)
    return anticommutator(qm, qm.adjoint())


def build_hamiltonian_explicit(spec: ModelSpec) -> OperatorSum:
    """Expanded 1D Hamiltonian, equal to {Q, Q*} as a matrix.

    Per supported center 2i the diagonal block

        a*(2i) a(2i) a(2i+1) a*(2i+1)
      + a*(2i-1) a(2i-1) a(2i) a*(2i)
      - a*(2i-1) a(2i-1) a(2i+1) a*(2i+1)

    and, for every pair of neighbouring triples, the two hopping terms of
    :func:`build_h_hop`.  On open chains this truncation reproduces
    {Q_truncated, Q_truncated*} exactly.
    """
    if spec.lattice.dimension != 1:
        raise ValueError("explicit expansion is only available in 1D; use {Q, Q*}")
    terms = []
    for (l, c, r) in charge_triples(spec.lattice):
        terms.append(
            FermionMonomial(1, ((c, CREATE), (c, ANNIHILATE), (r, ANNIHILATE), (r, CREATE)))
        )
        terms.append(
            FermionMonomial(1, ((l, CREATE), (l, ANNIHILATE), (c, ANNIHILATE), (c, CREATE)))
        )
        terms.append(
            FermionMonomial(-1, ((l, CREATE), (l, ANNIHILATE), (r, ANNIHILATE), (r, CREATE)))
        )
    return OperatorSum(tuple(terms + _hop_terms(spec.lattice)))


def build_h_classical(spec: ModelSpec) -> OperatorSum:
    """Diagonal part: per triple ``n_c - n_l n_c - n_c n_r + n_l n_r``."""
    if spec.lattice.dimension != 1:
        raise ValueError("the classical/hopping split is only available in 1D")
    terms = []
    for (l, c, r) in charge_triples(spec.lattice):
        terms.extend(forbidden_triple_projector(l, c, r).terms)
    return OperatorSum(tuple(terms))


def forbidden_triple_projector(l, c, r) -> OperatorSum:
    """Diagonal operator with eigenvalue 1 exactly on occupations "0,1,0" and
    "1,0,1" of the triple ``(l, c, r)`` and 0 on the other six patterns."""
    n = FermionMonomial.number
    return OperatorSum(
        (
            n(c),
            (n(l) * n(c)).scaled(-1),
            (n(c) * n(r)).scaled(-1),
            n(l) * n(r),
        )
    )


def build_h_hop(spec: ModelSpec) -> OperatorSum:
    """Pair-hopping part: two terms per pair of neighbouring triples."""
    if spec.lattice.dimension != 1:
        raise ValueError("the classical/hopping split is only available in 1D")
    return OperatorSum(tuple(_hop_terms(spec.lattice)))


def _hop_terms(lattice: Lattice) -> list:
    """Per pair of neighbouring triples ``(l, c, r)`` and ``(r, c2, r2)``,
    which share the site ``r``, by ascending ``c``:

        a*(c) a(l) a(c2) a*(r2) + a*(l) a(c) a(r2) a*(c2).
    """
    triples = charge_triples(lattice)
    by_left = {t[0]: t for t in triples}
    terms = []
    for (l, c, r) in triples:
        if r in by_left:
            _, c2, r2 = by_left[r]
            terms.append(
                FermionMonomial(1, ((c, CREATE), (l, ANNIHILATE), (c2, ANNIHILATE), (r2, CREATE)))
            )
            terms.append(
                FermionMonomial(1, ((l, CREATE), (c, ANNIHILATE), (r2, ANNIHILATE), (c2, CREATE)))
            )
    return terms


def number_operator(lattice: Lattice, basis: FockBasis) -> SparseOperator:
    """Total particle number ``N = sum_i n_i`` (diagonal)."""
    if basis.lattice != lattice:
        raise ValueError("basis does not live on the given lattice")
    return SparseOperator(
        basis, sp.diags(basis.popcounts, format="csr", dtype=np.int64)
    )


def _shift2(lattice: Lattice, axis: int):
    """The site map of the shift by two lattice units along ``axis`` (x = 0,
    y = 1 in 2D; 0 in 1D), periodic lattices only."""
    if not lattice.periodic:
        raise ValueError("translation by two is a symmetry of periodic lattices only")
    if axis not in range(lattice.dimension):
        raise ValueError(f"a {lattice.dimension}D lattice has no axis {axis}")
    if lattice.dimension == 1:
        return lambda site: lattice.wrap(site + 2)
    step = (2, 0) if axis == 0 else (0, 2)
    return lambda site: lattice.wrap((site[0] + step[0], site[1] + step[1]))


def _shift_group(shifts, n: int) -> list:
    """Every product of the site-rank permutations ``shifts`` (``g[r]`` is
    the rank that rank r moves to), the identity first."""
    group = [tuple(range(n))]
    for g in group:  # grows while it is read, so every product is reached
        for s in shifts:
            if (q := tuple(s[r] for r in g)) not in group:
                group.append(q)
    return group


def _permute_bits(states: np.ndarray, g) -> np.ndarray:
    """Each state with its bit r moved to bit ``g[r]``: one masked shift per
    distinct displacement ``g[r] - r`` (two for a rotation)."""
    out = np.zeros_like(states)
    delta = np.asarray(g) - np.arange(len(g))
    for d in np.unique(delta).tolist():
        part = states & sum(1 << r for r in np.flatnonzero(delta == d).tolist())
        out |= part << d if d >= 0 else part >> -d
    return out


def translate2(a: OperatorSum, lattice: Lattice, axis: int = 0) -> OperatorSum:
    """Shift every factor site by two lattice units, along x (``axis=0``) or
    y (``axis=1``) in 2D (periodic lattices only)."""
    shift = _shift2(lattice, axis)
    return OperatorSum(
        tuple(
            FermionMonomial(t.coefficient, tuple((shift(s), k) for s, k in t.factors))
            for t in a.terms
        )
    )


def particle_hole(a: OperatorSum) -> OperatorSum:
    """Swap creation and annihilation on every factor of every term."""
    return OperatorSum(tuple(t.particle_hole() for t in a.terms))
