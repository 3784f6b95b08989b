"""Exact CAR algebra on finite Fock spaces.

A :class:`Lattice` is a finite, totally ordered set of sites: an integer
interval, a periodic ring labelled ``-m-1, ..., m`` with ``m+1 == -m-1``, or a
two-dimensional grid in row-major order.  A Fock basis state is an integer
whose bit ``r`` stores the occupation of the site with rank ``r``; fermionic
signs derive from this one order in the usual Jordan-Wigner fashion: a single
creation/annihilation factor acting at rank ``r`` picks up
``(-1)**(number of occupied sites of rank < r)``, evaluated at the moment the
factor acts.

Operators enter as :class:`FermionMonomial`, an ordered product of creation
and annihilation factors scaled by a real coefficient, and are realized as
sparse matrices over a :class:`FockBasis`, the full space of ``2**n`` states,
where a state is its own row and column index.  Every monomial, whatever
sites repeat, composes into one closed form :func:`jordan_wigner_masks`: a
signed partial permutation of the basis given by four masks and a
constant.  Monomials with integer coefficients produce ``int64`` matrices,
so anticommutation relations, nilpotency and commutant statements are
certified exactly, with no floating-point tolerance.  This module holds the
one decoder of the closed form (:func:`_signed_images`):
:func:`terms_to_sparse` builds a sum of monomials as one CSR through it,
and the charge kernel of :mod:`nicolai.charges` reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

CREATE = "+"
ANNIHILATE = "-"

__all__ = [
    "CREATE",
    "ANNIHILATE",
    "Lattice",
    "FockBasis",
    "FermionMonomial",
    "SparseOperator",
    "enumerate_basis",
    "apply_monomial",
    "jordan_wigner_masks",
    "terms_to_sparse",
    "monomial_to_sparse",
    "anticommutator",
    "commutator",
    "graded_commutator",
    "hilbert_schmidt_gram",
    "span_dimension",
    "normal_order",
    "parity_operator",
]


@dataclass(frozen=True)
class Lattice:
    """Finite site set with a total order and a boundary condition.

    ``sites`` is stored in rank order: ascending integers in one dimension,
    row-major coordinate pairs in two.  Periodic lattices identify raw labels
    modulo the extent; :meth:`wrap` maps any label to its canonical
    representative.  All fermionic signs are taken with respect to the rank
    order regardless of geometry, so the boundary condition only affects
    which site labels appear in operators, never the sign rule.
    """

    dimension: int
    boundary: str
    sites: tuple
    shape: tuple | None = None  # (width, height) for 2D lattices

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.dimension == 2 and self.shape is None:
            raise ValueError("2D lattice requires a shape")

    @classmethod
    def chain(cls, lo: int, hi: int) -> "Lattice":
        """Open 1D interval ``[lo, hi]``."""
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return cls(1, "open", tuple(range(lo, hi + 1)))

    @classmethod
    def ring(cls, m: int) -> "Lattice":
        """Periodic 1D ring ``[-m-1, m]`` with the wrap ``m+1 == -m-1``.

        The ring has ``2m+2`` sites, so parity of site labels is consistent
        around the loop.
        """
        if m < 1:
            raise ValueError(f"ring parameter m must be >= 1, got {m}")
        return cls(1, "periodic", tuple(range(-m - 1, m + 1)))

    @classmethod
    def torus(cls, width: int, height: int) -> "Lattice":
        """Periodic 2D grid with sites ``(x, y)`` in ``[0, width) x [0, height)``."""
        if width < 2 or height < 2:
            raise ValueError("torus sides must be >= 2")
        sites = tuple((x, y) for x in range(width) for y in range(height))
        return cls(2, "periodic", sites, shape=(width, height))

    @classmethod
    def rectangle(cls, width: int, height: int) -> "Lattice":
        """Open 2D grid with sites ``(x, y)`` in ``[0, width) x [0, height)``."""
        if width < 1 or height < 1:
            raise ValueError("rectangle sides must be >= 1")
        sites = tuple((x, y) for x in range(width) for y in range(height))
        return cls(2, "open", sites, shape=(width, height))

    @property
    def nsites(self) -> int:
        return len(self.sites)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def ring_m(self) -> int:
        """Ring parameter m for a periodic 1D lattice (sites ``-m-1 .. m``)."""
        if self.dimension != 1 or not self.periodic:
            raise ValueError("ring_m is defined for periodic 1D lattices only")
        return (self.nsites - 2) // 2

    @cached_property
    def _rank(self) -> dict:
        return {s: r for r, s in enumerate(self.sites)}

    def rank(self, site) -> int:
        """Position of ``site`` in the canonical order."""
        return self._rank[site]

    def wrap(self, site):
        """Canonical representative of a (possibly out-of-range) site label."""
        if not self.periodic:
            return site
        if self.dimension == 1:
            n = self.nsites
            lo = self.sites[0]
            return (site - lo) % n + lo
        w, h = self.shape
        return (site[0] % w, site[1] % h)

    def contains(self, site) -> bool:
        return site in self._rank


class FockBasis:
    """The full Fock space over a lattice.

    ``states`` is ``arange(2**nsites)``: bit ``r`` of a state is the
    occupation of ``lattice.sites[r]``, and a state is its own index.
    """

    def __init__(self, lattice: Lattice):
        states = np.arange(1 << lattice.nsites, dtype=np.int64)
        states.flags.writeable = False
        self.lattice = lattice
        self.states = states

    @property
    def dim(self) -> int:
        return len(self.states)

    @cached_property
    def popcounts(self) -> np.ndarray:
        counts = np.bitwise_count(self.states.astype(np.uint64)).astype(np.int64)
        counts.flags.writeable = False
        return counts

    def index_of(self, state: int) -> int:
        if not 0 <= state < self.dim:
            raise KeyError(f"state {state} not in basis")
        return int(state)

    def __eq__(self, other):
        return isinstance(other, FockBasis) and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)

    def __repr__(self):
        return f"FockBasis(nsites={self.lattice.nsites}, dim={self.dim})"


def enumerate_basis(lattice: Lattice) -> FockBasis:
    """The full Fock basis over ``lattice``."""
    return FockBasis(lattice)


def _is_integral(x) -> bool:
    if isinstance(x, (int, np.integer)):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    return isinstance(x, float) and x.is_integer()


@dataclass(frozen=True)
class FermionMonomial:
    """Ordered product of creation/annihilation factors times a scalar.

    ``factors`` is a tuple of ``(site, kind)`` with ``kind`` one of
    :data:`CREATE` or :data:`ANNIHILATE`; the factor order is significant and
    no normal ordering is assumed.  Factors act on states right to left.  The
    zero operator is any monomial with ``coefficient == 0``.
    """

    coefficient: float | int = 1
    factors: tuple = ()

    def __post_init__(self):
        for f in self.factors:
            if len(f) != 2 or f[1] not in (CREATE, ANNIHILATE):
                raise ValueError(f"bad factor {f!r}")

    @classmethod
    def identity(cls, coefficient=1) -> "FermionMonomial":
        return cls(coefficient, ())

    @classmethod
    def creation(cls, site) -> "FermionMonomial":
        return cls(1, ((site, CREATE),))

    @classmethod
    def annihilation(cls, site) -> "FermionMonomial":
        return cls(1, ((site, ANNIHILATE),))

    @classmethod
    def number(cls, site) -> "FermionMonomial":
        """The occupation operator ``n_i = a_i* a_i``."""
        return cls(1, ((site, CREATE), (site, ANNIHILATE)))

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0

    @property
    def parity(self) -> int:
        """0 for even, 1 for odd fermion parity."""
        return len(self.factors) % 2

    @property
    def support(self) -> frozenset:
        return frozenset(s for s, _ in self.factors)

    def adjoint(self) -> "FermionMonomial":
        """Hermitian adjoint: reverse the factor order, swap each kind."""
        flipped = tuple(
            (s, CREATE if k == ANNIHILATE else ANNIHILATE)
            for s, k in reversed(self.factors)
        )
        return FermionMonomial(self.coefficient, flipped)

    def particle_hole(self) -> "FermionMonomial":
        """Swap creation and annihilation on each factor, order kept."""
        flipped = tuple(
            (s, CREATE if k == ANNIHILATE else ANNIHILATE) for s, k in self.factors
        )
        return FermionMonomial(self.coefficient, flipped)

    def scaled(self, c) -> "FermionMonomial":
        return FermionMonomial(c * self.coefficient, self.factors)

    def __mul__(self, other):
        if isinstance(other, FermionMonomial):
            return FermionMonomial(
                self.coefficient * other.coefficient, self.factors + other.factors
            )
        return self.scaled(other)

    __rmul__ = scaled

    def __neg__(self):
        return self.scaled(-1)


def apply_monomial(m: FermionMonomial, state: int, lattice: Lattice):
    """Act with ``m`` on a single basis state.

    Returns ``(amplitude, new_state)`` or ``None`` when the state is killed
    (annihilation on an empty site, creation on an occupied one).  Factors
    act right to left; each picks up the parity of the occupied ranks below
    its own, evaluated on the intermediate state.
    """
    if m.is_zero:
        return None
    sign = 1
    s = state
    for site, kind in reversed(m.factors):
        r = lattice.rank(site)
        bit = (s >> r) & 1
        if kind == ANNIHILATE and bit == 0:
            return None
        if kind == CREATE and bit == 1:
            return None
        if (s & ((1 << r) - 1)).bit_count() & 1:
            sign = -sign
        s ^= 1 << r
    return m.coefficient * sign, s


def jordan_wigner_masks(m: FermionMonomial, lattice: Lattice):
    """Closed form ``(S, P, M, c, T)`` of the factor string of ``m``, or
    ``None`` exactly when the string is the zero operator.

    The factors compose right to left into one signed partial permutation.
    A state ``j`` survives iff ``j & T == P``, its image is ``j ^ S``, and
    its sign is ``(-1)**(popcount(j & M) + c)``.  A factor at rank ``r``
    reads bit ``r`` of the intermediate state, which is ``j`` with the bits
    ``flips`` of the factors already applied toggled: it needs ``j``'s bit
    ``r`` to be its own kind (1 to annihilate, 0 to create) XOR bit ``r`` of
    ``flips``, and two such needs on one bit that disagree kill every
    state.  Its Jordan-Wigner parity on the intermediate state is
    ``popcount(j & (2**r - 1))`` plus ``popcount(flips & (2**r - 1))``, so
    ``M`` is the XOR of the below-rank masks and ``c`` (returned mod 2) sums
    the second counts.  ``S`` is the final ``flips``.  On distinct sites
    ``T == S`` and ``P`` is the annihilation mask; a repeated occupation
    factor such as ``n_i n_i`` gives the masks of ``n_i``.
    """
    flips = pattern = string = crossings = touched = 0
    for site, kind in reversed(m.factors):
        r = lattice.rank(site)
        bit = 1 << r
        need = ((kind == ANNIHILATE) ^ (flips >> r & 1)) << r
        if touched & bit and (pattern ^ need) & bit:
            return None
        touched |= bit
        pattern |= need
        string ^= bit - 1
        crossings += (flips & (bit - 1)).bit_count()
        flips ^= bit
    return flips, pattern, string, crossings % 2, touched


class SparseOperator:
    """Real sparse matrix over a Fock basis.

    Thin wrapper around a ``scipy.sparse`` CSR matrix that remembers which
    basis it acts on; mixing operators over different bases is an error.
    Integer-coefficient constructions stay in ``int64`` so identities can be
    checked exactly via :meth:`max_abs` ``== 0``.
    """

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: FockBasis, matrix):
        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        self.basis = basis
        self.matrix = sp.csr_matrix(matrix)

    @classmethod
    def zero(cls, basis: FockBasis, dtype=np.int64) -> "SparseOperator":
        return cls(basis, sp.csr_matrix((basis.dim, basis.dim), dtype=dtype))

    @classmethod
    def identity(cls, basis: FockBasis, dtype=np.int64) -> "SparseOperator":
        return cls(basis, sp.identity(basis.dim, dtype=dtype, format="csr"))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def dtype(self):
        return self.matrix.dtype

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def adjoint(self) -> "SparseOperator":
        m = self.matrix
        adj = m.conjugate().transpose() if np.iscomplexobj(m) else m.transpose()
        return SparseOperator(self.basis, adj.tocsr())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def max_abs(self):
        m = self.matrix
        if m.nnz == 0:
            return m.dtype.type(0)
        return np.abs(m.data).max()

    def is_zero(self) -> bool:
        return self.max_abs() == 0

    def equals(self, other: "SparseOperator") -> bool:
        _check_same_basis(self, other)
        return (self - other).is_zero()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def trace(self):
        return self.matrix.diagonal().sum()

    def __add__(self, other):
        _check_same_basis(self, other)
        return SparseOperator(self.basis, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_same_basis(self, other)
        return SparseOperator(self.basis, self.matrix - other.matrix)

    def __neg__(self):
        return SparseOperator(self.basis, -self.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.basis, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            _check_same_basis(self, other)
            return SparseOperator(self.basis, self.matrix @ other.matrix)
        return self.matrix @ other

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz}, dtype={self.dtype})"


def _check_same_basis(a: SparseOperator, b: SparseOperator):
    if a.basis != b.basis:
        raise ValueError("operators act on different bases")


def _states_off(mask: int, n: int) -> np.ndarray:
    """Every ``n``-bit state with no bit of ``mask`` set, ascending."""
    states = np.zeros(1, dtype=np.int64)
    for r in range(n):
        if not mask >> r & 1:
            states = np.concatenate((states, states | 1 << r))
    return states


def _signed_images(masks: np.ndarray, free: dict):
    """Every surviving column of the monomials given by ``masks``, an int64
    array of :func:`jordan_wigner_masks` rows ``(S, P, M, c, T)``, shape
    ``(k, 5)``: the index into ``masks`` that owns it, the alive state
    ``j`` (``j & T == P``), its image ``j ^ S`` and the int64 sign
    ``s(j) = (-1)**(popcount(j & M) + c)``.  ``free[T]`` holds the states
    with no bit of ``T`` set (:func:`_states_off`); each run of rows that
    share ``T`` takes its alive states in one broadcast."""
    support, pattern, string, crossings, touched = masks.T
    cut = np.flatnonzero(np.diff(touched)) + 1
    first, last = np.concatenate(([0], cut)), np.append(cut, len(touched))
    blocks = [free[t] for t in touched[first].tolist()]
    alive = np.concatenate(
        [(pattern[a:b, None] | block).ravel() for a, b, block in zip(first, last, blocks)]
    )
    owner = np.repeat(np.arange(len(touched)), np.repeat(list(map(len, blocks)), last - first))
    sign = 1 - 2 * ((np.bitwise_count(alive & string[owner]) + crossings[owner]) & 1)
    return owner, alive, alive ^ support[owner], sign


def _row_entries(m, rows: np.ndarray):
    """For the CSR rows ``rows`` of ``m``: the index into ``rows`` that owns
    each stored entry, and that entry's position in ``m.indices``/``m.data``."""
    first = m.indptr[rows]
    count = m.indptr[rows + 1] - first
    owner = np.repeat(np.arange(len(rows)), count)
    skip = np.repeat(first - (np.cumsum(count) - count), count)
    return owner, np.arange(len(owner)) + skip


def _check_sites(terms, lattice: Lattice) -> None:
    """``ValueError`` for a factor site of ``terms`` outside ``lattice``."""
    outside = [site for m in terms for site, _ in m.factors if not lattice.contains(site)]
    if outside:
        raise ValueError(f"factor site {outside[0]!r} outside the lattice")


def terms_to_sparse(terms, basis: FockBasis) -> SparseOperator:
    """Matrix of the sum of the monomials ``terms`` over ``basis`` as one
    CSR, ``int64`` when every coefficient is integral, else ``float64``.
    Every term is its closed form (:func:`jordan_wigner_masks`), repeated
    sites included, and visits only its surviving states, all in one
    :func:`_signed_images` call; one COO to CSR build sums the ``(row,
    column, value)`` entries, and the entries that cancel are dropped."""
    lat = basis.lattice
    _check_sites(terms, lat)
    integral = all(_is_integral(m.coefficient) for m in terms)
    dtype = np.int64 if integral else np.float64
    masks, coeffs = [], []
    for m in terms:
        if not m.is_zero and (jw := jordan_wigner_masks(m, lat)) is not None:
            masks.append(jw)
            coeffs.append(int(m.coefficient) if integral else float(m.coefficient))
    if not masks:
        return SparseOperator.zero(basis, dtype)
    masks = np.array(masks, dtype=np.int64)
    free = {t: _states_off(t, lat.nsites) for t in np.unique(masks[:, 4]).tolist()}
    owner, alive, image, sign = _signed_images(masks, free)
    values = sign * np.array(coeffs, dtype)[owner]
    mat = sp.csr_matrix((values, (image, alive)), shape=(basis.dim, basis.dim), dtype=dtype)
    mat.eliminate_zeros()
    return SparseOperator(basis, mat)


def monomial_to_sparse(m: FermionMonomial, basis: FockBasis) -> SparseOperator:
    """Matrix of one monomial over ``basis``, the one-term :func:`terms_to_sparse`."""
    return terms_to_sparse((m,), basis)


def anticommutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """``AB + BA``."""
    _check_same_basis(a, b)
    return a @ b + b @ a


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """``AB - BA``."""
    _check_same_basis(a, b)
    return a @ b - b @ a


def graded_commutator(
    a: SparseOperator, b: SparseOperator, parity_a: int, parity_b: int
) -> SparseOperator:
    """Anticommutator when both operators are odd, commutator otherwise."""
    if parity_a % 2 and parity_b % 2:
        return anticommutator(a, b)
    return commutator(a, b)


def hilbert_schmidt_gram(operators: list) -> np.ndarray:
    """Gram matrix ``G_ij = sum_kl A_i[k, l] A_j[k, l]`` of operators on one
    basis, each a sparse row of length dim^2; exact for integer operators."""
    dim = operators[0].dim
    mats = [op.matrix for op in operators]
    row_start = np.arange(dim, dtype=np.int64) * dim
    flat = [np.repeat(row_start, np.diff(m.indptr)) + m.indices for m in mats]
    stack = sp.csr_matrix(
        (
            np.concatenate([m.data for m in mats]),
            np.concatenate(flat),
            np.concatenate([[0], np.cumsum([m.nnz for m in mats])]),
        ),
        shape=(len(mats), dim * dim),
    )
    return (stack @ stack.T).toarray()


def span_dimension(operators: list) -> int:
    """Dimension of the span of integer operators: the rank of their exact
    Hilbert-Schmidt Gram matrix, which equals the rank of the operators
    flattened into rows, from a matrix only as wide as their count.  The
    Gram matrix is symmetric, so its singular values are the moduli of its
    eigenvalues (``hermitian=True``)."""
    gram = hilbert_schmidt_gram(operators).astype(np.float64)
    return int(np.linalg.matrix_rank(gram, hermitian=True))


def parity_operator(basis: FockBasis) -> SparseOperator:
    """Diagonal fermion-parity operator ``(-1)**N``."""
    signs = np.where(basis.popcounts & 1, -1, 1).astype(np.int64)
    return SparseOperator(basis, sp.diags(signs, format="csr", dtype=np.int64))


def _first_disorder(factors, rank):
    """Index of the first adjacent pair violating normal order, else None.

    Normal order: all creation factors first (ascending rank), then all
    annihilation factors (ascending rank).
    """
    for i in range(len(factors) - 1):
        (s1, k1), (s2, k2) = factors[i], factors[i + 1]
        if k1 == ANNIHILATE and k2 == CREATE:
            return i
        if k1 == k2 and rank(s1) >= rank(s2):
            return i
    return None


def normal_order(m: FermionMonomial, lattice: Lattice) -> dict:
    """CAR rewrite of a monomial as ``{canonical factor tuple: coefficient}``.

    The canonical form puts creation factors first in ascending site rank,
    then annihilation factors in ascending rank; repeated same-kind factors
    at one site vanish and contractions ``a_i a_i* = 1 - n_i`` generate the
    shorter terms.  Two operator sums are equal iff their merged normal forms
    coincide, which gives a symbolic route independent of matrix realization.
    """
    return _normal_form((m,), lattice)


def _normal_form(terms, lattice: Lattice) -> dict:
    """The merged :func:`normal_order` of the sum of the monomials
    ``terms``, all rewritten on one stack; ``ValueError`` for a factor site
    outside ``lattice``."""
    _check_sites(terms, lattice)
    out: dict = {}
    stack = [(m.coefficient, list(m.factors)) for m in terms]
    while stack:
        c, fs = stack.pop()
        if c == 0:
            continue
        i = _first_disorder(fs, lattice.rank)
        if i is None:
            key = tuple(fs)
            tot = out.get(key, 0) + c
            if tot == 0:
                out.pop(key, None)
            else:
                out[key] = tot
            continue
        (s1, k1), (s2, k2) = fs[i], fs[i + 1]
        if k1 == k2:
            if s1 == s2:
                continue  # a a or a* a* at one site: zero
            fs[i], fs[i + 1] = fs[i + 1], fs[i]
            stack.append((-c, fs))
        else:
            # here k1 is annihilate, k2 create
            if s1 == s2:
                stack.append((c, fs[:i] + fs[i + 2 :]))
                stack.append((-c, fs[:i] + [fs[i + 1], fs[i]] + fs[i + 2 :]))
            else:
                fs[i], fs[i + 1] = fs[i + 1], fs[i]
                stack.append((-c, fs))
    return out
