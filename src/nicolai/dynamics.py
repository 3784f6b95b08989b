"""Spectral analysis and ergodicity diagnostics.

H is a sum of Fock-basis hops, so its sparsity graph splits into small
connected components, the fragments (each classical ground state is a 1 x 1
fragment of its own, its own eigenpair).  One pass, :func:`_solved_fragments`,
finds them, reads each 1 x 1 fragment's eigenvalue off the diagonal, keeps one
larger fragment per orbit of the shifts by two that the model certifies (x on
rings; x and y on tori), and diagonalizes the kept fragments of one size with
one stacked dense ``eigh``.  :func:`diagonalize` runs it with no shift and
writes the eigenvectors straight into the arrays of one sparse CSC matrix, one
fragment per column.  :func:`fragment_eigenvalues` keeps the eigenvalues alone,
each counted once per member of its orbit, for ``verify``, ``build --verify``
and the kernel census (``ModelSpec.eigenvalues``).  Degenerate eigenvalues
are grouped into clusters (the spectrum is massively degenerate, across
fragments too) and the cluster projectors define the dephasing map

    A  ->  sum_E  P_E A P_E,

the infinite-time average of Heisenberg evolution.  For a state rho that is
invariant under the dynamics, the Mazur gap of an observable A,

    gap(A) = Tr(rho A* dephase(A)) - |Tr(rho A)|^2  >=  0,

equals the long-time average of the connected autocorrelation; a strictly
positive gap certifies that A is non-ergodic.  Every conserved charge with
its adjoint gives such an A, and the flip operator between two degenerate
classical ground vectors gives one for ground states, so ergodicity breaks
for the trace state, for every Gibbs state, and for the classical ground
states alike.

:func:`mazur_gap` is the general path: it dephases any dense observable in
O(dim^3) on a dense copy of the eigenvectors, and it is the oracle for the
closed forms below.  :func:`ergodicity_report` never dephases a charge and
holds no dim x dim dense array and no object per charge.  It certifies
``[H, Q(f)] = 0`` exactly on the ring's word rows, so ``dephase(A) = A``
for ``A = Q(f) + Q(f)*``, and then works from the Jordan-Wigner masks
``(S, P, M, c, T)`` of each ``Q(f)``, read off the same rows; the sites
of a charge are distinct, so ``T = S``.  ``Q(f)**2 = 0``, so ``A**2 =
Pi_f``, the diagonal 0/1 projector onto the states j with ``j & S`` in
``{P, S ^ P}``; and ``<A> = 0`` under every state that is a function of
H, because ``Q(f)`` commutes with H and is nilpotent, hence
traceless, on each eigenspace.  Every gap is therefore ``<Pi_f> = w[P] +
w[S ^ P]``, where ``w`` is the marginal of the diagonal ``rho_jj`` over
``j & S``: ``rho_jj = 1 / dim`` for the trace state, which makes the gap
exactly ``2**(1 - |S|)``, and ``((V o V) p)_j`` for the Gibbs state with
Boltzmann weights p.  No generator matrix is built.  The number of
independent invariant operators is one plus the number of distinct keys
``(S, min(P, S ^ P))``, because generators with different keys are
orthogonal.  The first generator, built as a sparse matrix independently
of the masks, is dephased through the sparse eigenvectors on every run to
cross-check its closed-form gaps.  The ground-state witness is certified
by two zero columns of H, after which its gap is exactly 1.
:func:`_trace_gap`, :func:`_gibbs_gaps` and
:func:`~nicolai.fock.span_dimension` on sparse matrices remain the oracles
of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, SparseOperator, _row_entries
from .fock import enumerate_basis  # noqa: F401  alias read by bench/test_bench.py
from .grammar import permitted
from .groundstates import Configuration, config_to_vector
from .model import ModelSpec, _permute_bits, _shift_group, charge_hoods

__all__ = [
    "Spectrum",
    "ThermalState",
    "ErgodicityReport",
    "NoResonanceReport",
    "diagonalize",
    "fragment_eigenvalues",
    "dephase",
    "mazur_gap",
    "time_averaged_autocorrelation",
    "evolve",
    "ergodicity_report",
    "no_resonance_check",
    "spectrum_table",
]

# eigenvalues closer than this, relative to max(1, ||H||), share a cluster
_CLUSTER_TOLERANCE = 1e-8


@dataclass
class Spectrum:
    """Merged eigendecomposition with degeneracy clusters.

    ``vectors`` is a sparse ``dim x dim`` matrix of orthonormal eigenvectors
    as columns, aligned with the ascending ``eigenvalues``; each column lives
    on one fragment of H, so it holds one nonzero per state of that fragment.
    ``clusters`` are half-open index ranges of (near-)degenerate groups, and
    ``sectors`` records the particle number of each eigenvector's fragment
    (or -1 when the fragment mixes particle numbers).
    """

    eigenvalues: np.ndarray
    vectors: sp.csc_matrix
    clusters: list
    basis: FockBasis
    sectors: np.ndarray
    residual: float
    max_intra_spread: float
    min_inter_gap: float

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def well_separated(self) -> bool:
        """Intra-cluster spreads must sit far below inter-cluster gaps."""
        if self.max_intra_spread == 0.0:
            return True
        return self.min_inter_gap >= 1e3 * self.max_intra_spread


def _fragment_labels(row: np.ndarray, col: np.ndarray, n: int) -> np.ndarray:
    """Connected components of the undirected graph on ``range(n)`` whose
    edges are the pairs ``(row[i], col[i])``: ``labels[v]`` is the smallest
    vertex of v's component.

    ``labels`` is a forest whose parents are never larger than their
    children.  Each round hooks the root of both ends of every edge under
    the smaller of the two roots, then jumps pointers until every tree is a
    star; it stops when every edge joins equal labels.
    """
    labels = np.arange(n, dtype=row.dtype)
    while True:
        lr, lc = labels[row], labels[col]
        if np.array_equal(lr, lc):
            return labels
        lo = np.minimum(lr, lc)
        np.minimum.at(labels, lr, lo)
        np.minimum.at(labels, lc, lo)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _fragments(m) -> tuple:
    """Per state of a canonical CSR matrix: the label of its fragment (the
    fragment's smallest state, :func:`_fragment_labels`) and its size.

    Sorting states by ``(size, label)`` lays the fragments out in slots: the
    fragments of one size fill one run of slots, and a stable sort keeps
    each one's states ascending."""
    dim = m.shape[0]
    rows = np.repeat(np.arange(dim, dtype=m.indices.dtype), np.diff(m.indptr))
    hop = rows != m.indices  # a diagonal entry joins no two states
    row, col = rows[hop], m.indices[hop]
    del rows, hop
    # only the states that an entry joins to another are labelled, in their
    # own ascending numbering; every other state is a fragment of its own
    joined = np.zeros(dim, dtype=bool)
    joined[row] = joined[col] = True
    states = np.flatnonzero(joined)
    rank = np.cumsum(joined, dtype=row.dtype) - 1
    local = _fragment_labels(rank[row], rank[col], len(states))
    labels = np.arange(dim, dtype=row.dtype)
    labels[states] = states[local]
    size = np.ones(dim, dtype=row.dtype)
    size[states] = np.bincount(local)[local]
    return labels, size


def _canonical(h: SparseOperator) -> tuple:
    """H's matrix as canonical CSR with no stored zero, and the scale
    ``max(1, max |H_ij|)`` of the symmetry test."""
    m = h.matrix.tocsr()
    scale = max(float(np.abs(m.data).max()) if m.nnz else 0.0, 1.0)
    if not (m.has_canonical_format and m.data.all()):
        m = m.copy()
        m.sum_duplicates()
        m.eliminate_zeros()
    return m, scale


def _check_residual(residual: float, eigenvalues: np.ndarray) -> None:
    """``RuntimeError`` when an eigenpair residual exceeds ``1e-8 * ||H||``,
    read off the ends of the ascending ``eigenvalues``."""
    norm = max(-float(eigenvalues[0]), float(eigenvalues[-1]))
    if residual > 1e-8 * max(norm, 1e-12):
        raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds tolerance")


def _block_eigenpairs(m, slot, states, scale: float) -> tuple:
    """Eigenpairs ``(w, v, residual)`` of the fragments whose states, in slot
    order, are the rows of ``states``, shape ``(n_blocks, k)`` with ``k >=
    2``: their entries, gathered from the CSR rows of ``m``
    (:func:`~nicolai.fock._row_entries`), fill one ``(n_blocks, k, k)`` stack
    for one stacked ``eigh``."""
    nb, k = states.shape
    r, entry = _row_entries(m, states.ravel())
    c = slot[m.indices[entry]] - slot[states[0, 0]]
    stack = np.zeros((nb, k, k))
    stack[r // k, r % k, c % k] = m.data[entry]
    if float(np.abs(stack - stack.transpose(0, 2, 1)).max()) > 1e-12 * scale:
        raise ValueError("diagonalize expects a symmetric operator")
    w, v = np.linalg.eigh(stack)
    res = stack @ v - v * w[:, None, :]
    return w, v, float(np.sqrt((res * res).sum(axis=1)).max())


def _orbit_sizes(roots, size, labels, group) -> np.ndarray:
    """Per fragment root in ``roots``: the number of fragments in its orbit
    under ``group`` if it is its orbit's representative, else 0.

    A group element g maps the fragment F onto the fragment that holds
    ``g(root(F))``, so the roots of F's orbit are the labels of those
    images, and the key ``min_g labels[g(root(F))]`` is the same for every
    member: the member whose root equals it is the representative, and the
    number of members with that key is the orbit size.  ``RuntimeError`` if
    some g maps a fragment onto one of another size.
    """
    key = roots.copy()
    own = size[roots]
    for g in group[1:]:
        image = _permute_bits(roots, g)
        if not np.array_equal(size[image], own):
            raise RuntimeError("a shift maps a fragment onto a fragment of another size")
        np.minimum(key, labels[image], out=key)
    rep = key == roots
    orbit = np.zeros(len(roots), dtype=np.int64)
    orbit[rep] = np.bincount(np.searchsorted(roots[rep], key), minlength=int(rep.sum()))
    return orbit


def _solved_fragments(h: SparseOperator, shifts=()) -> tuple:
    """The one layout-and-solve pass of :func:`diagonalize` and
    :func:`fragment_eigenvalues`: ``(single, diagonal, classes, residual)``.

    ``single`` marks the 1 x 1 fragments, and ``diagonal`` holds their
    entries, their eigenvalues, in state order.  One fragment per orbit of the
    larger ones under the group the ``shifts`` generate (:func:`_orbit_sizes`;
    with no shift, every fragment is its own orbit) is laid out in slots by
    (size, label).  ``classes`` holds ``(states, orbit, w, v)`` per size k,
    ascending: the ``(n_blocks, k)`` states of the representatives, each row
    ascending, the number of fragments each stands for, and the eigenpairs of
    one stacked ``eigh`` (:func:`_block_eigenpairs`).  ``residual`` is the
    largest eigenpair residual.  ``ValueError`` if a block is not symmetric:
    every entry lies in one block, so each is compared with its transpose.
    """
    m, scale = _canonical(h)
    labels, size = _fragments(m)
    single = size == 1
    states = np.flatnonzero(~single)
    roots = states[labels[states] == states]
    group = _shift_group(shifts, h.basis.lattice.nsites)
    orbit = _orbit_sizes(roots, size, labels, group)
    represented = np.zeros(h.dim, dtype=bool)
    represented[roots[orbit > 0]] = True
    states = states[represented[labels[states]]]
    order = states[np.lexsort((labels[states], size[states]))]
    sizes = np.unique(size[order], return_index=True, return_counts=True)
    del labels, size, states, represented
    slot = np.empty(h.dim, dtype=m.indices.dtype)
    slot[order] = np.arange(len(order))

    classes, residual = [], 0.0
    for k, off, count in zip(*(c.tolist() for c in sizes)):
        blocks = order[off : off + count].reshape(-1, k)
        w, v, res = _block_eigenpairs(m, slot, blocks, scale)
        residual = max(residual, res)
        # a block's first state is its fragment's root
        classes.append((blocks, orbit[np.searchsorted(roots, blocks[:, 0])], w, v))
    del slot  # before a dim-sized diagonal is read
    return single, m.diagonal()[single], classes, residual


def diagonalize(h: SparseOperator) -> Spectrum:
    """Eigendecomposition of a symmetric operator, one fragment at a time.

    The fragments are the connected components of H's sparsity graph, solved
    by :func:`_solved_fragments` with no shift.  The eigenvalues are merged
    into one ascending spectrum, from the slot order of the 1 x 1 fragments
    by state and then the larger ones by (size, label), and each stack's
    eigenvectors are scattered straight into the preallocated CSC arrays of
    V, one fragment per column; a 1 x 1 fragment's column is the unit vector
    at its state.  Raises ``ValueError`` if the input is not symmetric and
    ``RuntimeError`` if an eigenpair residual, checked block by block,
    exceeds ``1e-8 * ||H||``.
    """
    single, diagonal, classes, residual = _solved_fragments(h)
    dim, pops = h.dim, h.basis.popcounts
    # the 1 x 1 fragments take the slots before ends[0], by state; then slot
    # off + b*k + j holds the j-th eigenpair of block b of the class of size
    # k that fills the slots off .. end - 1
    ends = np.cumsum([len(diagonal), *(states.size for states, *_ in classes)]).tolist()
    all_w, all_sector = np.empty(dim), np.empty(dim, dtype=np.int64)
    slot_size = np.ones(dim, dtype=np.int64)
    all_w[: ends[0]], all_sector[: ends[0]] = diagonal, pops[single]
    del diagonal
    for (states, _, w, _), off, end in zip(classes, ends, ends[1:]):
        k = states.shape[1]
        all_w[off:end], slot_size[off:end] = w.ravel(), k
        pop = pops[states]
        all_sector[off:end] = np.repeat(np.where((pop == pop[:, :1]).all(1), pop[:, 0], -1), k)

    perm = np.argsort(all_w, kind="stable")
    eigenvalues = all_w[perm]
    sectors = all_sector[perm]
    del all_w, all_sector  # dropped before V is written, as is perm
    # column j of V holds eigenpair perm[j]: one entry per state of its
    # fragment, in ascending state order, with the index dtype scipy picks
    nnz = int(slot_size.sum())
    index = np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(slot_size[perm], out=indptr[1:])
    column = np.empty(dim, dtype=np.int64)
    column[perm] = np.arange(dim)
    del perm, slot_size
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    at = indptr[column[: ends[0]]]
    indices[at], data[at] = np.flatnonzero(single), 1.0
    for off, end in zip(ends, ends[1:]):
        states, _, _, v = classes.pop(0)  # each stack is freed once written
        k = states.shape[1]
        # entry (b, i, j): state states[b, i] of the eigenpair at slot off + b*k + j
        at = indptr[column[off:end].reshape(-1, 1, k)] + np.arange(k, dtype=index).reshape(1, k, 1)
        indices[at] = states[:, :, None]
        data[at] = v
    vectors = sp.csc_matrix((data, indices, indptr), shape=(dim, dim))

    _check_residual(residual, eigenvalues)
    norm = float(np.abs(eigenvalues).max())
    tol = _CLUSTER_TOLERANCE * max(1.0, norm)
    bounds = [0, *(np.flatnonzero(np.diff(eigenvalues) > tol) + 1).tolist(), dim]
    clusters = list(zip(bounds[:-1], bounds[1:]))
    starts, ends = np.array(bounds[:-1]), np.array(bounds[1:])
    intra = float((eigenvalues[ends - 1] - eigenvalues[starts]).max())
    gaps = eigenvalues[starts[1:]] - eigenvalues[ends[:-1] - 1]
    inter = float(gaps.min()) if gaps.size else float("inf")
    return Spectrum(
        eigenvalues=eigenvalues,
        vectors=vectors,
        clusters=clusters,
        basis=h.basis,
        sectors=sectors,
        residual=residual,
        max_intra_spread=intra,
        min_inter_gap=inter,
    )


def fragment_eigenvalues(h: SparseOperator, shifts=()) -> np.ndarray:
    """The ascending eigenvalues of a symmetric operator, with no eigenvector
    kept: :func:`_solved_fragments` under ``shifts``, each representative's
    eigenvalues counted once per member of its orbit and each 1 x 1
    fragment's diagonal entry once.

    ``shifts`` are site-rank permutations (``g[r]`` is the rank that rank r
    moves to) whose unitaries fix H: the caller certifies that, as
    :attr:`~nicolai.model.ModelSpec.shifts` does, where the argument is
    stated.  Such a unitary maps each fragment F onto the fragment holding
    ``g(root(F))`` by a signed permutation of states, so the two blocks share
    their eigenvalues.  With no shift the eigenvalues are bit-identical to
    those of :func:`diagonalize`, which solves the same stacks.
    ``ValueError`` if a solved block is not symmetric, ``RuntimeError`` if a
    shift maps a fragment onto one of another size or an eigenpair residual
    exceeds ``1e-8 * ||H||``.
    """
    _, diagonal, classes, residual = _solved_fragments(h, shifts)
    diagonal, repeats = np.unique(diagonal, return_counts=True)
    values = np.concatenate([diagonal.astype(np.float64), *(w.ravel() for _, _, w, _ in classes)])
    weights = np.concatenate([repeats, *(np.repeat(orbit, w.shape[1]) for _, orbit, w, _ in classes)])
    ascending = np.argsort(values, kind="stable")
    eigenvalues = np.repeat(values[ascending], weights[ascending])
    _check_residual(residual, eigenvalues)
    return eigenvalues


def _dense(a) -> np.ndarray:
    if isinstance(a, SparseOperator):
        return a.to_dense().astype(np.float64)
    if sp.issparse(a):
        return a.toarray()
    return np.asarray(a)


def dephase(a, spectrum: Spectrum) -> np.ndarray:
    """Project onto the block diagonal of the degeneracy clusters.

    Idempotent; fixes anything commuting with H; realizes the infinite-time
    average of the Heisenberg evolution of ``a``.
    """
    ad = _dense(a)
    v = _dense(spectrum.vectors)
    at = v.T @ ad @ v
    out = np.zeros_like(at)
    for s, e in spectrum.clusters:
        out[s:e, s:e] = at[s:e, s:e]
    return v @ out @ v.T


def _gibbs_weights(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann weights ``exp(-beta E) / Z``, shifted by the largest exponent
    so that neither sign of ``beta`` overflows.  Only where ``-beta E`` passes
    the float64 range is E first shifted by its value at the largest exponent."""
    with np.errstate(over="ignore"):  # an exponent of -inf is a weight of 0
        x = -beta * eigenvalues
        if np.isposinf(x.max()):
            x = -beta * (eigenvalues - (eigenvalues.min() if beta > 0 else eigenvalues.max()))
    p = np.exp(x - x.max())
    return p / p.sum()


@dataclass
class ThermalState:
    """Invariant state: normalized trace, Gibbs, or a classical ground vector."""

    kind: str
    beta: float | None = None
    rho: np.ndarray | None = None
    vector: np.ndarray | None = None
    dim: int = 0

    @classmethod
    def trace(cls, basis: FockBasis) -> "ThermalState":
        return cls(kind="trace", dim=basis.dim)

    @classmethod
    def gibbs(cls, spectrum: Spectrum, beta: float) -> "ThermalState":
        weights = _gibbs_weights(spectrum.eigenvalues, beta)
        v = _dense(spectrum.vectors)
        rho = (v * weights[None, :]) @ v.T
        return cls(kind="gibbs", beta=beta, rho=rho, dim=spectrum.dim)

    @classmethod
    def classical_ground(cls, config: Configuration, basis: FockBasis) -> "ThermalState":
        return cls(
            kind="classical-ground",
            vector=config_to_vector(config, basis),
            dim=basis.dim,
        )

    def expectation(self, a: np.ndarray):
        if self.vector is not None:
            return self.vector.conj() @ (a @ self.vector)
        if self.kind == "trace":
            return np.trace(a) / self.dim
        return np.trace(self.rho @ a)

    def label(self) -> str:
        if self.kind == "gibbs":
            return f"gibbs(beta={self.beta:g})"
        return self.kind


def _check_invariant(state: ThermalState, spectrum: Spectrum):
    if state.kind == "trace":
        return
    w = spectrum.eigenvalues
    v = _dense(spectrum.vectors)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    if state.vector is not None:
        hv = v @ (w * (v.T @ state.vector))
        mean = state.vector @ hv
        err = float(np.linalg.norm(hv - mean * state.vector))
        if err > 1e-8 * scale:
            raise ValueError("state vector is not invariant under the dynamics")
        return
    rt = v.T @ state.rho @ v
    comm = rt * w[:, None] - rt * w[None, :]
    if float(np.abs(comm).max()) > 1e-10 * scale:
        raise ValueError("density matrix does not commute with the Hamiltonian")


def mazur_gap(a, state: ThermalState, spectrum: Spectrum) -> float:
    """Long-time-averaged connected autocorrelation of ``a`` under ``state``.

    Always ``>= 0`` up to roundoff; strictly positive certifies that ``a``
    is a non-ergodic observable for this state.
    """
    _check_invariant(state, spectrum)
    ad = _dense(a)
    d = dephase(ad, spectrum)
    m1 = state.expectation(ad.conj().T @ d)
    m2 = abs(state.expectation(ad)) ** 2
    return float(np.real(m1) - m2)


def time_averaged_autocorrelation(
    a,
    state: ThermalState,
    spectrum: Spectrum,
    t_max: float = 200.0,
    steps: int = 2000,
) -> float:
    """Brute-force trapezoid average of ``Tr(rho A* A(t))`` over ``[0, t_max]``.

    Independent of :func:`dephase`; converges to the dephased moment at rate
    ``O(1/t_max)`` and is used as the oracle for :func:`mazur_gap`.
    """
    _check_invariant(state, spectrum)
    ad = _dense(a)
    w = spectrum.eigenvalues
    v = _dense(spectrum.vectors)
    at = v.T @ ad @ v
    if state.vector is not None:
        vt = v.T @ state.vector
        rt = np.outer(vt, vt.conj())
    elif state.kind == "trace":
        rt = np.eye(spectrum.dim) / spectrum.dim
    else:
        rt = v.T @ state.rho @ v
    m1 = rt @ at.conj().T
    k = m1 * at.T  # C(t) = sum_{mn} k_{mn} exp(i (w_n - w_m) t)
    delta = w[None, :] - w[:, None]
    dt = t_max / steps
    step_phase = np.exp(1j * delta * dt)
    phase = np.ones_like(step_phase)
    total = 0.0
    for s in range(steps + 1):
        weight = 0.5 if s in (0, steps) else 1.0
        total += weight * float(np.real((k * phase).sum()))
        if s < steps:
            phase *= step_phase
    return total * dt / t_max


def evolve(a, spectrum: Spectrum, t: float) -> np.ndarray:
    """Heisenberg evolution ``exp(iHt) A exp(-iHt)`` in eigenbasis arithmetic."""
    ad = _dense(a)
    w = spectrum.eigenvalues
    v = _dense(spectrum.vectors)
    at = v.T @ ad @ v
    phase = np.exp(1j * w * t)
    return (v * phase[None, :]) @ at @ (v * phase[None, :]).conj().T


@dataclass
class NoResonanceReport:
    """Pair hopping annihilates every classical ground vector."""

    ground_count: int
    max_residual: int
    powers_vanish: bool
    nonground_example: tuple | None  # (bitstring, residual)


def no_resonance_check(spec: ModelSpec) -> NoResonanceReport:
    """Verify ``H_hop |g> = 0`` exactly for every ground configuration.

    All powers of the perturbation then annihilate the vector as well, so no
    matrix element connects it to anything at any perturbative order.  H_hop
    is H's off-diagonal entries (:class:`~nicolai.model.ModelSpec` states
    why), and it is symmetric (each hop term comes with its adjoint), so a
    state's column is its row, and a state is its own basis index.
    """
    if spec.lattice.dimension != 1:
        raise ValueError("the hopping split is only available in 1D")
    lat, h = spec.lattice, spec.h.matrix

    def max_residual(states) -> int:
        owner, entry = _row_entries(h, states)
        return int(np.abs(h.data[entry[h.indices[entry] != states[owner]]]).max(initial=0))

    worst = max_residual(spec.ground_states)
    # a state whose row stores an off-diagonal entry is necessarily non-ground;
    # H stores no zero, so its diagonal entry is stored exactly when nonzero
    example = None
    hit = np.flatnonzero(np.diff(h.indptr) - (h.diagonal() != 0))
    if hit.size:
        state = int(hit[0])
        bits = _bitstring(state, lat.nsites)
        if permitted(bits, charge_hoods(lat)):
            raise RuntimeError(f"H_hop moves the ground configuration {bits}")
        example = (bits, max_residual(hit[:1]))

    return NoResonanceReport(
        ground_count=len(spec.ground_states),
        max_residual=worst,
        powers_vanish=worst == 0,
        nonground_example=example,
    )


@dataclass
class ErgodicityReport:
    """Mazur gaps of the conserved charges under invariant states."""

    generator_labels: list = field(default_factory=list)
    gaps: dict = field(default_factory=dict)  # state label -> list of gaps
    invariant_dimension: int = 0
    non_ergodic: bool = False
    classical_witness: dict | None = None

    def all_gaps_positive(self) -> bool:
        """Whether every gap is positive, with a Gibbs gap that rounds to 0.0
        decided by the trace gap of the same generator.

        At finite beta every Boltzmann weight p_n is positive and every row
        of V has unit norm, so each ``rho_jj = sum_n p_n V[j, n]**2`` is
        positive, and a Gibbs gap, a sum of ``rho_jj`` over the states j
        with ``j & S`` in ``{P, S ^ P}``, is positive exactly when the trace
        gap ``2**(1 - |S|)`` is.  Only the float64 weights underflow, as at
        ``beta = -800`` on the 4-site ring.
        """
        trace = self.gaps["trace"]
        return all(
            g > 0 or (g == 0 and t > 0)
            for gaps in self.gaps.values()
            for g, t in zip(gaps, trace)
        )

    def to_json_obj(self) -> dict:
        return {
            "generators": list(self.generator_labels),
            "gaps": {k: list(v) for k, v in self.gaps.items()},
            "invariant_dimension": self.invariant_dimension,
            "non_ergodic": self.non_ergodic,
            "classical_witness": self.classical_witness,
        }


def _trace_gap(a: SparseOperator) -> float:
    """Trace-state Mazur gap of an integer operator that commutes with H:
    ``(dim ||A||_F^2 - (Tr A)^2) / dim^2`` in Python integers, so the one
    final division is the only rounding."""
    dim = a.dim
    fro2 = sum(x * x for x in a.matrix.data.tolist())
    tr = sum(a.diagonal().tolist())
    return (dim * fro2 - tr * tr) / (dim * dim)


def _dephased_trace_gap(a, spectrum: Spectrum) -> float:
    """Trace-state Mazur gap of a real sparse matrix ``a`` through the sparse
    eigenvectors, for any ``a``: ``Tr(A^T dephase(A)) / dim`` is the sum of
    ``(V^T A V)[i, j]**2`` over the pairs ``i, j`` in one degeneracy
    cluster, divided by dim; ``(Tr A / dim)**2`` is subtracted.  Equal to
    :func:`mazur_gap` under the trace state, with no dim x dim dense array."""
    dim = spectrum.dim
    v = spectrum.vectors
    rotated = (v.T @ a @ v).tocoo()
    sizes = [e - s for s, e in spectrum.clusters]
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    same = rotated.data[cluster[rotated.row] == cluster[rotated.col]]
    return float((same * same).sum()) / dim - (float(a.diagonal().sum()) / dim) ** 2


def _gibbs_weights_by_label(spectrum: Spectrum, betas) -> dict:
    """Boltzmann weights per beta, keyed by the Gibbs state's label."""
    return {
        ThermalState(kind="gibbs", beta=b).label(): _gibbs_weights(spectrum.eigenvalues, b)
        for b in betas
    }


def _gibbs_gaps(generators: list, spectrum: Spectrum, betas) -> dict:
    """Gibbs-state Mazur gaps of symmetric operators that commute with H.

    ``sum_n p_n ||A v_n||^2 - (sum_n p_n v_n.A v_n)^2`` over the eigenvectors
    ``v_n`` with Boltzmann weights ``p_n``: one sparse product of the stacked
    generators with V serves every generator and every beta.  Keyed by the
    Gibbs state's label.
    """
    v = spectrum.vectors.tocsr()
    dim = v.shape[0]
    stacked = sp.vstack([a.matrix for a in generators], format="csr")
    av = (stacked @ v).tocoo()  # entry (g*dim + r, n): (A_g V)[r, n]
    g, r = np.divmod(av.row.astype(np.int64), dim)
    slot = g * dim + av.col
    vr = np.asarray(v[r, av.col]).ravel()  # V[r, n] at the same entries
    size = len(generators) * dim
    norms = np.bincount(slot, av.data * av.data, size).reshape(-1, dim)
    means = np.bincount(slot, av.data * vr, size).reshape(-1, dim)
    return {
        label: (norms @ p - (means @ p) ** 2).tolist()
        for label, p in _gibbs_weights_by_label(spectrum, betas).items()
    }


def _marginal_gaps(masks: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """``<Pi_f> = w[P] + w[S ^ P]`` for each ``Q(f)`` given by its
    :func:`~nicolai.fock.jordan_wigner_masks` row ``(S, P, M, c, T)``
    (``T = S``), where ``w[k]`` is the sum of ``diag[j]`` over the states j
    with ``j & S == k``: one marginal per distinct support."""
    states = np.arange(len(diag))
    support, pattern = masks[:, 0], masks[:, 1]
    order = np.argsort(support, kind="stable")
    supports, first = np.unique(support[order], return_index=True)
    gaps = np.empty(len(masks))
    for s, rows in zip(supports.tolist(), np.split(order, first[1:])):
        w = np.bincount(states & s, diag, s + 1)
        gaps[rows] = w[pattern[rows]] + w[s ^ pattern[rows]]
    return gaps


def ergodicity_report(
    spec: ModelSpec,
    betas=(0.5, 1.0, 2.0),
) -> ErgodicityReport:
    """Mazur gaps of every Hermitian charge ``A = Q(f) + Q(f)*`` on a ring.

    Gaps are reported for the trace state and for Gibbs states at the given
    inverse temperatures, in closed form.  The masks and labels of the
    generators are read off the word rows of
    :func:`~nicolai.charges._catalogue`, and those masks are certified by
    :func:`~nicolai.charges._catalogue_residual` (``RuntimeError`` on a
    nonzero ``[H, Q(f)]``), so the certificate covers the operators built.
    That also certifies ``A``: H = QQ* + Q*Q is exactly symmetric in int64,
    so ``[H, Q(f)*] = -[H, Q(f)]^T`` vanishes with ``[H, Q(f)]``, and
    ``dephase(A) = A``.

    Each ``Q(f)`` on distinct sites is the signed partial permutation of its
    :func:`~nicolai.fock.jordan_wigner_masks` ``(S, P, M, c, T)`` with ``T
    = S``: it moves each state j with ``j & S == P`` to ``j ^ S``, whose
    pattern on S is ``S ^ P != P``.  So ``Q(f)**2 = 0`` and ``A**2 = Q(f)* Q(f) + Q(f)
    Q(f)* = Pi_f``, the diagonal 0/1 projector onto the states j with ``j &
    S`` in ``{P, S ^ P}``.  Under a state ``rho = g(H)`` (the trace state or
    a Gibbs state) ``<A> = 0``: ``Q(f)`` commutes with H and squares to zero,
    so it is nilpotent, hence traceless, on each eigenspace of H.  The gap
    ``<A dephase(A)> - <A>**2`` is then ``<Pi_f> = w[P] + w[S ^ P]``, with
    ``w`` the marginal of the diagonal ``rho_jj`` over ``j & S``
    (:func:`_marginal_gaps`).  For the trace state ``rho_jj = 1 / dim``, so
    the gap is ``2**(1 - |S|)``, written exactly from the popcount of S.
    For a Gibbs state with Boltzmann weights p, ``rho_jj =
    sum_n p_n V[j, n]**2``, one sparse product ``(V o V) p``.
    :func:`_trace_gap` and :func:`_gibbs_gaps`, on explicit sparse matrices,
    stay as the oracles of this closed form.

    The dimension of the span of the invariant operators found (including
    the identity) is the finite-volume stand-in for the invariant-projection
    criterion: more than one dimension means non-ergodic.  It is
    ``1 + #{(S, min(P, S ^ P))}``, counted on packed integer keys.  Generators with equal keys are equal up
    to sign (``A_(-f) = +-A_f``: flipping every value swaps P and S ^ P).
    Generators with different keys store entries at disjoint positions (the
    column is ``r ^ S`` and ``r & S`` picks the key), so they are orthogonal
    in the Hilbert-Schmidt product, and traceless, so orthogonal to the
    identity: nonzero and pairwise orthogonal, they are independent.

    Two certificates run on every report.  The first generator, built
    independently of the masks as a sequence object through
    :func:`~nicolai.fock.monomial_to_sparse`, has its gaps computed through
    the sparse eigenvectors: dephased under the trace state
    (:func:`_dephased_trace_gap`) and as moments under each Gibbs state
    (:func:`_gibbs_gaps`).  Each must match the closed form within ``1e-9``
    relative to ``max(1, gap)`` (``RuntimeError`` otherwise).  When
    degenerate classical ground states exist, the flip operator between two
    of them witnesses the breaking for ground states: once both are
    certified to be annihilated by H exactly (``RuntimeError`` otherwise),
    its gap under the first is exactly 1.
    """
    from . import charges as ch
    from .fock import monomial_to_sparse

    lat = spec.lattice
    if lat.dimension != 1 or not lat.periodic:
        raise ValueError("the ergodicity report runs on rings")
    basis = spec.basis
    spectrum = spec.spectrum

    blocks = ch._catalogue(lat)
    masks = ch._member_masks(lat, blocks)
    if residual := ch._catalogue_residual(spec, masks):
        raise RuntimeError(f"charge catalogue does not commute with H (residual {residual})")
    report = ErgodicityReport(generator_labels=ch._member_labels(lat, blocks))

    sizes = np.bitwise_count(masks[:, 0]).astype(np.int64)
    report.gaps = {"trace": np.ldexp(1.0, 1 - sizes).tolist()}
    squares = spectrum.vectors.power(2)
    for label, p in _gibbs_weights_by_label(spectrum, betas).items():
        report.gaps[label] = _marginal_gaps(masks, squares @ p).tolist()

    # member 0, the first word on the first arc, built as an object
    (first_arc, *_), first_words, _ = blocks[0]
    (first,) = ch._sequences(first_arc, first_words[:1])
    qf = monomial_to_sparse(ch.sequence_to_operator(first), basis)
    a = qf + qf.adjoint()
    oracles = {"trace": [_dephased_trace_gap(a.matrix, spectrum)]}
    oracles.update(_gibbs_gaps([a], spectrum, betas))
    for label, (want,) in oracles.items():
        closed = report.gaps[label][0]
        if abs(want - closed) > 1e-9 * max(1.0, abs(closed)):
            raise RuntimeError(
                f"closed-form {label} gap {closed!r} disagrees with the dephased "
                f"Mazur gap {want!r}"
            )
    s, p = masks[:, 0], masks[:, 1]
    keys = ch._pair_keys(s, np.minimum(p, s ^ p), lat.nsites)
    report.invariant_dimension = 1 + len(np.unique(keys))
    report.non_ergodic = report.invariant_dimension >= 2

    if len(grounds := spec.ground_states) >= 2:
        g0, g1 = (_bitstring(int(g), lat.nsites) for g in grounds[:2])
        # H = {Q, Q*} is symmetric, so a zero row of H is a zero column too:
        # H|g> = 0 and <g|H = 0 for both, hence F = |g0><g1| + |g1><g0|
        # commutes with H, dephase(F) = F, and the gap under |g0> is
        # <g0|F^2|g0> - <g0|F|g0>^2 = 1 - 0.
        h = spec.h.matrix
        for g, bits in zip(grounds[:2], (g0, g1)):
            i = basis.index_of(g)
            if h.data[h.indptr[i] : h.indptr[i + 1]].any():
                raise RuntimeError(f"configuration {bits} is not annihilated by H")
        report.classical_witness = {"state": g0, "partner": g1, "gap": 1.0}
    return report


def _bitstring(state: int, nsites: int) -> str:
    """``Configuration.bitstring`` of a Fock state: letter r is bit r."""
    return f"{state:0{nsites}b}"[::-1]


def spectrum_table(spectrum: Spectrum) -> list:
    """Rows ``(sector, eigenvalue, multiplicity)`` sorted by sector then value.

    Eigenvalues within one degeneracy cluster are reported at the cluster
    mean; multiplicities are counted per sector.
    """
    rows = {}
    for (s, e) in spectrum.clusters:
        value = float(spectrum.eigenvalues[s:e].mean())
        sectors, counts = np.unique(spectrum.sectors[s:e], return_counts=True)
        for sector, count in zip(sectors.tolist(), counts.tolist()):
            rows[sector, value] = rows.get((sector, value), 0) + count
    return sorted((sec, val, mult) for (sec, val), mult in rows.items())
