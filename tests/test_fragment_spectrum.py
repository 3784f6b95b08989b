"""The fragment-block spectrum against its two oracles.

``dense_sector_diagonalize`` is the dense path that ``dynamics.diagonalize``
replaced: one dense ``eigh`` per particle-number sector (or of the whole
space when the operator mixes sectors), all eigenvectors in one dim x dim
array.  It is kept here, for dim <= 4096, as the oracle of the fast path.

``coo_scatter_diagonalize`` is the fragment path before V was written
straight into CSC: fragments numbered by ``np.unique``, one boolean pass
over every entry per size class, a 1 x 1 ``eigh`` per singleton, and V held
as row, slot and value triples until one COO to CSC build.  The fast path
must return an array-identical ``Spectrum``.
"""

import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nicolai import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    ModelSpec,
    SparseOperator,
    cli,
    diagonalize,
    monomial_to_sparse,
)
from nicolai.dynamics import (
    _CLUSTER_TOLERANCE,
    Spectrum,
    _fragment_labels,
    spectrum_table,
)


def dense_sector_diagonalize(h: SparseOperator) -> Spectrum:
    assert h.dim <= 4096
    md = h.matrix.astype(np.float64).tocsr()
    dim = h.dim
    pops = h.basis.popcounts
    coo = md.tocoo()
    resolved = not (coo.nnz and not np.array_equal(pops[coo.row], pops[coo.col]))
    if resolved:
        groups = [np.flatnonzero(pops == k) for k in np.unique(pops)]
    else:
        groups = [np.arange(dim)]

    all_w = np.empty(dim)
    all_sector = np.full(dim, -1, dtype=np.int64)
    vectors = np.zeros((dim, dim))
    pos = 0
    for idx in groups:
        w, v = np.linalg.eigh(md[idx][:, idx].toarray())
        k = idx.size
        all_w[pos : pos + k] = w
        if resolved:
            all_sector[pos : pos + k] = pops[idx[0]]
        vectors[idx, pos : pos + k] = v
        pos += k

    order = np.argsort(all_w, kind="stable")
    eigenvalues = all_w[order]
    vectors = vectors[:, order]
    norm = float(np.abs(eigenvalues).max())
    r = md @ vectors - vectors * eigenvalues[None, :]
    residual = float(np.sqrt((r * r).sum(axis=0)).max())
    assert residual <= 1e-8 * max(norm, 1e-12)

    tol = _CLUSTER_TOLERANCE * max(1.0, norm)
    clusters, start = [], 0
    for i in range(1, dim):
        if eigenvalues[i] - eigenvalues[i - 1] > tol:
            clusters.append((start, i))
            start = i
    clusters.append((start, dim))
    intra = max(float(eigenvalues[e - 1] - eigenvalues[s]) for s, e in clusters)
    inter = min(
        (
            float(eigenvalues[clusters[i + 1][0]] - eigenvalues[clusters[i][1] - 1])
            for i in range(len(clusters) - 1)
        ),
        default=float("inf"),
    )
    return Spectrum(
        eigenvalues=eigenvalues,
        vectors=vectors,
        clusters=clusters,
        basis=h.basis,
        sectors=all_sector[order],
        residual=residual,
        max_intra_spread=intra,
        min_inter_gap=inter,
    )


def coo_scatter_diagonalize(h: SparseOperator) -> Spectrum:
    m = h.matrix
    asym = m - m.T
    scale = max(float(np.abs(m.data).max()) if m.nnz else 0.0, 1.0)
    if asym.nnz and float(np.abs(asym.data).max()) > 1e-12 * scale:
        raise ValueError("diagonalize expects a symmetric operator")

    coo = m.astype(np.float64).tocoo()
    coo.sum_duplicates()
    coo.eliminate_zeros()
    dim = h.dim
    fragment = np.unique(_fragment_labels(coo.row, coo.col, dim), return_inverse=True)[1]
    size = np.bincount(fragment)[fragment]
    order = np.lexsort((fragment, size))
    slot = np.empty(dim, dtype=np.int64)
    slot[order] = np.arange(dim)
    entry_size = size[coo.row]
    pops = h.basis.popcounts

    all_w = np.empty(dim)
    all_sector = np.empty(dim, dtype=np.int64)
    rows, slots, values = [], [], []
    residual = 0.0
    classes = np.unique(size[order], return_index=True, return_counts=True)
    for k, off, count in zip(*(c.tolist() for c in classes)):
        end = off + count
        states = order[off:end].reshape(-1, k)
        nb = len(states)
        stack = np.zeros((nb, k, k))
        sel = entry_size == k
        r, c = slot[coo.row[sel]] - off, slot[coo.col[sel]] - off
        stack[r // k, r % k, c % k] = coo.data[sel]
        w, v = np.linalg.eigh(stack)
        res = stack @ v - v * w[:, None, :]
        residual = max(residual, float(np.sqrt((res * res).sum(axis=1)).max()))
        all_w[off:end] = w.ravel()
        pop = pops[states]
        mixed = (pop != pop[:, :1]).any(axis=1)
        all_sector[off:end] = np.repeat(np.where(mixed, -1, pop[:, 0]), k)
        rows.append(np.broadcast_to(states[:, :, None], (nb, k, k)).ravel())
        slots.append(np.broadcast_to(np.arange(off, end).reshape(nb, 1, k), (nb, k, k)).ravel())
        values.append(v.ravel())

    perm = np.argsort(all_w, kind="stable")
    eigenvalues = all_w[perm]
    column = np.empty(dim, dtype=np.int64)
    column[perm] = np.arange(dim)
    vectors = sp.csc_matrix(
        (np.concatenate(values), (np.concatenate(rows), column[np.concatenate(slots)])),
        shape=(dim, dim),
    )
    norm = float(np.abs(eigenvalues).max())
    assert residual <= 1e-8 * max(norm, 1e-12)
    tol = _CLUSTER_TOLERANCE * max(1.0, norm)
    bounds = [0, *(np.flatnonzero(np.diff(eigenvalues) > tol) + 1).tolist(), dim]
    starts, ends = np.array(bounds[:-1]), np.array(bounds[1:])
    gaps = eigenvalues[starts[1:]] - eigenvalues[ends[:-1] - 1]
    return Spectrum(
        eigenvalues=eigenvalues,
        vectors=vectors,
        clusters=list(zip(bounds[:-1], bounds[1:])),
        basis=h.basis,
        sectors=all_sector[perm],
        residual=residual,
        max_intra_spread=float((eigenvalues[ends - 1] - eigenvalues[starts]).max()),
        min_inter_gap=float(gaps.min()) if gaps.size else float("inf"),
    )


def assert_identical(fast: Spectrum, oracle: Spectrum):
    for name in ("eigenvalues", "sectors"):
        a, b = getattr(fast, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert fast.clusters == oracle.clusters
    assert fast.residual == oracle.residual
    assert fast.max_intra_spread == oracle.max_intra_spread
    assert fast.min_inter_gap == oracle.min_inter_gap
    assert fast.vectors.format == oracle.vectors.format == "csc"
    assert fast.vectors.shape == oracle.vectors.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(fast.vectors, name), getattr(oracle.vectors, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def hypercube_mixer(spec: ModelSpec) -> SparseOperator:
    """H plus every single-site ``a + a*``: symmetric, changes the particle
    number by one, and joins all Fock states into one fragment."""
    op = spec.h
    for site in spec.lattice.sites:
        for kind in (CREATE, ANNIHILATE):
            op = op + monomial_to_sparse(FermionMonomial(1, ((site, kind),)), spec.basis)
    return op


OPERATORS = {
    "ring2": lambda: ModelSpec.ring(2).h,
    "ring3": lambda: ModelSpec.ring(3).h,
    "ring4": lambda: ModelSpec.ring(4).h,
    "chain9": lambda: ModelSpec.chain_sites(9).h,
    "sector-mixing": lambda: hypercube_mixer(ModelSpec.ring(2)),
}


@pytest.mark.parametrize("name", list(OPERATORS))
def test_diagonalize_matches_the_dense_sector_oracle(name):
    h = OPERATORS[name]()
    fast, dense = diagonalize(h), dense_sector_diagonalize(h)
    assert np.abs(fast.eigenvalues - dense.eigenvalues).max() <= 1e-10
    assert fast.clusters == dense.clusters
    assert fast.well_separated == dense.well_separated
    rows, oracle = spectrum_table(fast), spectrum_table(dense)
    assert [(s, m) for s, _, m in rows] == [(s, m) for s, _, m in oracle]
    assert max(abs(a - b) for (_, a, _), (_, b, _) in zip(rows, oracle)) <= 1e-12
    if name == "sector-mixing":
        assert (fast.sectors == -1).all()


@pytest.mark.parametrize("name", ["ring3", "chain9", "sector-mixing"])
def test_sparse_eigenvectors_are_a_certified_eigenbasis(name):
    h = OPERATORS[name]()
    s = diagonalize(h)
    v = s.vectors
    assert sp.issparse(v) and v.shape == (h.dim, h.dim)
    labels = np.unique(_fragment_labels(*h.matrix.nonzero(), h.dim), return_inverse=True)[1]
    assert v.nnz == int((np.bincount(labels) ** 2).sum())
    # every column lives on one fragment
    coo = v.tocoo()
    first = np.full(h.dim, -1)
    first[coo.col] = labels[coo.row]
    assert np.array_equal(labels[coo.row], first[coo.col])
    vd = v.toarray()
    assert np.abs(vd.T @ vd - np.eye(h.dim)).max() <= 1e-12
    hd = h.to_dense().astype(np.float64)
    assert np.abs((vd * s.eigenvalues) @ vd.T - hd).max() <= 1e-12 * max(1.0, np.abs(hd).max())


def bfs_components(n: int, edges) -> list:
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    label = [-1] * n
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adjacent[u]:
                if label[w] < 0:
                    label[w] = root
                    queue.append(w)
    return label


def symmetric_labels(n: int, edges) -> np.ndarray:
    row = np.array([a for a, b in edges] + [b for a, b in edges], dtype=np.int64)
    col = np.array([b for a, b in edges] + [a for a, b in edges], dtype=np.int64)
    return _fragment_labels(row, col, n)


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 60))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return n, edges


@settings(derandomize=True, deadline=None)
@given(_graphs())
def test_fragment_labels_match_breadth_first_search(graph):
    n, edges = graph
    # BFS from the smallest unvisited vertex labels each component by its minimum
    assert symmetric_labels(n, edges).tolist() == bfs_components(n, edges)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.permutations(range(300)))
def test_fragment_labels_of_a_scrambled_path(order):
    edges = list(zip(order[:-1], order[1:]))
    isolated = [(v, v) for v in range(300, 320)]
    labels = symmetric_labels(320, edges + isolated)
    assert labels.tolist() == [0] * 300 + list(range(300, 320))


def test_a_failed_eigenpair_residual_exits_3(capsys, monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        w, v = eigh(a)
        return w + 1e-3, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        diagonalize(ModelSpec.ring(2).h)
    assert cli.main(["verify", "--ring", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: eigenpair residual")


@pytest.mark.parametrize(
    "spec",
    [*(ModelSpec.ring(m) for m in range(1, 8)), *map(ModelSpec.chain_sites, (1, 3, 13))]
    + [ModelSpec.torus(4, 4)],
    ids=lambda s: f"{s.lattice.boundary}-{s.lattice.nsites}",
)
def test_diagonalize_matches_the_coo_scatter_oracle(spec):
    assert_identical(diagonalize(spec.h), coo_scatter_diagonalize(spec.h))


@pytest.mark.parametrize("name", ["chain9", "sector-mixing"])
def test_diagonalize_matches_the_coo_scatter_oracle_off_the_model(name):
    h = OPERATORS[name]()
    assert_identical(diagonalize(h), coo_scatter_diagonalize(h))


_OPERATOR_BASIS = ModelSpec.ring(2).basis


@st.composite
def _symmetric_operators(draw):
    """Symmetric integer operators on 64 states: a few larger fragments of
    random edges, the remaining states singletons with zero or nonzero
    diagonal entries."""
    dim = _OPERATOR_BASIS.dim
    vertex = st.integers(0, dim - 1)
    value = st.integers(-3, 3).filter(bool)
    edges = draw(st.lists(st.tuples(vertex, vertex, value), max_size=40))
    diagonal = draw(st.lists(st.tuples(vertex, value), max_size=40))
    rows = [i for i, j, _ in edges] + [j for i, j, _ in edges] + [i for i, _ in diagonal]
    cols = [j for i, j, _ in edges] + [i for i, j, _ in edges] + [i for i, _ in diagonal]
    data = [v for *_, v in edges] * 2 + [v for _, v in diagonal]
    m = sp.csr_matrix((np.array(data, dtype=np.int64), (rows, cols)), shape=(dim, dim))
    return SparseOperator(_OPERATOR_BASIS, m)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_symmetric_operators())
def test_diagonalize_matches_the_coo_scatter_oracle_on_random_operators(h):
    assert_identical(diagonalize(h), coo_scatter_diagonalize(h))


def test_diagonalize_holds_little_beyond_its_result():
    # 373 B per state with V held as COO triples, ~140 B written straight into CSC
    h = ModelSpec.ring(7).h
    tracemalloc.start()
    try:
        diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 224 * h.dim


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    _symmetric_operators(),
    st.tuples(st.integers(0, 63), st.integers(0, 63)).filter(lambda e: e[0] != e[1]),
    st.integers(-3, 3).filter(bool),
)
def test_diagonalize_refuses_one_entry_off_symmetric(h, entry, value):
    # above or below the diagonal, an unmatched entry must still join its fragment
    m = h.matrix + sp.csr_matrix(([value], ([entry[0]], [entry[1]])), shape=h.matrix.shape)
    off = SparseOperator(h.basis, m)
    with pytest.raises(ValueError, match="symmetric"):
        coo_scatter_diagonalize(off)
    with pytest.raises(ValueError, match="symmetric"):
        diagonalize(off)
