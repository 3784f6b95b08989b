"""The fragment-block spectrum against the dense per-sector oracle.

``dense_sector_diagonalize`` is the dense path that ``dynamics.diagonalize``
replaced: one dense ``eigh`` per particle-number sector (or of the whole
space when the operator mixes sectors), all eigenvectors in one dim x dim
array.  It is kept here, for dim <= 4096, as the oracle of the fast path.
"""

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
