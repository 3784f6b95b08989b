import numpy as np
import pytest

from nicolai import ModelSpec
from nicolai import charges as ch


@pytest.fixture(scope="session")
def ring():
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = ModelSpec.ring(m)
        return cache[m]

    return get


@pytest.fixture(scope="session")
def assert_same_csr():
    """Assert that two operators are the same CSR arrays: dtype, ``indptr``,
    ``indices`` and ``data``, with no explicit zero stored."""

    def check(got, want):
        g, w = got.matrix, want.matrix
        assert g.dtype == w.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), name
        assert g.nnz == np.count_nonzero(g.data)

    return check


@pytest.fixture
def planted_arc(monkeypatch):
    """Plant the word ``++-`` among the three-site arcs of every ring
    catalogue and let it through the row validation.  It is permitted (a
    three-site arc holds no whole even-centered triple), but its right
    boundary pair is not constant, so ``[H, Q(f)]`` does not vanish.
    Returns the planted sequence on the arc ``[0, 2]``."""
    arc_words = ch._arc_words

    def planted(lattice):
        starts, words = arc_words(lattice)
        return starts, [np.vstack((words[0], [[1, 1, -1]])).astype(words[0].dtype), *words[1:]]

    monkeypatch.setattr(ch, "_arc_words", planted)
    monkeypatch.setattr(ch, "_validate_blocks", lambda lattice, blocks: None)
    return ch.ConservedSequence((0, 1, 2), (1, 1, -1))
