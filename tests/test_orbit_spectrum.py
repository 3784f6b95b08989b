"""The eigenvalue-only spectrum against ``diagonalize``, its oracle.

``fragment_eigenvalues`` solves one fragment per orbit of the certified
shifts by two (``ModelSpec.shifts``) and keeps no eigenvector.  Its
eigenvalue multiset must match ``diagonalize``'s within ``1e-12 * ||H||``
and count the same kernel; with no shift it must be bit-identical.
"""

from collections import Counter

import numpy as np
import pytest

from nicolai import (
    FermionMonomial,
    Lattice,
    ModelSpec,
    OperatorSum,
    anticommutator,
    cli,
    diagonalize,
    fragment_eigenvalues,
    translate2,
)
from nicolai import dynamics
from nicolai.dynamics import _fragment_labels
from nicolai.groundstates import _ZERO_TOL

# lattices, not models: each case builds its model and frees it
_REDUCED = [*map(Lattice.ring, range(1, 9)), Lattice.torus(4, 4)]
_UNREDUCED = [*(Lattice.chain(0, n - 1) for n in range(1, 16, 2)), Lattice.ring(2), Lattice.ring(5)]


def _ids(lat):
    if lat.shape:
        return "torus{}x{}".format(*lat.shape)
    return f"{'ring' if lat.periodic else 'chain'}{lat.nsites}"


@pytest.mark.parametrize("lat", _REDUCED, ids=_ids)
def test_orbit_eigenvalues_match_diagonalize(lat):
    spec = ModelSpec(lat)
    h = spec.h
    oracle = diagonalize(h).eigenvalues
    fast = spec.eigenvalues
    assert fast.shape == oracle.shape
    assert np.abs(fast - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())
    assert np.count_nonzero(np.abs(fast) <= _ZERO_TOL) == np.count_nonzero(
        np.abs(oracle) <= _ZERO_TOL
    )


@pytest.mark.parametrize("lat", _UNREDUCED, ids=_ids)
def test_without_shifts_the_eigenvalues_are_bit_identical(lat):
    spec = ModelSpec(lat)
    assert np.array_equal(fragment_eigenvalues(spec.h), diagonalize(spec.h).eigenvalues)


def test_model_certifies_the_shifts_it_passes():
    assert ModelSpec.chain_sites(7).shifts == ()
    ring = ModelSpec.ring(3)
    lat = ring.lattice
    assert ring.shifts == (tuple(lat.rank(lat.wrap(s + 2)) for s in lat.sites),)
    torus = ModelSpec.torus(4, 6)
    x, y = torus.shifts
    lat = torus.lattice
    assert x == tuple(lat.rank(lat.wrap((i + 2, j))) for i, j in lat.sites)
    assert y == tuple(lat.rank(lat.wrap((i, j + 2))) for i, j in lat.sites)
    # a Q with one charge dropped passes neither term identity: no shift is passed
    for spec in (ModelSpec.ring(3), ModelSpec.torus(4, 4)):
        spec.__dict__["q_sum"] = OperatorSum(spec.q_sum.terms[1:])  # cached_property slot
        assert spec.shifts == ()


@pytest.mark.parametrize("shape", [(4, 4), (4, 6), (6, 4)], ids=lambda s: "x".join(map(str, s)))
def test_the_y_shift_by_two_fixes_the_torus_charges(shape):
    spec = ModelSpec(Lattice.torus(*shape))
    lat = spec.lattice
    terms = Counter(spec.q_sum.terms)
    assert Counter(translate2(spec.q_sum, lat, axis=1).terms) == terms
    # the shift by one does not
    by_one = OperatorSum(
        tuple(
            FermionMonomial(t.coefficient, tuple((lat.wrap((x, y + 1)), k) for (x, y), k in t.factors))
            for t in spec.q_sum.terms
        )
    )
    assert Counter(by_one.terms) != terms


def test_the_y_shift_certificate_agrees_with_the_matrix_identity():
    spec = ModelSpec.torus(4, 4)
    ty = translate2(spec.q_sum, spec.lattice, axis=1).to_sparse(spec.basis)
    assert anticommutator(ty, ty.adjoint()).equals(spec.h)


def test_translate2_refuses_an_axis_the_lattice_lacks():
    with pytest.raises(ValueError, match="no axis 1"):
        translate2(ModelSpec.ring(2).q_sum, Lattice.ring(2), axis=1)


def _orbit_count(h, shifts) -> int:
    """Orbits of the fragments of two or more states, by brute force: each
    fragment's canonical form is its least sorted image under the group."""
    labels = _fragment_labels(*h.matrix.nonzero(), h.dim)
    fragments = {}
    for state, label in enumerate(labels.tolist()):
        fragments.setdefault(label, []).append(state)
    group = dynamics._shift_group(shifts, h.basis.lattice.nsites)

    def image(state, g):
        return sum(1 << g[r] for r in range(len(g)) if state >> r & 1)

    return len(
        {
            min(tuple(sorted(image(s, g) for s in states)) for g in group)
            for states in fragments.values()
            if len(states) > 1
        }
    )


@pytest.mark.parametrize("lat", [Lattice.ring(5), Lattice.ring(6), Lattice.torus(4, 4)], ids=_ids)
def test_one_block_is_solved_per_orbit(lat, monkeypatch):
    spec = ModelSpec(lat)
    solved = Counter()
    blocks = dynamics._block_eigenpairs

    def counted(m, slot, states, scale):
        solved[states.shape[1]] += states.shape[0]
        return blocks(m, slot, states, scale)

    monkeypatch.setattr(dynamics, "_block_eigenpairs", counted)
    fragment_eigenvalues(spec.h, spec.shifts)
    assert sum(solved.values()) == _orbit_count(spec.h, spec.shifts)
    assert sum(solved.values()) < _orbit_count(spec.h, ())


@pytest.mark.parametrize(
    "lat", [Lattice.ring(5), Lattice.chain(0, 12), Lattice.torus(4, 4)], ids=_ids
)
def test_diagonalize_and_the_eigenvalues_solve_the_same_stacks(lat, monkeypatch):
    # one solver: with no shift both paths hand the same stacks to the block
    # solver, and the 1 x 1 fragments never reach it
    h = ModelSpec(lat).h
    blocks = dynamics._block_eigenpairs
    solved = []

    def recorded(m, slot, states, scale):
        solved.append(states.copy())
        return blocks(m, slot, states, scale)

    monkeypatch.setattr(dynamics, "_block_eigenpairs", recorded)
    diagonalize(h)
    stacks, solved[:] = list(solved), []
    fragment_eigenvalues(h)
    assert [s.shape for s in solved] == [s.shape for s in stacks]
    assert all(np.array_equal(a, b) for a, b in zip(solved, stacks))
    assert min(s.shape[1] for s in stacks) == 2


def test_a_shift_that_changes_fragment_sizes_is_refused():
    # the shift by one site is no symmetry of the ring
    lat = Lattice.ring(3)
    one = tuple(lat.rank(lat.wrap(s + 1)) for s in lat.sites)
    with pytest.raises(RuntimeError, match="another size"):
        fragment_eigenvalues(ModelSpec(lat).h, [one])


def test_a_failed_shift_certificate_exits_3(capsys, monkeypatch):
    lat = Lattice.ring(3)
    one = tuple(lat.rank(lat.wrap(s + 1)) for s in lat.sites)
    monkeypatch.setattr(ModelSpec, "shifts", (one,))
    assert cli.main(["verify", "--ring", "--m", "3"]) == 3
    assert capsys.readouterr().err.startswith("error: a shift maps a fragment")


def test_a_failed_representative_residual_raises(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        w, v = eigh(a)
        return w + 1e-3, v

    spec = ModelSpec.ring(3)
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        fragment_eigenvalues(spec.h, spec.shifts)

