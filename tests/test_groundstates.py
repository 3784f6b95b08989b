import itertools
import math

import numpy as np
import pytest

from nicolai import (
    Configuration,
    Lattice,
    ModelSpec,
    apply_monomial,
    config_to_vector,
    enumerate_basis,
    enumerate_ground_configs,
    is_ground_config,
    is_permitted,
    kernel_census,
    transfer_count_ground_configs,
    verify_susy_ground,
)
from nicolai.groundstates import (
    _annihilated,
    _ground_codes,
    entropy_density,
    ground_config_mask,
    occupation_monomial,
)
from nicolai import grammar
from nicolai.model import build_supercharge, build_hamiltonian_susy, charge_hoods, charge_triples
from nicolai.fock import SparseOperator, monomial_to_sparse


def brute_force_ground_count(lattice):
    count = 0
    for bits in itertools.product((0, 1), repeat=lattice.nsites):
        g = Configuration(lattice, bits)
        if is_ground_config(g):
            count += 1
    return count


def test_trivial_configs_are_ground():
    lat = Lattice.ring(2)
    assert is_ground_config(Configuration.all_empty(lat))
    assert is_ground_config(Configuration.all_occupied(lat))


def test_forbidden_patterns_detected():
    lat = Lattice.chain(-2, 2)
    base = [0] * 5
    g = Configuration(lat, tuple(base))
    assert is_ground_config(g)
    # "0,1,0" centered at the even site 0
    bad = list(base)
    bad[lat.rank(0)] = 1
    assert not is_ground_config(Configuration(lat, tuple(bad)))
    # "1,1,0" at the same triple is fine
    ok = list(base)
    ok[lat.rank(-1)] = 1
    ok[lat.rank(0)] = 1
    assert is_ground_config(Configuration(lat, tuple(ok)))


def test_wrapped_triple_checked_on_ring():
    lat = Lattice.ring(2)
    # "1,0,1" on the wrapped triple {1, 2, -3}
    values = [0] * 6
    values[lat.rank(1)] = 1
    values[lat.rank(-3)] = 1
    assert not is_ground_config(Configuration(lat, tuple(values)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_ring_census_against_oracles(m):
    lat = Lattice.ring(m)
    configs = enumerate_ground_configs(lat)
    assert len(configs) == transfer_count_ground_configs(lat)
    if m <= 3:
        assert len(configs) == brute_force_ground_count(lat)
    mask = ground_config_mask(lat)
    assert int(mask.sum()) == len(configs)
    states = {g.state for g in configs}
    assert states == set(np.nonzero(mask)[0].tolist())


@pytest.mark.parametrize("nsites", [1, 3, 5, 7, 9, 11])
def test_chain_census_against_oracles(nsites):
    lat = Lattice.chain(0, nsites - 1)
    configs = enumerate_ground_configs(lat)
    assert len(configs) == transfer_count_ground_configs(lat)
    if nsites <= 9:
        assert len(configs) == brute_force_ground_count(lat)


@pytest.mark.parametrize(
    "lat",
    [Lattice.ring(m) for m in range(1, 6)]
    + [Lattice.chain(0, n - 1) for n in range(1, 14, 2)]
    + [Lattice.torus(4, 4)],
    ids=lambda lat: f"{lat.boundary}{lat.nsites}",
)
def test_ground_states_are_the_configuration_states_in_order(lat):
    # the array path against the object oracle, row order included: the
    # rows are lexicographic over site rank, not ascending as integers
    states = ModelSpec(lat).ground_states
    assert states.dtype == np.int64
    assert states.tolist() == [g.state for g in enumerate_ground_configs(lat)]


def test_census_lexicographic_order():
    lat = Lattice.ring(2)
    configs = enumerate_ground_configs(lat)
    values = [g.values for g in configs]
    assert values == sorted(values)
    assert len(values) >= 2


def test_exhaustive_limit():
    with pytest.raises(ValueError):
        enumerate_ground_configs(Lattice.chain(0, 30))
    # the transfer matrix still counts it
    assert transfer_count_ground_configs(Lattice.chain(0, 30)) > 0


def test_growth_is_exponential():
    lam = math.exp(2 * entropy_density(Lattice.ring(2)))
    assert lam > 1
    assert abs(lam - 3.0) < 1e-9
    # counts follow 3**blocks + (-1)**blocks on rings
    for m in (2, 3, 4, 5, 6, 7):
        lat = Lattice.ring(m)
        assert transfer_count_ground_configs(lat) == 3 ** (m + 1) + (-1) ** (m + 1)


def test_config_sequence_bijection():
    lat = Lattice.ring(2)
    for bits in itertools.product((0, 1), repeat=6):
        g = Configuration(lat, bits)
        assert is_ground_config(g) == is_permitted(g.to_sequence())


def test_particle_hole_closure():
    lat = Lattice.ring(2)
    for g in enumerate_ground_configs(lat):
        assert is_ground_config(g.flipped())


def test_config_to_vector_basis_index():
    lat = Lattice.ring(2)
    basis = enumerate_basis(lat)
    v0 = config_to_vector(Configuration.all_empty(lat), basis)
    assert v0[0] == 1.0 and v0.sum() == 1.0
    v1 = config_to_vector(Configuration.all_occupied(lat), basis)
    assert v1[-1] == 1.0


def test_occupation_monomial_gives_plus_sign():
    lat = Lattice.chain(0, 4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=5))
        g = Configuration(lat, bits)
        res = apply_monomial(occupation_monomial(g), 0, lat)
        assert res is not None
        amp, state = res
        assert amp == 1  # creations applied in ascending order onto the vacuum
        assert state == g.state


def test_verify_susy_ground_on_ground_configs(ring):
    ctx = ring(2)
    for g in enumerate_ground_configs(ctx.lattice):
        rep = verify_susy_ground(g, ctx)
        assert rep.is_ground and rep.annihilated
        assert rep.violated_triples == []
        assert rep.flip_actions == []


def test_verify_susy_flip_action(ring):
    ctx = ring(2)
    lat = ctx.lattice
    # "1,0,1" on the triple {-1, 0, 1}, everything else empty
    values = [0] * 6
    values[lat.rank(-1)] = 1
    values[lat.rank(1)] = 1
    g = Configuration(lat, tuple(values))
    rep = verify_susy_ground(g, ctx)
    assert not rep.is_ground
    assert rep.q_residual != 0
    charge_flips = [f for f in rep.flip_actions if f[0] == "charge"]
    assert len(charge_flips) == 1
    _, center, amp, image = charge_flips[0]
    assert center == 0 and amp in (-1, 1)
    assert image.value_at(-1) == 0 and image.value_at(0) == 1 and image.value_at(1) == 0
    # the adjoint maps the image back
    rep_back = verify_susy_ground(image, ctx)
    back = [f for f in rep_back.flip_actions if f[0] == "adjoint" and f[1] == 0]
    assert len(back) == 1 and back[0][3].values == g.values


def _oracle_annihilated(spec, states):
    return np.array(
        [verify_susy_ground(Configuration.from_state(g, spec.lattice), spec).annihilated for g in states]
    )


@pytest.mark.parametrize(
    "spec",
    [ModelSpec.ring(1), ModelSpec.ring(2), ModelSpec.chain_sites(7), ModelSpec.chain_sites(9)],
    ids=["ring1", "ring2", "chain7", "chain9"],
)
def test_row_test_matches_the_configuration_oracle(spec):
    # every Fock state, ground or not; the rows pass exactly on the ground states
    states = np.arange(spec.basis.dim)
    rows = _annihilated(spec, states)
    assert np.array_equal(rows, _oracle_annihilated(spec, states))
    assert np.array_equal(rows, ground_config_mask(spec.lattice, spec.basis))


def test_row_test_matches_the_configuration_oracle_on_the_torus():
    # the oracle applies every term of Q, Q* and H to one state at a time in
    # Python, ~80 us a state, so every 4th Fock state is compared (~1.3 s);
    # the mask settles every state
    spec = ModelSpec.torus(4, 4)
    codes = _ground_codes(spec.lattice)
    assert _annihilated(spec, codes).all()
    others = np.flatnonzero(~ground_config_mask(spec.lattice, spec.basis))
    assert not _annihilated(spec, others).any()
    sample = np.arange(0, spec.basis.dim, 4)
    assert np.array_equal(_annihilated(spec, sample), _oracle_annihilated(spec, sample))


def test_row_test_ignores_explicit_zeros():
    # a stored zero in the empty state's row of H, as the oracle's max-abs ignores it
    spec = ModelSpec.ring(1)
    m = spec.h.matrix
    assert m.indptr[1] == 0
    stored = type(m)(
        (np.append(0, m.data), np.append(0, m.indices), np.append(0, m.indptr[1:] + 1)),
        shape=m.shape,
    )
    vars(spec)["h"] = SparseOperator(spec.basis, stored)
    assert spec.h.matrix.nnz == m.nnz + 1
    assert _annihilated(spec, np.array([0]))[0]
    assert _oracle_annihilated(spec, [0])[0]


def test_no_cancellation_between_triples(ring):
    # distinct triples map one configuration to distinct images, so Q|g> = 0
    # forces every term to vanish separately
    ctx = ring(2)
    lat = ctx.lattice
    from nicolai.model import local_charge_1d

    charges = [local_charge_1d(c // 2, lat) for (_, c, _) in charge_triples(lat)]
    for state in range(64):
        for mono_set in (charges, [q.adjoint() for q in charges]):
            images = []
            for q in mono_set:
                res = apply_monomial(q, state, lat)
                if res is not None:
                    images.append(res[1])
            assert len(images) == len(set(images))


def test_ground_configs_lie_in_classical_kernel(ring):
    ctx = ring(2)
    from nicolai.model import build_h_classical

    diag = build_h_classical(ctx).to_sparse(ctx.basis).diagonal()
    for g in enumerate_ground_configs(ctx.lattice):
        assert diag[ctx.basis.index_of(g.state)] == 0


@pytest.mark.parametrize("m", [2, 3])
def test_kernel_census(m):
    census = kernel_census(ModelSpec.ring(m))
    assert census.dim_ker_h_classical == census.classical_count
    assert census.dim_ker_h >= census.classical_count
    assert census.min_positive_classical == 1.0
    assert census.consistent


def test_kernel_census_rejects_2d():
    with pytest.raises(ValueError):
        kernel_census(ModelSpec.torus(4, 4))


def test_torus_census_matches_mask():
    lat = Lattice.torus(4, 4)
    configs = enumerate_ground_configs(lat)
    mask = ground_config_mask(lat)
    assert len(configs) == int(mask.sum())
    assert is_ground_config(Configuration.all_empty(lat))
    # center occupied, arms empty at (0, 0) is forbidden
    values = [0] * 16
    values[lat.rank((0, 0))] = 1
    assert not is_ground_config(Configuration(lat, tuple(values)))


def test_torus_ground_vectors_annihilated():
    spec = ModelSpec.torus(4, 4)
    lat = spec.lattice
    basis = enumerate_basis(lat)
    q = build_supercharge(spec).to_sparse(basis)
    mask = ground_config_mask(lat, basis)
    q_csc = q.matrix.tocsc()
    qd_csc = q.adjoint().matrix.tocsc()
    col_zero = (np.diff(q_csc.indptr) == 0) & (np.diff(qd_csc.indptr) == 0)
    assert np.array_equal(mask, col_zero)


@pytest.mark.parametrize(
    "letter, accepted",
    [
        (0, True),
        (1, True),
        (False, True),
        (True, True),
        (0.0, True),
        (1.0, True),
        (np.int64(1), True),
        (-1, False),
        (2, False),
        (0.5, False),
        (float("nan"), False),
        ("0", False),
        (None, False),
    ],
)
def test_configuration_letters(letter, accepted):
    lat = Lattice.chain(0, 2)
    if accepted:
        assert Configuration(lat, (0, letter, 1)).values[1] == letter
    else:
        with pytest.raises(ValueError):
            Configuration(lat, (0, letter, 1))


def bit_extract_ground_config_mask(lattice, basis):
    """The mask as it was first written: each site of every neighbourhood
    extracted as its own 0/1 array and fed to the pattern rule."""
    ok = np.ones(basis.dim, dtype=bool)
    for hood in charge_hoods(lattice):
        center, *arms = ((basis.states >> r) & 1 for r in hood)
        ok &= ~grammar.forbidden(center, arms)
    return ok


@pytest.mark.parametrize(
    "lat",
    [*map(Lattice.ring, range(1, 7)), Lattice.chain(0, 8), Lattice.torus(4, 4), Lattice.torus(2, 4)],
    ids=lambda lat: f"{lat.boundary}-{lat.nsites}-{lat.shape}",
)
def test_ground_config_mask_matches_the_bit_extract_oracle(lat):
    # on the 2x4 torus the two x-arms of every cross are one site
    basis = enumerate_basis(lat)
    assert np.array_equal(ground_config_mask(lat, basis), bit_extract_ground_config_mask(lat, basis))
