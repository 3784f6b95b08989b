import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicolai import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    Lattice,
    SparseOperator,
    anticommutator,
    apply_monomial,
    commutator,
    enumerate_basis,
    graded_commutator,
    monomial_to_sparse,
    OperatorSum,
    normal_order,
    parity_operator,
)
from nicolai.fock import jordan_wigner_masks, terms_to_sparse

a = FermionMonomial.annihilation
adag = FermionMonomial.creation
n_op = FermionMonomial.number


def test_enumerate_basis_full_and_sector_counts():
    lat = Lattice.chain(0, 2)
    assert enumerate_basis(lat).dim == 8


def test_basis_states_ascending():
    b = enumerate_basis(Lattice.chain(0, 3))
    assert np.array_equal(b.states, np.arange(2**4))
    assert all(b.index_of(s) == s for s in range(2**4))
    with pytest.raises(KeyError):
        b.index_of(2**4)


def test_apply_annihilation_no_sign():
    lat = Lattice.chain(0, 2)
    # |1,0,0> is the state with only site 0 occupied
    assert apply_monomial(a(0), 0b001, lat) == (1, 0)


def test_apply_annihilation_with_sign():
    lat = Lattice.chain(0, 2)
    # a_1 |1,1,0>: one occupied site below rank 1
    assert apply_monomial(a(1), 0b011, lat) == (-1, 0b001)


def test_apply_repeated_annihilation_vanishes():
    lat = Lattice.chain(0, 2)
    for state in range(8):
        assert apply_monomial(a(2) * a(2), state, lat) is None


def test_apply_create_on_occupied_vanishes():
    lat = Lattice.chain(0, 1)
    assert apply_monomial(adag(0), 0b01, lat) is None


def test_apply_site_outside_lattice():
    lat = Lattice.chain(0, 1)
    with pytest.raises(KeyError):
        apply_monomial(a(5), 0, lat)
    with pytest.raises(ValueError):
        monomial_to_sparse(a(5), enumerate_basis(lat))
    # already in normal order, so no rank of site 5 is ever looked up
    with pytest.raises(ValueError, match="outside the lattice"):
        normal_order(adag(5) * a(0), lat)


@pytest.mark.parametrize(
    "lattice",
    [
        Lattice.chain(0, 4),
        Lattice.chain(-2, 5),  # 8 sites
        Lattice.ring(2),
        Lattice.rectangle(2, 3),
    ],
    ids=["chain5", "chain8", "ring6", "rect2x3"],
)
def test_car_relations_exact(lattice):
    basis = enumerate_basis(lattice)
    ident = SparseOperator.identity(basis)
    ops = {s: monomial_to_sparse(a(s), basis) for s in lattice.sites}
    for si in lattice.sites:
        for sj in lattice.sites:
            ai, aj = ops[si], ops[sj]
            acr = anticommutator(ai.adjoint(), aj)
            if si == sj:
                assert acr.equals(ident)
            else:
                assert acr.is_zero()
            assert anticommutator(ai, aj).is_zero()
            assert anticommutator(ai.adjoint(), aj.adjoint()).is_zero()


def test_number_operator_diagonal():
    basis = enumerate_basis(Lattice.chain(0, 0))
    m = monomial_to_sparse(n_op(0), basis)
    assert np.array_equal(m.to_dense(), np.diag([0, 1]))


def test_identity_monomial():
    basis = enumerate_basis(Lattice.chain(0, 2))
    m = monomial_to_sparse(FermionMonomial.identity(), basis)
    assert m.equals(SparseOperator.identity(basis))


def test_hopping_monomial_single_entry():
    # a_0* a_1 moves the particle from site 1 to site 0 with sign +1
    basis = enumerate_basis(Lattice.chain(0, 1))
    m = monomial_to_sparse(adag(0) * a(1), basis)
    dense = np.zeros((4, 4), dtype=np.int64)
    dense[0b01, 0b10] = 1
    assert np.array_equal(m.to_dense(), dense)


def test_zero_monomial():
    basis = enumerate_basis(Lattice.chain(0, 1))
    assert monomial_to_sparse(FermionMonomial(0, ((0, CREATE),)), basis).is_zero()


def _random_monomial(rng, lattice, max_len=6):
    k = int(rng.integers(0, max_len + 1))
    factors = tuple(
        (
            lattice.sites[int(rng.integers(lattice.nsites))],
            CREATE if rng.integers(2) else ANNIHILATE,
        )
        for _ in range(k)
    )
    return FermionMonomial(1, factors)


def test_adjoint_coherence_random():
    lat = Lattice.chain(0, 5)
    basis = enumerate_basis(lat)
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = _random_monomial(rng, lat)
        lhs = monomial_to_sparse(m.adjoint(), basis)
        rhs = monomial_to_sparse(m, basis).adjoint()
        assert lhs.equals(rhs)


def test_adjoint_involution():
    lat = Lattice.chain(0, 4)
    basis = enumerate_basis(lat)
    m = adag(0) * a(2) * adag(3)
    op = monomial_to_sparse(m, basis)
    assert op.adjoint().adjoint().equals(op)
    assert m.adjoint().adjoint() == m


def test_number_conserving_monomial_respects_sectors():
    lat = Lattice.chain(0, 4)
    full = enumerate_basis(lat)
    m = adag(0) * a(3)
    mat = monomial_to_sparse(m, full)
    pops = full.popcounts
    rows, cols = mat.matrix.nonzero()
    assert np.array_equal(pops[rows], pops[cols])


def test_gamma_locality_disjoint_supports():
    lat = Lattice.chain(0, 5)
    basis = enumerate_basis(lat)
    odd_left = monomial_to_sparse(a(0) * adag(1) * a(2), basis)
    odd_right = monomial_to_sparse(a(3) * a(4) * adag(5), basis)
    even_right = monomial_to_sparse(adag(4) * a(5), basis)
    assert graded_commutator(odd_left, odd_right, 1, 1).is_zero()
    assert graded_commutator(odd_left, even_right, 1, 0).is_zero()
    assert graded_commutator(even_right, odd_left, 0, 1).is_zero()


def test_commuting_number_operators():
    basis = enumerate_basis(Lattice.chain(0, 1))
    n0 = monomial_to_sparse(n_op(0), basis)
    n1 = monomial_to_sparse(n_op(1), basis)
    assert commutator(n0, n1).is_zero()


def test_basis_mismatch_rejected():
    b1 = enumerate_basis(Lattice.chain(0, 1))
    b2 = enumerate_basis(Lattice.chain(0, 2))
    with pytest.raises(ValueError):
        commutator(
            monomial_to_sparse(n_op(0), b1), monomial_to_sparse(n_op(0), b2)
        )


def test_parity_operator_anticommutes_with_odd():
    lat = Lattice.chain(0, 3)
    basis = enumerate_basis(lat)
    p = parity_operator(basis)
    odd = monomial_to_sparse(a(1) * adag(2) * a(3), basis)
    assert (p @ odd @ p + odd).is_zero()
    even = monomial_to_sparse(adag(0) * a(2), basis)
    assert (p @ even @ p - even).is_zero()


def test_normal_order_reproduces_matrix():
    lat = Lattice.chain(0, 4)
    basis = enumerate_basis(lat)
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = _random_monomial(rng, lat, max_len=7)
        target = monomial_to_sparse(m, basis)
        acc = SparseOperator.zero(basis)
        for factors, coeff in normal_order(m, lat).items():
            acc = acc + monomial_to_sparse(FermionMonomial(coeff, factors), basis)
        assert acc.equals(target)


def test_normal_order_canonical_keys():
    lat = Lattice.chain(0, 3)
    nf = normal_order(a(2) * adag(0) * a(1), lat)
    for factors in nf:
        kinds = [k for _, k in factors]
        # creations first, then annihilations, each block ascending
        assert kinds == sorted(kinds, key=lambda k: k == ANNIHILATE)
        for block in (CREATE, ANNIHILATE):
            ranks = [lat.rank(s) for s, k in factors if k == block]
            assert ranks == sorted(ranks)


def test_ring_wrap_and_ranks():
    lat = Lattice.ring(2)
    assert lat.sites == (-3, -2, -1, 0, 1, 2)
    assert lat.wrap(3) == -3
    assert lat.wrap(-4) == 2
    assert lat.ring_m == 2
    assert lat.rank(-3) == 0


def test_torus_row_major_order():
    lat = Lattice.torus(4, 4)
    assert lat.sites[0] == (0, 0)
    assert lat.sites[1] == (0, 1)
    assert lat.rank((1, 0)) == 4
    assert lat.wrap((4, -1)) == (0, 3)


_PROPERTY_LATTICES = (Lattice.chain(0, 4), Lattice.ring(2), Lattice.torus(2, 2))


@st.composite
def _monomials(draw):
    lat = draw(st.sampled_from(_PROPERTY_LATTICES))
    factor = st.tuples(st.sampled_from(lat.sites), st.sampled_from((CREATE, ANNIHILATE)))
    factors = draw(st.lists(factor, max_size=7))
    coefficient = draw(st.sampled_from((-2, -1, 1, 2)))
    return lat, FermionMonomial(coefficient, tuple(factors))


@settings(derandomize=True, deadline=None)
@given(_monomials())
def test_monomial_to_sparse_columns_match_apply_monomial(case):
    lat, m = case
    basis = enumerate_basis(lat)
    dense = monomial_to_sparse(m, basis).to_dense()
    for col, state in enumerate(basis.states):
        expected = np.zeros(basis.dim, dtype=dense.dtype)
        res = apply_monomial(m, int(state), lat)
        if res is not None:
            amp, out = res
            expected[basis.index_of(out)] = amp
        assert np.array_equal(dense[:, col], expected)


@settings(derandomize=True, deadline=None)
@given(_monomials())
def test_normal_order_terms_sum_to_the_monomial_matrix(case):
    lat, m = case
    basis = enumerate_basis(lat)
    target = monomial_to_sparse(m, basis)
    acc = SparseOperator.zero(basis)
    for factors, coeff in normal_order(m, lat).items():
        acc = acc + monomial_to_sparse(FermionMonomial(coeff, factors), basis)
    assert target.dtype == acc.dtype == np.int64
    assert acc.equals(target)


@st.composite
def _distinct_site_monomials(draw):
    lat = draw(st.sampled_from(_PROPERTY_LATTICES))
    sites = draw(st.permutations(lat.sites))[: draw(st.integers(0, lat.nsites))]
    kinds = draw(
        st.lists(
            st.sampled_from((CREATE, ANNIHILATE)), min_size=len(sites), max_size=len(sites)
        )
    )
    return lat, FermionMonomial(1, tuple(zip(sites, kinds)))


def _apply_factor_by_factor(m: FermionMonomial, basis):
    """``(alive, out_states, signs)`` of ``m`` on every state of ``basis``,
    one factor at a time, right to left, each factor taking its parity on the
    intermediate states; valid for any monomial, repeated sites included, and
    the oracle of the closed form.  ``signs`` is meaningful where alive."""
    lat = basis.lattice
    states = basis.states.copy()
    n = states.shape[0]
    alive = np.ones(n, dtype=bool)
    sign_par = np.zeros(n, dtype=np.int64)
    for site, kind in reversed(m.factors):
        r = lat.rank(site)
        bit = (states >> r) & 1
        ok = (bit == 1) if kind == ANNIHILATE else (bit == 0)
        alive &= ok
        below = (states & ((1 << r) - 1)).astype(np.uint64)
        sign_par += np.bitwise_count(below).astype(np.int64)
        states = np.where(ok, states ^ (1 << r), states)
    signs = np.where(sign_par & 1, -1, 1)
    return alive, states, signs


def _factor_loop_matrix(m: FermionMonomial, basis) -> SparseOperator:
    """The matrix of ``m`` scattered from the per-factor loop alone."""
    alive, out, signs = _apply_factor_by_factor(m, basis)
    cols = np.flatnonzero(alive)
    mat = sp.csr_matrix((signs[cols] * m.coefficient, (out[cols], cols)), shape=(basis.dim,) * 2)
    return SparseOperator(basis, mat)


@settings(derandomize=True, deadline=None)
@given(_monomials())
@example(case=(Lattice.ring(2), FermionMonomial(1, ())))
@example(case=(Lattice.ring(2), a(0) * a(0)))
def test_closed_form_masks_match_the_factor_loop(assert_same_csr, case):
    lat, m = case
    basis = enumerate_basis(lat)
    alive, _, _ = _apply_factor_by_factor(m, basis)
    assert (jordan_wigner_masks(m, lat) is None) == (not alive.any())
    assert_same_csr(terms_to_sparse((m,), basis), _factor_loop_matrix(m, basis))


@settings(derandomize=True, deadline=None)
@given(_distinct_site_monomials())
def test_distinct_site_masks_touch_their_support(case):
    lat, m = case
    support, pattern, _, crossings, touched = jordan_wigner_masks(m, lat)
    ranks = [lat.rank(site) for site, _ in m.factors]
    assert touched == support == sum(1 << r for r in ranks)
    assert pattern == sum(1 << r for r, (_, k) in zip(ranks, m.factors) if k == ANNIHILATE)
    # one crossing per pair whose factor that acts first has the lower rank
    pairs = sum(ri > rj for i, ri in enumerate(ranks) for rj in ranks[i + 1 :])
    assert crossings == pairs % 2


@st.composite
def _occupation_monomials(draw):
    lat = draw(st.sampled_from(_PROPERTY_LATTICES))
    sites = draw(st.permutations(lat.sites))[: draw(st.integers(1, lat.nsites))]
    filled = draw(st.lists(st.booleans(), min_size=len(sites), max_size=len(sites)))
    factors = ()
    for site, f in zip(sites, filled):
        pair = ((site, CREATE), (site, ANNIHILATE))  # n_i, else 1 - n_i
        factors += pair if f else pair[::-1]
    return lat, FermionMonomial(1, factors)


@settings(derandomize=True, deadline=None)
@given(_occupation_monomials())
def test_occupation_closed_form_matches_the_factor_loop(assert_same_csr, case):
    lat, m = case
    basis = enumerate_basis(lat)
    support, _, _, _, touched = jordan_wigner_masks(m, lat)
    assert support == 0 and touched == sum(1 << lat.rank(s) for s in m.support)
    got = terms_to_sparse((m,), basis)
    assert_same_csr(got, _factor_loop_matrix(m, basis))
    assert (got.matrix.data == 1).all()
    entries = got.matrix.tocoo()
    assert np.array_equal(entries.row, entries.col)


def test_masks_are_none_exactly_on_vanishing_monomials():
    lat = Lattice.ring(2)
    zero, one = 1 << lat.rank(0), 1 << lat.rank(1)
    assert jordan_wigner_masks(a(0) * a(0), lat) is None
    assert jordan_wigner_masks(adag(1) * adag(1), lat) is None
    assert jordan_wigner_masks(n_op(0) * a(0), lat) is None  # n_0 a_0 empties, then reads 1
    assert jordan_wigner_masks(n_op(0) * n_op(0), lat) == jordan_wigner_masks(n_op(0), lat)
    assert jordan_wigner_masks(n_op(0), lat) == (0, zero, 0, 0, zero)
    # (1 - n_1) n_0: survives on site 0 filled and site 1 empty, moves nothing
    assert jordan_wigner_masks(n_op(0) * a(1) * adag(1), lat) == (0, zero, 0, 0, zero | one)


def test_repeated_sites_match_the_factor_loop(assert_same_csr):
    lat = Lattice.ring(2)
    basis = enumerate_basis(lat)
    # n_0 a_1* n_0: the second n_0 sees the bit the first one left, so site
    # 0 ends occupied, where reading every factor on the input state would
    # flip it
    m = n_op(0) * adag(1) * n_op(0)
    got = terms_to_sparse((m,), basis)
    assert_same_csr(got, _factor_loop_matrix(m, basis))
    assert got.nnz == basis.dim // 4


@st.composite
def _operator_sums(draw):
    lat = draw(st.sampled_from(_PROPERTY_LATTICES))
    factor = st.tuples(st.sampled_from(lat.sites), st.sampled_from((CREATE, ANNIHILATE)))
    occupation = st.sampled_from(lat.sites).map(lambda s: ((s, CREATE), (s, ANNIHILATE)))
    factors = st.one_of(
        st.lists(factor, max_size=7).map(tuple),  # repeated sites are common
        st.lists(occupation, max_size=3).map(lambda pairs: sum(pairs, ())),
    )
    # dyadic coefficients: every partial sum is exact in float64, whatever the order
    coefficient = st.sampled_from((-2, -1, 1, 2, 0.5, -1.5))
    terms = draw(st.lists(st.builds(FermionMonomial, coefficient, factors), max_size=6))
    if terms and draw(st.booleans()):
        terms.insert(draw(st.integers(0, len(terms))), -draw(st.sampled_from(terms)))
    return lat, OperatorSum(tuple(terms))


_CANCELLING = (adag(0) * a(1), -(adag(0) * a(1)))


@settings(derandomize=True, deadline=None)
@given(_operator_sums())
@example(case=(Lattice.ring(2), OperatorSum()))
@example(case=(Lattice.ring(2), OperatorSum(_CANCELLING)))
def test_one_pass_sum_equals_the_per_term_csr_additions(assert_same_csr, case):
    lat, q = case
    basis = enumerate_basis(lat)
    want = SparseOperator.zero(basis)
    for t in q.terms:
        want = want + monomial_to_sparse(t, basis)
    got = q.to_sparse(basis)
    assert_same_csr(got, want)
    integral = all(float(t.coefficient).is_integer() for t in q.terms)
    assert got.dtype == (np.int64 if integral else np.float64)
    # and the scalar path, state by state, which shares no code with the builder
    dense = np.zeros((basis.dim, basis.dim))
    for t in q.terms:
        for state in range(basis.dim):
            if (res := apply_monomial(t, state, lat)) is not None:
                dense[res[1], state] += res[0]
    assert np.array_equal(got.to_dense(), dense)

