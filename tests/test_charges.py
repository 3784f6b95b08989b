import itertools

import numpy as np
import pytest

import nicolai
from nicolai import (
    ANNIHILATE,
    CREATE,
    ConservedSequence,
    Lattice,
    ModelSpec,
    adjoint_identity_check,
    all_embeddable_sequences,
    anticommutator,
    arc_sequences,
    build_hamiltonian_susy,
    build_supercharge,
    conservation_check,
    enumerate_basis,
    enumerate_hat_xi,
    enumerate_ring_sequences,
    independence_probe,
    is_permitted,
    lattice_sequences,
    monomial_to_sparse,
    reference_interval_tables,
    sequence_to_operator,
    sign_sigma,
    transfer_count_hat_xi,
    transfer_count_ring_sequences,
)
from nicolai import charges as ch
from nicolai.charges import (
    anticommute_check,
    conservation_sweep,
    enumerate_rectangle_sequences,
    has_edge_conditions,
    overlap_allows_nonzero,
    rect_constant_sequence,
    sample_edge_violating_sequences,
    torus_constant_sequence,
    vanishing_triple_products,
)
from nicolai.fock import jordan_wigner_masks
from nicolai.model import OperatorSum, translate2


def brute_force_interval_count(n):
    """Count permitted strings on n sites [0, n-1] with constant edge pairs."""
    count = 0
    for vals in itertools.product((-1, 1), repeat=n):
        if vals[0] != vals[1] or vals[-1] != vals[-2]:
            continue
        ok = True
        for p in range(2, n, 2):
            if p + 1 >= n:
                break
            if (vals[p - 1], vals[p], vals[p + 1]) in ((-1, 1, -1), (1, -1, 1)):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_is_permitted_examples():
    assert not is_permitted(ConservedSequence((1, 2, 3), (-1, 1, -1)))
    assert is_permitted(ConservedSequence((0, 1, 2, 3, 4), (1,) * 5))
    assert is_permitted(ConservedSequence((0, 1, 2, 3, 4), (-1, -1, 1, 1, 1)))
    # alternation at an odd center is allowed
    assert is_permitted(ConservedSequence((0, 1, 2), (-1, 1, -1)))


@pytest.mark.parametrize("l,expected", [(1, 2), (2, 6), (3, 18)])
def test_hat_xi_published_counts(l, expected):
    assert len(enumerate_hat_xi(0, l)) == expected


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_hat_xi_against_brute_force(l):
    n = 2 * l + 1
    assert len(enumerate_hat_xi(0, l)) == brute_force_interval_count(n)


@pytest.mark.parametrize("l", range(1, 11))
def test_hat_xi_transfer_matrix_oracle(l):
    assert len(enumerate_hat_xi(0, l)) == transfer_count_hat_xi(0, l)


def test_hat_xi_growth_ratio():
    n9 = transfer_count_hat_xi(0, 9)
    n10 = len(enumerate_hat_xi(0, 10))
    assert n10 == transfer_count_hat_xi(0, 10)
    assert abs(n10 / n9 - 3.0) <= 0.05 * 3.0


def test_hat_xi_interval_offsets():
    # counts depend only on the length, sites carry the offset
    seqs = enumerate_hat_xi(-2, 1)
    assert len(seqs) == len(enumerate_hat_xi(0, 3))
    assert seqs[0].sites == tuple(range(-4, 3))


def test_hat_xi_lexicographic_order():
    seqs = enumerate_hat_xi(0, 2)
    assert [s.values for s in seqs] == sorted(s.values for s in seqs)


def test_hat_xi_requires_k_less_than_l():
    with pytest.raises(ValueError):
        enumerate_hat_xi(1, 1)
    with pytest.raises(ValueError):
        transfer_count_hat_xi(2, 1)


def test_reference_tables_match_enumeration():
    tables = reference_interval_tables()
    for l, rows in tables.items():
        enumerated = sorted(s.values for s in enumerate_hat_xi(0, l))
        golden = sorted(s.values for s in rows)
        assert enumerated == golden


def test_negation_closure():
    for l in (1, 2, 3):
        values = {s.values for s in enumerate_hat_xi(0, l)}
        for v in values:
            assert tuple(-x for x in v) in values


def test_ring_sequences_brute_force(ring):
    ctx = ring(2)
    lat = ctx.lattice
    seqs = enumerate_ring_sequences(lat)
    brute = 0
    from nicolai import charge_triples

    for vals in itertools.product((-1, 1), repeat=6):
        ok = True
        for (a, c, b) in charge_triples(lat):
            t = (vals[lat.rank(a)], vals[lat.rank(c)], vals[lat.rank(b)])
            if t in ((-1, 1, -1), (1, -1, 1)):
                ok = False
                break
        if ok:
            brute += 1
    assert len(seqs) == brute == transfer_count_ring_sequences(lat)
    patterns = {s.values for s in seqs}
    assert (1,) * 6 in patterns and (-1,) * 6 in patterns


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ring_sequence_counts_closed_form(m, ring):
    # trace of the pair transfer matrix: 3**b + (-1)**b over b = m+1 blocks
    lat = ring(m).lattice
    b = m + 1
    assert transfer_count_ring_sequences(lat) == 3**b + (-1) ** b


def test_transfer_counts_stay_exact_past_int64():
    # 2 * 3**44 and 3**40 + 1 both exceed 2**63
    assert transfer_count_hat_xi(0, 45) == 2 * 3**44
    assert transfer_count_ring_sequences(Lattice.ring(39)) == 3**40 + 1


def test_sequence_to_operator_examples():
    f = enumerate_hat_xi(0, 1)[0]  # all -1
    assert sequence_to_operator(f).factors == (
        (0, ANNIHILATE),
        (1, ANNIHILATE),
        (2, ANNIHILATE),
    )
    up = ConservedSequence((0, 1, 2, 3, 4), (-1, -1, -1, 1, 1))
    assert sequence_to_operator(up).factors == (
        (0, ANNIHILATE),
        (1, ANNIHILATE),
        (2, ANNIHILATE),
        (3, CREATE),
        (4, CREATE),
    )


def test_2d_constant_is_product_of_creations():
    lat = Lattice.torus(4, 4)
    r_plus = rect_constant_sequence(lat, 0, 0, 3, 3, 1)
    op = sequence_to_operator(r_plus)
    assert all(kind == CREATE for _, kind in op.factors)
    assert len(op.factors) == 9


def test_sign_sigma_values():
    assert sign_sigma(0, 1) == 3
    assert sign_sigma(0, 2) == 10
    assert sign_sigma(1, 4) == 21


def test_adjoint_of_triple_annihilation():
    basis = enumerate_basis(Lattice.chain(0, 2))
    f = ConservedSequence((0, 1, 2), (-1, -1, -1))
    op = monomial_to_sparse(sequence_to_operator(f), basis)
    neg = monomial_to_sparse(sequence_to_operator(-f), basis)
    assert (op.adjoint() + neg).is_zero()  # (a0 a1 a2)* = -a0* a1* a2*


def test_adjoint_identity_all_tables():
    basis = enumerate_basis(Lattice.chain(0, 6))
    for l, rows in reference_interval_tables().items():
        for f in rows:
            assert adjoint_identity_check(f, basis)


@pytest.mark.parametrize("shift", [0, 1], ids=["sigma", "wrong-sign"])
def test_adjoint_identity_agrees_with_the_matrix_on_every_interval(shift, monkeypatch):
    # the check decides Q(f)* == (-1)**sigma Q(-f) on normal forms; the
    # matrices are the oracle, for the right sign and for the wrong one
    monkeypatch.setattr(ch, "sign_sigma", lambda k, l: (2 * (l - k) + 1) * (l - k) + shift)
    basis = enumerate_basis(Lattice.chain(0, 8))
    seqs = [f for d in range(1, 5) for f in enumerate_hat_xi(0, d)]
    assert len(seqs) == 2 + 6 + 18 + 54
    for f in seqs:
        sign = -1 if ch.sign_sigma(0, (len(f) - 1) // 2) % 2 else 1
        op = monomial_to_sparse(sequence_to_operator(f), basis)
        neg = monomial_to_sparse(sequence_to_operator(-f), basis)
        assert adjoint_identity_check(f, basis) == (op.adjoint() - sign * neg).is_zero()
        assert adjoint_identity_check(f, basis) == (shift == 0)


def _all_subinterval_sequences(lo, hi):
    seqs = []
    for k in range(lo // 2, hi // 2):
        for l in range(k + 1, hi // 2 + 1):
            seqs.extend(enumerate_hat_xi(k, l))
    return seqs


def test_anticommutator_dichotomy_exhaustive():
    # 9-site chain: anticommutators vanish whenever the overlap rule fails
    lat = Lattice.chain(0, 8)
    basis = enumerate_basis(lat)
    seqs = _all_subinterval_sequences(0, 8)
    mats = [monomial_to_sparse(sequence_to_operator(f), basis) for f in seqs]
    checked = nonzero_allowed = 0
    for i in range(len(seqs)):
        assert (mats[i] @ mats[i]).is_zero()  # nilpotency of every charge
        for j in range(i, len(seqs)):
            ac = anticommutator(mats[i], mats[j]).max_abs()
            # the term route decides what the matrices do
            assert (anticommute_check(seqs[i], seqs[j], basis) == 0) == (ac == 0)
            if overlap_allows_nonzero(seqs[i], seqs[j]):
                nonzero_allowed += 1
            else:
                assert ac == 0
            checked += 1
    assert checked == len(seqs) * (len(seqs) + 1) // 2
    assert nonzero_allowed > 0


def test_disjoint_supports_anticommute():
    basis = enumerate_basis(Lattice.chain(0, 8))
    f = enumerate_hat_xi(0, 1)[0]
    g = ConservedSequence((4, 5, 6, 7, 8), (1, 1, 1, 1, 1))
    assert anticommute_check(f, g, basis) == 0


def test_opposite_sequences_can_fail_to_anticommute():
    basis = enumerate_basis(Lattice.chain(0, 2))
    f = ConservedSequence((0, 1, 2), (-1, -1, -1))
    assert anticommute_check(f, -f, basis) != 0


@pytest.mark.parametrize("m", [2, 3])
def test_conservation_exact_on_rings(m, ring):
    ctx = ring(m)
    seqs = all_embeddable_sequences(ctx.lattice) + enumerate_ring_sequences(ctx.lattice)
    for f in seqs:
        assert conservation_check(ctx, f) == 0
        assert vanishing_triple_products(ctx, f) == 0


def test_ring_sequences_anticommute_with_supercharge(ring):
    ctx = ring(2)
    for f in enumerate_ring_sequences(ctx.lattice):
        qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
        assert anticommutator(ctx.q, qf).is_zero()
        assert anticommutator(ctx.q.adjoint(), qf).is_zero()


def test_edge_condition_violations_break_conservation(ring):
    hits = total = 0
    for m in (2, 4):
        ctx = ring(m)
        rng = np.random.default_rng(7)
        for f in sample_edge_violating_sequences(ctx.lattice, 60, rng):
            total += 1
            if conservation_check(ctx, f) != 0:
                hits += 1
    assert hits / total >= 0.95


def test_conservation_check_rejects_bad_supports(ring):
    ctx = ring(2)
    # not an arc of this ring
    with pytest.raises(ValueError):
        conservation_check(ctx, ConservedSequence((0, 1, 9), (1, 1, 1)))
    # odd endpoints
    with pytest.raises(ValueError):
        conservation_check(ctx, ConservedSequence((-1, 0, 1), (1, 1, 1)))
    # support as long as the whole ring but marked open
    with pytest.raises(ValueError):
        conservation_check(
            ctx, ConservedSequence(ctx.lattice.sites, (1,) * 6)
        )


def test_arc_sequences_validation(ring):
    lat = ring(2).lattice
    with pytest.raises(ValueError):
        arc_sequences(lat, 1, 1)  # odd start
    with pytest.raises(ValueError):
        arc_sequences(lat, 0, 3)  # would cover the full ring
    arcs = arc_sequences(lat, 2, 1)
    assert arcs[0].sites == (2, -3, -2)  # wrapped arc


def test_independence_generators_alone():
    lat = Lattice.chain(0, 4)
    basis = enumerate_basis(lat)
    seqs = enumerate_hat_xi(0, 1) + enumerate_hat_xi(0, 2)
    ops = [monomial_to_sparse(sequence_to_operator(f), basis) for f in seqs]
    report = independence_probe(ops, max_degree=1)
    assert report.generator_count == 8
    assert report.generator_rank == 8
    assert not report.dependencies_found


def test_independence_single_generator():
    basis = enumerate_basis(Lattice.chain(0, 2))
    op = monomial_to_sparse(sequence_to_operator(enumerate_hat_xi(0, 1)[0]), basis)
    report = independence_probe([op], max_degree=1)
    assert report.generator_rank == 1


def test_independence_products_become_dependent():
    lat = Lattice.chain(0, 6)
    basis = enumerate_basis(lat)
    seqs = (
        enumerate_hat_xi(0, 1) + enumerate_hat_xi(0, 2) + enumerate_hat_xi(0, 3)
    )
    ops = [monomial_to_sparse(sequence_to_operator(f), basis) for f in seqs]
    report = independence_probe(ops, max_degree=2)
    assert report.generator_rank == report.generator_count == 26
    assert report.dependencies_found


def test_anticommutator_dichotomy_on_ring_arcs_and_full_rings():
    # every pair of the ring m=2 catalogue, wrapped arcs and full-ring
    # sequences alike: {Q(f), Q(g)} != 0 exactly when the overlap rule
    # allows it, on the terms and on the matrices
    lat = Lattice.ring(2)
    basis = enumerate_basis(lat)
    seqs = lattice_sequences(lat)
    assert any(len(set(f.sites)) == 3 and f.sites != tuple(sorted(f.sites)) for f in seqs)
    assert any(f.closed for f in seqs)
    mats = [monomial_to_sparse(sequence_to_operator(f), basis) for f in seqs]
    nonzero = 0
    for i, j in itertools.combinations_with_replacement(range(len(seqs)), 2):
        term = anticommute_check(seqs[i], seqs[j], basis)
        assert (term != 0) == overlap_allows_nonzero(seqs[i], seqs[j])
        assert (term != 0) == (not anticommutator(mats[i], mats[j]).is_zero())
        nonzero += term != 0
    assert nonzero > 0


def _triple_products(spec, f):
    """The matrices of ``Q(f) m`` and ``m Q(f)`` for every elementary charge
    ``q`` that meets the support of ``f`` and ``m`` in ``q, q*``."""
    qf = monomial_to_sparse(sequence_to_operator(f), spec.basis)
    for q in spec.q_sum.terms:
        if q.support & set(f.sites):
            qm = monomial_to_sparse(q, spec.basis)
            for m in (qm, qm.adjoint()):
                yield qf @ m
                yield m @ qf


@pytest.mark.parametrize("m", [1, 2, 3])
def test_triple_products_agree_with_their_matrices(m):
    # conserved sequences, edge violations and forbidden patterns: the term
    # route is zero exactly when every product's matrix is
    spec = ModelSpec.ring(m)
    lat = spec.lattice
    rng = np.random.default_rng(m)
    forbidden = [
        ConservedSequence(sites, (1, 1, -1, 1) + (1,) * (len(sites) - 4))
        for sites in sorted({f.sites for f in all_embeddable_sequences(lat) if len(f) >= 5})
    ]
    assert not any(map(is_permitted, forbidden))
    verdicts = []
    for f in lattice_sequences(lat) + sample_edge_violating_sequences(lat, 20, rng) + forbidden:
        zero = all(p.is_zero() for p in _triple_products(spec, f))
        assert (vanishing_triple_products(spec, f) == 0) == zero
        verdicts.append(zero)
    assert any(verdicts) and not all(verdicts)


def test_charge_algebra_checks_build_no_matrix(monkeypatch):
    built = []
    for mod in (nicolai.fock, nicolai.model):
        original = mod.terms_to_sparse

        def counted(*args, _fn=original):
            built.append(args)
            return _fn(*args)

        monkeypatch.setattr(mod, "terms_to_sparse", counted)
    spec = ModelSpec.ring(3)
    for f in lattice_sequences(spec.lattice):
        assert vanishing_triple_products(spec, f) == 0
    basis = enumerate_basis(Lattice.chain(0, 4))
    for f in enumerate_hat_xi(0, 2):
        assert adjoint_identity_check(f, basis)
        assert anticommute_check(f, -f, basis) != 0
    assert not built
    # no Fock basis either: the spec built none
    assert "basis" not in vars(spec)


def test_charge_algebra_checks_reject_a_site_outside_the_lattice():
    basis = enumerate_basis(Lattice.chain(0, 2))
    outside = ConservedSequence((2, 3, 4), (1, 1, 1))
    inside = ConservedSequence((0, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="outside the lattice"):
        adjoint_identity_check(outside, basis)
    for f, g in ((outside, inside), (inside, outside)):
        with pytest.raises(ValueError, match="outside the lattice"):
            anticommute_check(f, g, basis)


def test_rectangle_sequences_contain_constants():
    lat = Lattice.torus(4, 4)
    seqs = enumerate_rectangle_sequences(lat, 0, 0, 3, 3)
    patterns = {s.values for s in seqs}
    assert (1,) * 9 in patterns and (-1,) * 9 in patterns
    for s in seqs:
        assert is_permitted(s) and has_edge_conditions(s)


def test_2d_constants_conserved_on_torus():
    spec = ModelSpec.torus(4, 4)
    basis = enumerate_basis(spec.lattice)
    h = build_hamiltonian_susy(build_supercharge(spec), basis)
    for x0, y0 in ((0, 0), (0, 2), (2, 0), (2, 2)):
        for val in (-1, 1):
            seq = rect_constant_sequence(spec.lattice, x0, y0, 3, 3, val)
            assert conservation_check(spec, seq) == 0
    from nicolai.fock import commutator

    for val in (-1, 1):
        seq = torus_constant_sequence(spec.lattice, val)
        qf = monomial_to_sparse(sequence_to_operator(seq), basis)
        assert commutator(h, qf).is_zero()


def test_2d_forbidden_cross_detection():
    lat = Lattice.torus(4, 4)
    values = {s: -1 for s in lat.sites}
    values[(0, 0)] = 1
    seq = ConservedSequence(
        lat.sites, tuple(values[s] for s in lat.sites), closed=True, shape=(4, 4)
    )
    assert not is_permitted(seq)  # center +1 with all four arms -1


def test_sequence_serialization():
    f = enumerate_hat_xi(0, 1)[1]
    assert f.to_json_obj() == [
        {"site": 0, "value": 1},
        {"site": 1, "value": 1},
        {"site": 2, "value": 1},
    ]
    lat = Lattice.torus(4, 4)
    r = rect_constant_sequence(lat, 0, 0, 3, 3, -1)
    assert r.to_json_obj()[0] == {"site": [0, 0], "value": -1}


def test_lattice_sequences_catalogue():
    ring = Lattice.ring(2)
    assert lattice_sequences(ring) == all_embeddable_sequences(ring) + enumerate_ring_sequences(
        ring
    )
    assert len(lattice_sequences(Lattice.ring(5))) == 2182
    chain = Lattice.chain(0, 6)
    # per interval length, every even start that fits
    assert lattice_sequences(chain) == [
        f for d in range(1, 4) for k in range(4 - d) for f in enumerate_hat_xi(k, k + d)
    ]
    torus = Lattice.torus(4, 4)
    rects = [
        rect_constant_sequence(torus, x0, y0, 3, 3, val)
        for x0, y0 in ((0, 0), (0, 2), (2, 0), (2, 2))
        for val in (-1, 1)
    ]
    assert lattice_sequences(torus) == rects + [
        torus_constant_sequence(torus, val) for val in (-1, 1)
    ]
    with pytest.raises(ValueError):
        lattice_sequences(Lattice.rectangle(4, 4))


@pytest.mark.parametrize(
    "letter, accepted",
    [
        (-1, True),
        (1, True),
        (True, True),
        (-1.0, True),
        (1.0, True),
        (np.int64(-1), True),
        (0, False),
        (2, False),
        (0.5, False),
        (float("nan"), False),
        ("1", False),
        (None, False),
    ],
)
def test_sequence_letters(letter, accepted):
    if accepted:
        assert ConservedSequence((0, 1, 2), (1, letter, 1)).values[1] == letter
    else:
        with pytest.raises(ValueError):
            ConservedSequence((0, 1, 2), (1, letter, 1))


def shift2(f, lat):
    """``f`` moved two sites along the ring: the value at ``x`` goes to
    ``x + 2``; a closed sequence keeps the ring's sites and rotates."""
    if f.closed:
        return ConservedSequence(f.sites, f.values[-2:] + f.values[:-2], closed=True)
    return ConservedSequence(tuple(lat.wrap(s + 2) for s in f.sites), f.values)


def _shift2_orbit(f, lat):
    orbit = [f]
    while (g := shift2(orbit[-1], lat)) != f:
        orbit.append(g)
    return orbit


def _assert_one_member_per_orbit(kept, catalogue, lat):
    """``kept`` holds exactly one member of each :func:`_shift2_orbit` of
    the ring catalogue: their orbits are disjoint and cover it."""
    orbits = [g for r in kept for g in _shift2_orbit(r, lat)]
    assert len(orbits) == len(set(orbits)) == len(set(catalogue)) == len(catalogue)
    assert set(orbits) == set(catalogue)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_shift2_orbits_of_representatives_reproduce_the_catalogue(m):
    spec = ModelSpec.ring(m)
    lat = spec.lattice
    catalogue = lattice_sequences(lat)
    rows = ch._orbit_rows(spec, ch._member_masks(lat, ch._catalogue(lat))).tolist()
    assert rows == sorted(set(rows))
    _assert_one_member_per_orbit([catalogue[i] for i in rows], catalogue, lat)
    if m == 5:
        assert len(rows) == 372


@pytest.mark.parametrize("m", [2, 3])
def test_shift2_is_the_translation_of_the_charge(m):
    # Q(Tf) is the image of Q(f) under a_x -> a_(x+2), with no extra sign
    lat = Lattice.ring(m)
    basis = enumerate_basis(lat)
    for f in lattice_sequences(lat):
        moved = translate2(OperatorSum((sequence_to_operator(f),)), lat)
        assert moved.to_sparse(basis).equals(
            monomial_to_sparse(sequence_to_operator(shift2(f, lat)), basis)
        )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_sweep_agrees_with_the_full_sweep(m, ring):
    spec = ring(m)
    assert spec.h_translation2_invariant
    catalogue = lattice_sequences(spec.lattice)
    assert conservation_sweep(spec, catalogue) == 0
    assert max(conservation_check(spec, f) for f in catalogue) == 0
    # on violating charges the residual is a property of the orbit
    rng = np.random.default_rng(11)
    for f in sample_edge_violating_sequences(spec.lattice, 20, rng):
        residual = conservation_check(spec, f)
        assert conservation_check(spec, shift2(f, spec.lattice)) == residual
        assert conservation_sweep(spec, catalogue + [f]) == residual


def _masks_of(sequences, lattice):
    """The masks of each sequence through the object producer."""
    return [jordan_wigner_masks(sequence_to_operator(f), lattice) for f in sequences]


def _count_checks(monkeypatch):
    calls = []
    kernel = ch._mask_residuals

    def counted(spec, masks):
        calls.extend(map(tuple, masks.tolist()))
        return kernel(spec, masks)

    monkeypatch.setattr(ch, "_mask_residuals", counted)
    return calls


def test_sweep_checks_one_sequence_per_orbit(monkeypatch):
    rows = _count_checks(monkeypatch)
    assert ch.lattice_sweep(ModelSpec.ring(3)) == (0, 186)
    assert len(rows) == len(set(rows)) == 50
    # without the translation certificate every member row is checked
    rows.clear()
    monkeypatch.setattr(ModelSpec, "h_translation2_invariant", False)
    assert ch.lattice_sweep(ModelSpec.ring(3)) == (0, 186)
    assert len(rows) == len(set(rows)) == 186


def test_sweep_without_the_translation_certificate_checks_every_sequence(monkeypatch):
    spec = ModelSpec.ring(3)
    monkeypatch.setattr(ModelSpec, "h_translation2_invariant", False)
    catalogue = lattice_sequences(spec.lattice)
    lo = spec.lattice.sites[spec.lattice.sites[0] % 2]
    planted = next(
        f
        for f in sample_edge_violating_sequences(spec.lattice, 50, np.random.default_rng(3))
        if f.sites[0] != lo and conservation_check(spec, f) != 0
    )
    calls = _count_checks(monkeypatch)
    assert conservation_sweep(spec, catalogue + [planted]) != 0
    assert sorted(calls) == sorted(_masks_of(catalogue + [planted], spec.lattice))


def test_sweep_validates_every_sequence(ring):
    spec = ring(2)
    catalogue = lattice_sequences(spec.lattice)
    # the translate of a valid arc by an odd amount, and an arc whose sites
    # leave the lattice: no orbit representative may stand in for either
    for bad in (
        ConservedSequence((-1, 0, 1), (1, 1, 1)),
        ConservedSequence((2, 3, 4), (1, 1, 1)),
    ):
        with pytest.raises(ValueError):
            conservation_sweep(spec, catalogue + [bad])


def test_supports_that_repeat_a_site_or_leave_their_rectangle_are_rejected(ring):
    # a closed ring support with one site twice, and 3x3 supports whose nine
    # sites are not the row-major rectangle from their first site
    lat = ring(2).lattice
    repeated = ConservedSequence(lat.sites + lat.sites[:1], (1,) * 6 + (-1,), closed=True)
    torus = ModelSpec.torus(4, 4)
    rect = ch.rectangle_sites(torus.lattice, 0, 0, 3, 3)
    scrambled = [
        ConservedSequence(rect[:-1] + ((3, 3),), (1,) * 9, shape=(3, 3)),
        ConservedSequence(rect[::-1], (1,) * 9, shape=(3, 3)),
        ConservedSequence(rect[:1] + rect[3:6] + rect[1:3] + rect[6:], (1,) * 9, shape=(3, 3)),
    ]
    for spec, f in [(ring(2), repeated)] + [(torus, g) for g in scrambled]:
        for check in (conservation_check, vanishing_triple_products):
            with pytest.raises(ValueError):
                check(spec, f)
        with pytest.raises(ValueError):
            conservation_sweep(spec, lattice_sequences(spec.lattice) + [f])
    assert conservation_sweep(torus, [ConservedSequence(rect, (1,) * 9, shape=(3, 3))]) == 0


def _oracle_cases():
    for m in (1, 2, 3, 4):
        lat = Lattice.ring(m)
        violating = sample_edge_violating_sequences(lat, 20, np.random.default_rng(m))
        yield ModelSpec.ring(m), lattice_sequences(lat) + violating
    for lat in (Lattice.chain(0, 8), Lattice.torus(4, 4)):
        yield ModelSpec(lat), lattice_sequences(lat)


@pytest.mark.parametrize("chunk_entries", [1, 1 << 62], ids=["one-per-chunk", "one-chunk"])
def test_batched_commutator_equals_the_oracle_sequence_by_sequence(chunk_entries, monkeypatch):
    monkeypatch.setattr(ch, "_CHUNK_ENTRIES", chunk_entries)
    runs = []
    chunks = ch._chunks

    def recorded(sizes, dim):
        out = list(chunks(sizes, dim))
        runs.append((len(sizes), out))
        return out

    monkeypatch.setattr(ch, "_chunks", recorded)
    nonzero = 0
    for spec, sequences in _oracle_cases():
        masks = np.array(_masks_of(sequences, spec.lattice), dtype=np.int64)
        got = ch._mask_residuals(spec, masks)
        want = [conservation_check(spec, f) for f in sequences]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert conservation_sweep(spec, sequences) == max(want)
        nonzero += sum(w != 0 for w in want)
    assert nonzero >= 80
    for count, out in runs:
        if chunk_entries == 1:
            assert out == [(q, q + 1) for q in range(count)]
        else:
            assert out == [(0, count)]


def test_packed_keys_fit_in_int64_at_the_largest_verify_dimension():
    # verify peaks at 188 / 657 MB on 2**18 / 2**20 states (ring m=8 / 9),
    # ~3.5x per factor 4, so 2**23 states (a 23-site chain, ~5 GB) is the
    # largest it builds in 7.8 GB; a full chunk's largest key fits in int64
    for dim in (1 << 22, 1 << 23):
        k = ch._max_chunk_sequences(dim)
        top = ((k - 1) * dim + dim - 1) * dim + dim - 1
        assert top <= np.iinfo(np.int64).max
        packed = (np.int64(k - 1) * dim + np.int64(dim - 1)) * dim + np.int64(dim - 1)
        assert int(packed) == top
    with pytest.raises(OverflowError):
        ch._max_chunk_sequences(1 << 32)


def test_pair_keys_fit_in_int64_or_raise():
    # S << n | P takes 2n bits: 31 sites fill 62, 32 sites would need 64
    full = np.int64((1 << 31) - 1)
    assert int(ch._pair_keys(full, full, 31)) == (1 << 62) - 1
    with pytest.raises(OverflowError):
        ch._pair_keys(np.int64(1), np.int64(0), 32)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_catalogue_rows_expand_to_the_lattice_sequences(m):
    lat = Lattice.ring(m)
    blocks = ch._catalogue(lat)
    starts = sorted(s for s in lat.sites if s % 2 == 0)
    for d, (supports, _, shape) in enumerate(blocks[:-1], 1):
        assert shape is None
        assert supports == [tuple(lat.wrap(s + j) for j in range(2 * d + 1)) for s in starts]
    assert blocks[-1][0] == [lat.sites]
    expanded = [
        ConservedSequence(sites, tuple(v), closed=sites == lat.sites)
        for supports, words, _ in blocks
        for sites in supports
        for v in words.tolist()
    ]
    assert expanded == all_embeddable_sequences(lat) + enumerate_ring_sequences(lat)
    assert expanded == lattice_sequences(lat)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_catalogue_masks_are_the_masks_of_the_orbit_representatives(m):
    # even m puts the first site of the ring on an odd label (m=6: -7)
    lat = Lattice.ring(m)
    assert lat.sites[0] % 2 == (m + 1) % 2
    blocks = ch._catalogue(lat)
    catalogue = lattice_sequences(lat)
    # every member, in order, against the object path
    got = ch._member_masks(lat, blocks)
    assert got.dtype == np.int64
    assert list(map(tuple, got.tolist())) == _masks_of(catalogue, lat)
    assert ch._member_labels(lat, blocks) == [f.label() for f in catalogue]
    # the rows the sweep keeps: one member per shift-by-2 orbit
    rows = ch._orbit_rows(ModelSpec(lat), got).tolist()
    kept = [catalogue[i] for i in rows]
    assert list(map(tuple, got[rows].tolist())) == _masks_of(kept, lat)
    _assert_one_member_per_orbit(kept, catalogue, lat)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_catalogue_residual_equals_the_oracle(m, ring):
    spec = ring(m)
    catalogue = lattice_sequences(spec.lattice)
    want = max(conservation_check(spec, f) for f in catalogue)
    assert ch.lattice_sweep(spec) == (want, len(catalogue)) == (0, len(catalogue))
    # the array producer on rows that break a boundary pair: nonzero
    # residuals, each equal to the oracle's
    violating = sample_edge_violating_sequences(spec.lattice, 20, np.random.default_rng(m))
    for f in violating:
        masks = ch._row_masks(spec.lattice, f.sites, np.array([f.values], dtype=np.int8))
        assert ch._mask_residuals(spec, masks).tolist() == [conservation_check(spec, f)]
    assert any(conservation_check(spec, f) for f in violating)


@pytest.mark.parametrize(
    "lattice",
    [Lattice.chain(0, 8), Lattice.chain(0, 10), Lattice.torus(4, 4)],
    ids=["chain9", "chain11", "torus4x4"],
)
def test_chain_and_torus_catalogues_equal_the_oracle_member_by_member(lattice):
    spec = ModelSpec(lattice)
    # built without the catalogue: the intervals [2k, 2l] of the chain, the
    # constant sequences of the torus
    if lattice.dimension == 1:
        top = lattice.sites[-1] // 2
        pairs = [(k, l) for k in range(top) for l in range(k + 1, top + 1)]
        catalogue = [f for k, l in pairs for f in enumerate_hat_xi(k, l)]
    else:
        origins = ((0, 0), (0, 2), (2, 0), (2, 2))
        catalogue = [
            rect_constant_sequence(lattice, *o, 3, 3, v) for o in origins for v in (-1, 1)
        ]
        catalogue += [torus_constant_sequence(lattice, v) for v in (-1, 1)]
    assert sorted(catalogue, key=ConservedSequence.label) == sorted(
        lattice_sequences(lattice), key=ConservedSequence.label
    )
    blocks = ch._catalogue(lattice)
    labels = ch._member_labels(lattice, blocks)
    masks = ch._member_masks(lattice, blocks)
    assert len(labels) == len(set(labels)) == len(catalogue)
    by_label = {f.label(): f for f in catalogue}
    assert set(labels) == set(by_label)
    assert list(map(tuple, masks.tolist())) == _masks_of([by_label[k] for k in labels], lattice)
    got = dict(zip(labels, ch._mask_residuals(spec, masks).tolist()))
    want = {label: conservation_check(spec, f) for label, f in by_label.items()}
    assert got == want
    assert ch.lattice_sweep(spec) == (max(want.values()), len(catalogue)) == (0, len(catalogue))


def _torus_orbits(masks) -> list:
    """The orbit of each torus constant's masks under the x and y shifts by
    two: its support size (rectangle or whole torus) and its value (``P ==
    S`` for -1, ``P == 0`` for +1)."""
    return [(s.bit_count(), p == s) for s, p, *_ in masks]


def _assert_every_member_covered(calls, members, lat):
    """A chain has no shift, so every member is checked. On a torus the
    shifts move the (w-1) x (h-1) rectangles onto each other and fix the two
    torus constants: one member per orbit is checked (4 of 10 on 4x4), and
    the orbits of the checked members cover every member."""
    if lat.dimension == 1:
        assert sorted(calls) == sorted(members)
    else:
        assert len(calls) == 4 < len(members) == 10
        assert set(calls) <= set(members)
        assert sorted(_torus_orbits(calls)) == sorted(set(_torus_orbits(members)))


def test_lattice_sweep_checks_every_member_of_chains_and_tori(monkeypatch):
    calls = _count_checks(monkeypatch)
    for spec in (ModelSpec.chain(0, 8), ModelSpec.torus(4, 4)):
        catalogue = lattice_sequences(spec.lattice)
        calls.clear()
        assert ch.lattice_sweep(spec) == (0, len(catalogue))
        _assert_every_member_covered(calls, _masks_of(catalogue, spec.lattice), spec.lattice)
    # 4 of 14 on the 4x6 torus, whose H is not built
    spec = ModelSpec.torus(4, 6)
    masks = ch._member_masks(spec.lattice, ch._catalogue(spec.lattice))
    rows = ch._orbit_rows(spec, masks)
    assert (len(rows), len(masks)) == (4, 14)
    kept = _torus_orbits(masks[rows].tolist())
    assert sorted(kept) == sorted(set(_torus_orbits(masks.tolist())))


@pytest.mark.parametrize("lattice", [Lattice.chain(0, 8), Lattice.torus(4, 4)])
def test_sweep_keeps_the_full_sweep_on_chains_and_tori(lattice, monkeypatch):
    spec = ModelSpec(lattice)
    catalogue = lattice_sequences(lattice)
    calls = _count_checks(monkeypatch)
    assert conservation_sweep(spec, catalogue) == 0
    _assert_every_member_covered(calls, _masks_of(catalogue, lattice), lattice)


@pytest.mark.parametrize("lattice", [Lattice.ring(3), Lattice.torus(4, 4)], ids=["ring3", "torus4x4"])
def test_with_no_certified_shift_every_member_is_checked(lattice, monkeypatch):
    spec = ModelSpec(lattice)
    spec.__dict__["q_sum"] = OperatorSum(spec.q_sum.terms[1:])  # cached_property slot
    assert spec.shifts == ()
    catalogue = lattice_sequences(lattice)
    calls = _count_checks(monkeypatch)
    residual, count = ch.lattice_sweep(spec)
    assert count == len(catalogue)
    assert sorted(calls) == sorted(_masks_of(catalogue, lattice))
    assert residual == max(conservation_check(spec, f) for f in catalogue)


def test_orbit_sweeps_return_the_full_sweep_on_planted_rows(planted_arc, monkeypatch):
    # the planted arc ++- sits at every even start of the ring: one orbit
    spec = ModelSpec.ring(3)
    catalogue = lattice_sequences(spec.lattice)
    assert sum(f.values == planted_arc.values for f in catalogue) == 4
    want = max(conservation_check(spec, f) for f in catalogue)
    assert want != 0
    assert ch.lattice_sweep(spec) == (want, len(catalogue))
    # a 3x3 row whose corner breaks a pair-line, at every even-even origin
    # of the torus: one more orbit, whose one checked member gives the full
    # sweep's residual
    torus = ModelSpec.torus(4, 4)
    lat = torus.lattice
    values = (-1,) + (1,) * 8
    planted = [
        ConservedSequence(ch.rectangle_sites(lat, x, y, 3, 3), values, shape=(3, 3))
        for x in (0, 2)
        for y in (0, 2)
    ]
    residuals = [conservation_check(torus, f) for f in planted]
    assert len(set(residuals)) == 1 and residuals[0] != 0
    calls = _count_checks(monkeypatch)
    assert conservation_sweep(torus, lattice_sequences(lat) + planted) == residuals[0]
    assert len(calls) == 5


def test_chain_block_with_planted_edge_violations():
    spec = ModelSpec.chain(0, 10)
    lat = spec.lattice
    supports, words, shape = ch._catalogue(lat)[1]
    assert [sites[0] for sites in supports] == [0, 2, 4, 6]
    # permitted rows whose right (first) or left (second) pair is not constant
    planted = np.vstack((words, [(-1, -1, -1, -1, 1), (1, -1, -1, 1, 1)])).astype(np.int8)
    for row in planted[-2:].tolist():
        f = ConservedSequence(supports[0], tuple(row))
        assert is_permitted(f) and not has_edge_conditions(f)
    block = (supports, planted, shape)
    with pytest.raises(ValueError, match="boundary-pair"):
        ch._validate_blocks(lat, [block])
    sequences = [ConservedSequence(s, tuple(v)) for s in supports for v in planted.tolist()]
    got = ch._mask_residuals(spec, ch._member_masks(lat, [block])).tolist()
    want = [conservation_check(spec, f) for f in sequences]
    assert got == want and any(want)
    # the object sweep applies no grammar check: the residual comes back
    assert conservation_sweep(spec, sequences) == max(want)


def _planted(rows, index, row):
    rows = rows.copy()
    rows[index] = row
    return rows


def _with_words(blocks, index, words):
    blocks = list(blocks)
    supports, _, shape = blocks[index]
    blocks[index] = (supports, words, shape)
    return blocks


def test_vectorized_validation_rejects_planted_rows():
    lat = Lattice.ring(3)
    blocks = ch._catalogue(lat)
    d1, d2, ring_words = blocks[0][1], blocks[1][1], blocks[-1][1]
    # permitted, but the right boundary pair is not constant
    tie = (-1, -1, -1, -1, 1)
    # the even-centered triple at word positions 1..3 reads + - +
    triple = (-1, 1, -1, 1, 1)
    # the wrapped triple (last, first, second) of the full ring reads + - +
    wrapped = (-1, 1, 1, 1, 1, 1, 1, 1)
    cases = [
        ("boundary-pair", _with_words(blocks, 1, _planted(d2, 0, tie))),
        ("forbidden", _with_words(blocks, 1, _planted(d2, 3, triple))),
        ("forbidden", _with_words(blocks, -1, _planted(ring_words, 0, wrapped))),
        ("-1 or \\+1", _with_words(blocks, 1, _planted(d2, 0, (0, 0, 1, 1, 1)))),
        ("values on", _with_words(_with_words(blocks, 0, d2), 1, d1)),
    ]
    for match, planted in cases:
        with pytest.raises(ValueError, match=match):
            ch._validate_blocks(lat, planted)
    odd = [
        ([tuple(lat.wrap(s + 1) for s in sites) for sites in supports], words, shape)
        for supports, words, shape in blocks[:-1]
    ]
    with pytest.raises(ValueError, match="even sites"):
        ch._validate_blocks(lat, odd + blocks[-1:])
    assert is_permitted(ConservedSequence(tuple(range(5)), tie))
    assert not has_edge_conditions(ConservedSequence(tuple(range(5)), tie))
