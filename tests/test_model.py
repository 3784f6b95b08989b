import json

import numpy as np
import pytest

from nicolai import (
    ANNIHILATE,
    CREATE,
    FermionMonomial,
    Lattice,
    ModelSpec,
    OperatorSum,
    SparseOperator,
    anticommutator,
    build_h_classical,
    build_h_hop,
    build_hamiltonian_explicit,
    build_hamiltonian_susy,
    build_supercharge,
    commutator,
    enumerate_basis,
    local_charge_1d,
    local_charge_2d,
    monomial_to_sparse,
    number_operator,
    particle_hole,
    parity_operator,
    translate2,
)
from nicolai.dynamics import _canonical
from nicolai.model import forbidden_triple_projector


def test_local_charge_factor_order():
    lat = Lattice.chain(-2, 2)
    q = local_charge_1d(0, lat)
    assert q.factors == ((1, ANNIHILATE), (0, CREATE), (-1, ANNIHILATE))
    assert q.coefficient == 1
    assert q.adjoint().factors == ((-1, CREATE), (0, ANNIHILATE), (1, CREATE))


def test_local_charge_wraps_on_ring():
    lat = Lattice.ring(2)
    q = local_charge_1d(1, lat)
    assert {s for s, _ in q.factors} == {1, 2, -3}


def test_local_charge_outside_chain():
    lat = Lattice.chain(0, 4)
    with pytest.raises(ValueError):
        local_charge_1d(0, lat)  # needs site -1


def test_supercharge_term_counts():
    assert len(build_supercharge(ModelSpec.ring(2))) == 3
    assert len(build_supercharge(ModelSpec.torus(4, 4))) == 4
    assert len(build_supercharge(ModelSpec.chain(0, 6))) == 2  # centers 2 and 4


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_nilpotency_rings(m, ring):
    ctx = ring(m)
    assert (ctx.q @ ctx.q).is_zero()
    qd = ctx.q.adjoint()
    assert (qd @ qd).is_zero()


@pytest.mark.parametrize("nsites", [3, 5, 7, 9, 11, 13])
def test_nilpotency_chains(nsites):
    spec = ModelSpec.chain_sites(nsites)
    basis = enumerate_basis(spec.lattice)
    q = build_supercharge(spec).to_sparse(basis)
    assert (q @ q).is_zero()
    assert (q.adjoint() @ q.adjoint()).is_zero()


def test_nilpotency_torus():
    spec = ModelSpec.torus(4, 4)
    basis = enumerate_basis(spec.lattice)
    q = build_supercharge(spec).to_sparse(basis)
    assert (q @ q).is_zero()
    assert (q.adjoint() @ q.adjoint()).is_zero()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hamiltonian_consistency_rings(m, ring):
    ctx = ring(m)
    hx = build_hamiltonian_explicit(ctx).to_sparse(ctx.basis)
    hc = build_h_classical(ctx).to_sparse(ctx.basis)
    hh = build_h_hop(ctx).to_sparse(ctx.basis)
    assert ctx.h.equals(hx)
    assert ctx.h.equals(hc + hh)
    assert ctx.h.dtype == np.int64


@pytest.mark.parametrize("nsites", [5, 7, 9, 13])
def test_hamiltonian_consistency_chains(nsites):
    spec = ModelSpec.chain_sites(nsites)
    basis = enumerate_basis(spec.lattice)
    h = build_hamiltonian_susy(build_supercharge(spec), basis)
    assert h.equals(build_hamiltonian_explicit(spec).to_sparse(basis))
    hc = build_h_classical(spec).to_sparse(basis)
    hh = build_h_hop(spec).to_sparse(basis)
    assert h.equals(hc + hh)


@pytest.mark.parametrize(
    "lattice",
    [Lattice.ring(1), Lattice.ring(4), Lattice.chain(0, 8), Lattice.torus(4, 4)],
    ids=["ring4", "ring10", "chain9", "torus4x4"],
)
def test_h_is_stored_in_canonical_form(lattice):
    # every reader of H takes the stored matrix as it is, with no sorted copy
    spec = ModelSpec(lattice)
    m = spec.h.matrix
    assert m.has_canonical_format and m.data.all()
    assert _canonical(spec.h)[0] is m
    assert spec.h.equals(anticommutator(spec.q, spec.q_dagger))


def _per_term_sum(q, basis) -> SparseOperator:
    """The oracle of the one-pass build: one matrix per term, joined by CSR additions."""
    acc = SparseOperator.zero(basis)
    for t in q.terms:
        acc = acc + monomial_to_sparse(t, basis)
    return acc


@pytest.mark.parametrize(
    "lattice",
    [Lattice.ring(m) for m in range(1, 7)] + [Lattice.chain(0, n - 1) for n in (5, 9, 13)],
    ids=lambda lat: f"{lat.boundary}{lat.nsites}",
)
def test_h_classical_from_bits_equals_the_monomial_sum(lattice, assert_same_csr):
    spec = ModelSpec(lattice)
    want = _per_term_sum(build_h_classical(spec), spec.basis)
    assert want.dtype == np.int64
    assert_same_csr(build_h_classical(spec).to_sparse(spec.basis), want)


def test_h_classical_from_bits_is_one_dimensional():
    with pytest.raises(ValueError):
        build_h_hop(ModelSpec.torus(4, 4))
    with pytest.raises(ValueError):
        build_h_classical(ModelSpec.torus(4, 4))


@pytest.mark.parametrize(
    "spec",
    [ModelSpec.ring(m) for m in range(1, 5)] + [ModelSpec.chain_sites(11), ModelSpec.torus(4, 4)],
    ids=lambda spec: f"{spec.lattice.boundary}{spec.lattice.nsites}",
)
def test_every_verify_sum_equals_its_per_term_sum(spec, assert_same_csr):
    lat, basis = spec.lattice, spec.basis
    sums = {"q": spec.q_sum, "rho_q": particle_hole(spec.q_sum)}
    if lat.periodic:
        sums["tq"] = translate2(spec.q_sum, lat)
    if lat.dimension == 1:
        sums["h_explicit"] = build_hamiltonian_explicit(spec)
        sums["h_classical"] = build_h_classical(spec)
        sums["h_hop"] = build_h_hop(spec)
    for name, q in sums.items():
        want = _per_term_sum(q, basis)
        assert want.dtype == np.int64, name
        assert_same_csr(q.to_sparse(basis), want)


def test_explicit_equals_split_termwise(ring):
    ctx = ring(2)
    lhs = build_hamiltonian_explicit(ctx).normal_form(ctx.lattice)
    rhs = (build_h_classical(ctx) + build_h_hop(ctx)).normal_form(ctx.lattice)
    assert lhs == rhs


def test_classical_part_is_diagonal(ring):
    ctx = ring(3)
    hc = build_h_classical(ctx).to_sparse(ctx.basis)
    assert hc.nnz == np.count_nonzero(hc.diagonal())
    diag = hc.diagonal()
    assert diag.min() >= 0
    assert np.issubdtype(diag.dtype, np.integer)


def test_triple_projector_eigenvalues():
    lat = Lattice.chain(-1, 1)
    basis = enumerate_basis(lat)
    proj = forbidden_triple_projector(-1, 0, 1).to_sparse(basis)
    diag = proj.to_dense().diagonal()
    for state in range(8):
        bits = tuple((state >> r) & 1 for r in range(3))
        expected = 1 if bits in ((0, 1, 0), (1, 0, 1)) else 0
        assert diag[state] == expected
    assert (proj @ proj).equals(proj)


def test_h_commutes_with_supercharge(ring):
    for m in (2, 3):
        ctx = ring(m)
        assert commutator(ctx.h, ctx.q).is_zero()
        assert commutator(ctx.h, ctx.q.adjoint()).is_zero()


def test_susy_positivity_quadratic_form(ring):
    ctx = ring(2)
    rng = np.random.default_rng(0)
    qd = ctx.q.adjoint()
    for _ in range(50):
        v = rng.standard_normal(ctx.basis.dim)
        hv = float(v @ (ctx.h.matrix @ v))
        qv = ctx.q.matrix @ v
        qdv = qd.matrix @ v
        assert hv >= -1e-10
        assert abs(hv - (qv @ qv + qdv @ qdv)) <= 1e-10 * max(1.0, abs(hv))


def test_u1_symmetry(ring):
    for m in (2, 4):
        ctx = ring(m)
        n = number_operator(ctx.lattice, ctx.basis)
        assert commutator(ctx.h, n).is_zero()


def test_translation_by_two_fixes_h(ring):
    ctx = ring(2)
    shifted = translate2(ctx.q_sum, ctx.lattice).to_sparse(ctx.basis)
    assert anticommutator(shifted, shifted.adjoint()).equals(ctx.h)
    hx = build_hamiltonian_explicit(ctx)
    assert translate2(hx, ctx.lattice).to_sparse(ctx.basis).equals(ctx.h)


def test_translation_requires_periodic():
    spec = ModelSpec.chain(0, 6)
    with pytest.raises(ValueError):
        translate2(build_supercharge(spec), spec.lattice)


def test_particle_hole_1d(ring):
    ctx = ring(2)
    rho_q = particle_hole(ctx.q_sum).to_sparse(ctx.basis)
    assert (rho_q + ctx.q.adjoint()).is_zero()  # rho(Q) = -Q*
    rho_h = anticommutator(rho_q, rho_q.adjoint())
    assert rho_h.equals(ctx.h)


def test_particle_hole_2d_sign_flips():
    # five anticommuting factors reverse with sign +1, so rho(Q) = +Q* on tori
    spec = ModelSpec.torus(4, 4)
    basis = enumerate_basis(spec.lattice)
    q_sum = build_supercharge(spec)
    q = q_sum.to_sparse(basis)
    rho_q = particle_hole(q_sum).to_sparse(basis)
    assert (rho_q - q.adjoint()).is_zero()
    assert anticommutator(rho_q, rho_q.adjoint()).equals(
        anticommutator(q, q.adjoint())
    )


def test_supercharge_is_odd(ring):
    ctx = ring(2)
    p = parity_operator(ctx.basis)
    assert (p @ ctx.q @ p + ctx.q).is_zero()


def test_supercharge_changes_particle_number(ring):
    ctx = ring(2)
    n = number_operator(ctx.lattice, ctx.basis)
    # each local charge removes one net particle: [N, Q] = -Q
    assert commutator(n, ctx.q).equals(-1 * ctx.q)


def test_torus_charge_factor_order():
    lat = Lattice.torus(4, 4)
    q = local_charge_2d(0, 0, lat)
    assert q.factors == (
        ((3, 0), ANNIHILATE),
        ((0, 3), ANNIHILATE),
        ((0, 0), CREATE),
        ((1, 0), ANNIHILATE),
        ((0, 1), ANNIHILATE),
    )


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec.chain(0, 5)  # odd endpoint
    with pytest.raises(ValueError):
        ModelSpec.chain_sites(8)
    with pytest.raises(ValueError):
        ModelSpec.torus(2, 4)  # cross sites collide
    with pytest.raises(ValueError):
        ModelSpec.torus(4, 5)
    with pytest.raises(ValueError):
        ModelSpec.from_json(ModelSpec.ring(2).to_json().replace("nicolai-1d", "nicolai-2d"))


def test_modelspec_is_its_lattice():
    assert ModelSpec(Lattice.ring(2)) == ModelSpec.ring(2)
    assert ModelSpec.ring(2).variant == ModelSpec.chain(0, 4).variant == "nicolai-1d"
    assert ModelSpec.torus(4, 4).variant == "nicolai-2d"
    with pytest.raises(ValueError):
        ModelSpec(Lattice.rectangle(4, 4))  # the 2D model lives on tori
    blob = json.loads(ModelSpec.torus(4, 4).to_json())
    for variant in ("nicolai-1d", "nicolai-3d"):
        with pytest.raises(ValueError):
            ModelSpec.from_json(json.dumps({**blob, "variant": variant}))


def test_modelspec_json_roundtrip():
    for spec in (ModelSpec.ring(3), ModelSpec.chain(0, 8), ModelSpec.torus(4, 4)):
        blob = spec.to_json()
        assert ModelSpec.from_json(blob) == spec
        data = json.loads(blob)
        assert set(data) == {"dimension", "extent", "boundary", "variant"}


def test_explicit_requires_1d():
    with pytest.raises(ValueError):
        build_hamiltonian_explicit(ModelSpec.torus(4, 4))
    with pytest.raises(ValueError):
        build_h_classical(ModelSpec.torus(4, 4))


def test_open_chain_truncation_edge_structure():
    # chain [0, 8] keeps centers 2, 4, 6 and the adjacent pairs (2,4), (4,6)
    spec = ModelSpec.chain(0, 8)
    assert len(build_supercharge(spec)) == 3
    assert len(build_h_hop(spec)) == 4  # two monomials per adjacent pair


@pytest.mark.parametrize(
    "spec", [ModelSpec.ring(2), ModelSpec.torus(4, 4)], ids=["ring2", "torus4x4"]
)
def test_integer_builders_stay_int64(spec):
    lat = spec.lattice
    basis = enumerate_basis(lat)
    q = build_supercharge(spec)
    ops = {
        "supercharge": q.to_sparse(basis),
        "h_susy": build_hamiltonian_susy(q, basis),
        "number": number_operator(lat, basis),
        "parity": parity_operator(basis),
    }
    if spec.variant == "nicolai-1d":
        ops["h_explicit"] = build_hamiltonian_explicit(spec).to_sparse(basis)
        ops["h_classical"] = build_h_classical(spec).to_sparse(basis)
        ops["h_hop"] = build_h_hop(spec).to_sparse(basis)
    assert {k: op.matrix.dtype for k, op in ops.items()} == {k: np.int64 for k in ops}


# The oracle below spells every charge and hop term with its own wrap
# arithmetic; the builders read their sites off grammar.hoods.
_TERM_LATTICES = {
    **{f"ring{m}": Lattice.ring(m) for m in range(1, 6)},
    **{f"chain{n}": Lattice.chain(0, n - 1) for n in (5, 11, 13)},
    **{f"torus{w}x{h}": Lattice.torus(w, h) for w, h in ((4, 4), (4, 6), (6, 4))},
}


def _spelled_centers(lat):
    """Even sites whose triple (c-1, c, c+1) fits in the lattice, ascending."""
    return [
        c
        for c in lat.sites
        if c % 2 == 0 and lat.contains(lat.wrap(c - 1)) and lat.contains(lat.wrap(c + 1))
    ]


def _spelled_charges(lat):
    """q(2i) = a(2i+1) a*(2i) a(2i-1) per supported even center, or the cross
    a(x-1,y) a(x,y-1) a*(x,y) a(x+1,y) a(x,y+1) per even-even site, row-major."""
    if lat.dimension == 1:
        return [
            FermionMonomial(
                1, ((lat.wrap(c + 1), ANNIHILATE), (c, CREATE), (lat.wrap(c - 1), ANNIHILATE))
            )
            for c in _spelled_centers(lat)
        ]
    return [
        FermionMonomial(
            1,
            (
                (lat.wrap((x - 1, y)), ANNIHILATE),
                (lat.wrap((x, y - 1)), ANNIHILATE),
                ((x, y), CREATE),
                (lat.wrap((x + 1, y)), ANNIHILATE),
                (lat.wrap((x, y + 1)), ANNIHILATE),
            ),
        )
        for x, y in lat.sites
        if x % 2 == 0 and y % 2 == 0
    ]


def _spelled_hops(lat):
    """a*(c) a(c-1) a(c+2) a*(c+3) + a*(c-1) a(c) a(c+3) a*(c+2) per pair of
    supported centers (c, c+2), by ascending c."""
    centers = _spelled_centers(lat)
    out = []
    for c in centers:
        l, c2, r2 = lat.wrap(c - 1), lat.wrap(c + 2), lat.wrap(c + 3)
        if c2 in centers:
            out += [
                FermionMonomial(1, ((c, CREATE), (l, ANNIHILATE), (c2, ANNIHILATE), (r2, CREATE))),
                FermionMonomial(1, ((l, CREATE), (c, ANNIHILATE), (r2, ANNIHILATE), (c2, CREATE))),
            ]
    return out


@pytest.mark.parametrize("lat", _TERM_LATTICES.values(), ids=_TERM_LATTICES.keys())
def test_terms_equal_the_spelled_charges_and_hops(lat):
    spec = ModelSpec(lat)
    assert build_supercharge(spec).terms == tuple(_spelled_charges(lat))
    if lat.dimension == 1:
        hops = tuple(_spelled_hops(lat))
        assert build_h_hop(spec).terms == hops
        explicit = build_hamiltonian_explicit(spec).terms
        assert explicit[len(explicit) - len(hops):] == hops


def _with_q_sum(lattice, terms):
    """A model whose Q is the given terms, so Q, H and the certificate follow them."""
    spec = ModelSpec(lattice)
    spec.__dict__["q_sum"] = OperatorSum(tuple(terms))  # cached_property slot
    return spec


def _matrix_certificate(spec):
    """The oracle: {TQ, (TQ)*} == H as int64 matrices."""
    tq = translate2(spec.q_sum, spec.lattice).to_sparse(spec.basis)
    return anticommutator(tq, tq.adjoint()).equals(spec.h)


_CERTIFIED = {
    **{f"ring{m}": (Lattice.ring, m) for m in range(1, 7)},
    **{f"torus{w}x{h}": (Lattice.torus, w, h) for w, h in ((4, 4), (4, 6), (6, 4))},
}


@pytest.mark.parametrize("make", _CERTIFIED.values(), ids=_CERTIFIED.keys())
def test_term_certificate_agrees_with_the_matrix_identity(make):
    lat = make[0](*make[1:])  # built here, so each case frees its matrices
    spec = ModelSpec(lat)
    assert spec.h_translation2_invariant and _matrix_certificate(spec)
    if lat.nsites > 16:
        return  # each mutant below costs two more 2**24-state builds
    terms = spec.q_sum.terms
    for mutant in (terms[1:], (terms[0].scaled(-1),) + terms[1:]):
        spec = _with_q_sum(lat, mutant)
        if lat.nsites == 4 and len(mutant) == len(terms):
            # on the 4-site ring T swaps the two charges, so T(Q') = -Q' and
            # {Q', Q'*} is still fixed: the term identity is the stronger one
            assert not spec.h_translation2_invariant and _matrix_certificate(spec)
            continue
        assert not spec.h_translation2_invariant
        assert not _matrix_certificate(spec)


def test_local_charge_2d_refuses_a_torus_too_small():
    with pytest.raises(ValueError, match="cross sites collide"):
        local_charge_2d(0, 0, Lattice.torus(2, 4))
