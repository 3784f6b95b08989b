import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from nicolai import (
    Configuration,
    Lattice,
    ModelSpec,
    SparseOperator,
    build_h_classical,
    build_h_hop,
    cli,
    config_to_vector,
    dephase,
    diagonalize,
    enumerate_basis,
    enumerate_ground_configs,
    ergodicity_report,
    evolve,
    is_ground_config,
    mazur_gap,
    monomial_to_sparse,
    no_resonance_check,
    number_operator,
    sequence_to_operator,
    time_averaged_autocorrelation,
)
from nicolai.charges import (
    all_embeddable_sequences,
    arc_sequences,
    conservation_check,
    enumerate_ring_sequences,
    has_edge_conditions,
    is_permitted,
    lattice_sequences,
)
from nicolai import charges as ch
from nicolai.fock import hilbert_schmidt_gram, span_dimension
from nicolai.dynamics import (
    ThermalState,
    _dephased_trace_gap,
    _gibbs_gaps,
    _gibbs_weights,
    _trace_gap,
    spectrum_table,
)


def hermitian_charge(ctx, f):
    qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
    return (qf + qf.adjoint()).to_dense().astype(np.float64)


def cluster_projector(spectrum, i):
    s, e = spectrum.clusters[i]
    block = spectrum.vectors[:, s:e].toarray()
    return block @ block.T


def test_diagonalize_zero_hamiltonian():
    basis = enumerate_basis(Lattice.chain(0, 1))
    h = SparseOperator.zero(basis)
    s = diagonalize(h)
    assert s.n_clusters == 1
    assert np.allclose(s.eigenvalues, 0.0)
    assert np.allclose(cluster_projector(s, 0), np.eye(4), atol=1e-12)


def test_diagonalize_rejects_asymmetric():
    basis = enumerate_basis(Lattice.chain(0, 1))
    m = sp.csr_matrix(np.array([[0, 1, 0, 0]] + [[0] * 4] * 3, dtype=np.int64))
    with pytest.raises(ValueError):
        diagonalize(SparseOperator(basis, m))


def test_spectrum_invariants(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    assert s.eigenvalues[0] >= -1e-10
    assert abs(s.eigenvalues[0]) <= 1e-10
    zero_mult = int(np.count_nonzero(np.abs(s.eigenvalues) <= 1e-8))
    assert zero_mult >= len(enumerate_ground_configs(ctx.lattice))
    assert s.residual <= 1e-8 * max(1.0, float(np.abs(s.eigenvalues).max()))
    assert s.well_separated
    # projectors: idempotent, orthogonal, resolving the identity
    total = np.zeros((ctx.basis.dim, ctx.basis.dim))
    for i in range(s.n_clusters):
        p = cluster_projector(s, i)
        assert np.allclose(p @ p, p, atol=1e-10)
        total += p
    assert np.allclose(total, np.eye(ctx.basis.dim), atol=1e-10)
    for i in range(s.n_clusters - 1):
        p, q = cluster_projector(s, i), cluster_projector(s, i + 1)
        assert np.allclose(p @ q, 0.0, atol=1e-10)


def test_spectrum_particle_hole_symmetric(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    n = ctx.lattice.nsites
    for k in range(n + 1):
        lo = np.sort(s.eigenvalues[s.sectors == k])
        hi = np.sort(s.eigenvalues[s.sectors == n - k])
        assert lo.shape == hi.shape
        assert np.allclose(lo, hi, atol=1e-9)


def test_dephase_fixes_commuting_operators(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    n_op = number_operator(ctx.lattice, ctx.basis).to_dense().astype(float)
    assert np.allclose(dephase(n_op, s), n_op, atol=1e-9)
    f = arc_sequences(ctx.lattice, 0, 1)[0]
    a = hermitian_charge(ctx, f)
    assert np.allclose(dephase(a, s), a, atol=1e-9)


def test_dephase_idempotent_unital_trace_preserving(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 64))
    a = x + x.T
    d1 = dephase(a, s)
    d2 = dephase(d1, s)
    assert np.allclose(d1, d2, atol=1e-9)
    assert np.allclose(dephase(np.eye(64), s), np.eye(64), atol=1e-10)
    assert abs(np.trace(d1) - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
    # dephased operators commute with H
    h = ctx.h.to_dense().astype(float)
    assert np.abs(h @ d1 - d1 @ h).max() <= 1e-8


def test_dephase_diagonalizes_on_nondegenerate_spectrum():
    basis = enumerate_basis(Lattice.chain(0, 1))
    h = SparseOperator(basis, sp.diags(np.array([0.0, 1.0, 2.5, 4.0])).tocsr())
    s = diagonalize(h)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4))
    a = x + x.T
    assert np.allclose(dephase(a, s), np.diag(np.diag(a)), atol=1e-10)


def test_mazur_gap_identity_is_zero(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    st = ThermalState.trace(ctx.basis)
    assert abs(mazur_gap(np.eye(64), st, s)) <= 1e-12


def test_mazur_gap_charge_trace_state(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    st = ThermalState.trace(ctx.basis)
    f = arc_sequences(ctx.lattice, 0, 1)[0]
    a = hermitian_charge(ctx, f)
    gap = mazur_gap(a, st, s)
    assert gap > 0
    assert abs(gap - np.trace(a @ a) / 64) <= 1e-10
    brute = time_averaged_autocorrelation(a, st, s, t_max=200.0, steps=2000)
    assert abs(brute - gap) <= 0.01 * abs(gap)


def test_mazur_gap_nonnegative_random(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    states = [ThermalState.trace(ctx.basis), ThermalState.gibbs(s, 1.0)]
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal((64, 64))
        a = x + x.T
        for st in states:
            assert mazur_gap(a, st, s) >= -1e-10


def test_gibbs_state_invariant(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    h = ctx.h.to_dense().astype(float)
    for beta in (0.5, 1.0, 2.0):
        st = ThermalState.gibbs(s, beta)
        assert abs(np.trace(st.rho) - 1.0) <= 1e-12
        assert np.abs(st.rho @ h - h @ st.rho).max() <= 1e-12 * max(1.0, np.abs(h).max())


def test_gibbs_state_at_large_negative_beta(ring):
    s = ring(2).spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = ThermalState.gibbs(s, -1000.0)
    assert np.isfinite(st.rho).all()
    assert abs(np.trace(st.rho) - 1.0) <= 1e-12


def test_non_invariant_state_rejected(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    lat = ctx.lattice
    # a configuration on which the hopping term acts: not an H eigenvector
    values = [0] * 6
    values[lat.rank(-3)] = 1
    values[lat.rank(0)] = 1
    bad = ThermalState.classical_ground(Configuration(lat, tuple(values)), ctx.basis)
    with pytest.raises(ValueError):
        mazur_gap(np.eye(64), bad, s)


def test_time_average_converges(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    st = ThermalState.trace(ctx.basis)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 64))
    a = x + x.T
    d = dephase(a, s)
    target = float(np.trace(a.T @ d) / 64)
    errs = [
        abs(time_averaged_autocorrelation(a, st, s, t_max=t, steps=int(10 * t)) - target)
        for t in (25.0, 400.0)
    ]
    assert errs[1] < errs[0]
    assert errs[1] <= 5e-3 * abs(target)


def test_evolve_properties(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((64, 64))
    a = x + x.T
    assert np.allclose(evolve(a, s, 0.0), a, atol=1e-10)
    for t in (0.7, 5.0, 50.0):
        at = evolve(a, s, t)
        assert abs(np.linalg.norm(at) - np.linalg.norm(a)) <= 1e-8 * np.linalg.norm(a)
        assert abs(np.linalg.norm(at, 2) - np.linalg.norm(a, 2)) <= 1e-8 * np.linalg.norm(a, 2)


def test_evolve_fixes_charges(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    f = arc_sequences(ctx.lattice, -2, 1)[1]
    qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis).to_dense().astype(float)
    for t in (0.3, 2.0, 40.0):
        assert np.abs(evolve(qf, s, t) - qf).max() <= 1e-8


def test_ergodicity_report(ring):
    ctx = ring(2)
    report = ergodicity_report(ctx, betas=(0.5, 1.0, 2.0))
    assert set(report.gaps) == {
        "trace",
        "gibbs(beta=0.5)",
        "gibbs(beta=1)",
        "gibbs(beta=2)",
    }
    for gaps in report.gaps.values():
        assert len(gaps) == len(report.generator_labels)
        assert all(g > 0 for g in gaps)
    assert report.invariant_dimension >= 2
    assert report.non_ergodic
    assert report.classical_witness is not None
    assert report.classical_witness["gap"] == pytest.approx(1.0, abs=1e-10)


def test_ergodicity_report_matches_dense_mazur_gap(ring):
    ctx = ring(2)
    betas = (0.5, 1.0, 2.0)
    report = ergodicity_report(ctx, betas=betas)
    seqs = all_embeddable_sequences(ctx.lattice) + enumerate_ring_sequences(ctx.lattice)
    assert report.generator_labels == [f.label() for f in seqs]
    charges = [hermitian_charge(ctx, f) for f in seqs]
    states = [ThermalState.trace(ctx.basis)]
    states += [ThermalState.gibbs(ctx.spectrum, b) for b in betas]
    assert list(report.gaps) == [st.label() for st in states]
    for st in states:
        dense = [mazur_gap(a, st, ctx.spectrum) for a in charges]
        assert np.abs(np.array(report.gaps[st.label()]) - dense).max() <= 1e-12
    stack = np.array([np.eye(ctx.basis.dim).ravel()] + [a.ravel() for a in charges])
    assert len(charges) == 50
    assert report.invariant_dimension == np.linalg.matrix_rank(stack) == 26


def test_closed_form_gaps_with_a_nonzero_mean(ring):
    # the charges are odd, so Tr(rho A) = 0 for them; N and H are even,
    # conserved, and exercise the squared-mean terms of the closed forms
    ctx = ring(2)
    ops = [number_operator(ctx.lattice, ctx.basis), ctx.h]
    betas = (-1.0, 0.5, 2.0)
    gibbs = _gibbs_gaps(ops, ctx.spectrum, betas)
    for i, op in enumerate(ops):
        dense = op.to_dense().astype(np.float64)
        trace = mazur_gap(dense, ThermalState.trace(ctx.basis), ctx.spectrum)
        assert abs(_trace_gap(op) - trace) <= 1e-12
        for beta in betas:
            st = ThermalState.gibbs(ctx.spectrum, beta)
            assert abs(gibbs[st.label()][i] - mazur_gap(dense, st, ctx.spectrum)) <= 1e-12


def test_ergodicity_report_ring3_invariant_dimension(ring):
    report = ergodicity_report(ring(3))
    assert len(report.generator_labels) == 186
    assert report.invariant_dimension == 94


def rank_mod_p(matrix, p=2**31 - 1):
    """Rank of an integer matrix over GF(p) by row elimination.  Entries stay
    in [0, p) and p**2 < 2**63, so every int64 product is exact."""
    a = np.mod(matrix, p).astype(np.int64)
    rank = 0
    for col in range(a.shape[1]):
        nz = rank + np.flatnonzero(a[rank:, col])
        if not len(nz):
            continue
        a[[rank, nz[0]]] = a[[nz[0], rank]]  # the old row `rank` is zero in col
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        rest = nz[1:]
        a[rest] = (a[rest] - a[rest, col, None] * a[rank] % p) % p
        rank += 1
    return rank


def test_rank_mod_p_on_small_matrices():
    assert rank_mod_p(np.array([[2, 4], [1, 2]])) == 1
    assert rank_mod_p(np.array([[0, 1], [1, 0], [1, 1]])) == 2
    assert rank_mod_p(np.zeros((3, 2), dtype=np.int64)) == 0
    assert rank_mod_p(np.array([[3]]), p=3) == 0


@pytest.mark.parametrize("m,rank", [(2, 26), (3, 94), (4, 322)])
def test_invariant_rank_equals_the_exact_rank_mod_p(ring, m, rank):
    # the float rank of the integer Gram matrix against its exact rank over
    # GF(2**31 - 1), which can only fall below the rational rank
    ctx = ring(m)
    operators = [SparseOperator.identity(ctx.basis)]
    for f in lattice_sequences(ctx.lattice):
        qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
        operators.append(qf + qf.adjoint())
    gram = hilbert_schmidt_gram(operators)
    assert gram.dtype == np.int64
    assert span_dimension(operators) == rank_mod_p(gram) == rank
    assert ergodicity_report(ctx).invariant_dimension == rank


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gibbs_mean_of_every_generator_vanishes(ring, m):
    # <A> = 0, which the closed form uses but does not compute: Q(f) commutes
    # with H and squares to zero, so it is traceless on each eigenspace
    ctx = ring(m)
    v = ctx.spectrum.vectors
    for f in lattice_sequences(ctx.lattice):
        qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
        a = (qf + qf.adjoint()).matrix.astype(np.float64)
        means = np.asarray(v.multiply(a @ v).sum(axis=0)).ravel()  # v_n.A v_n
        for beta in (-1.0, 0.5, 2.0):
            assert abs(means @ _gibbs_weights(ctx.spectrum.eigenvalues, beta)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_two_pattern_marginals_of_a_gibbs_diagonal_agree(ring, m):
    # Q(f) maps the range of Q*Q isometrically onto that of QQ* and
    # intertwines H, so <Q*Q> = <QQ*>: w[P] = w[S ^ P] for every generator
    ctx = ring(m)
    lat, spectrum = ctx.lattice, ctx.spectrum
    squares = spectrum.vectors.power(2)
    diags = [squares @ _gibbs_weights(spectrum.eigenvalues, b) for b in (-1.0, 0.5, 2.0)]
    states = np.arange(ctx.basis.dim)
    for s, p, *_ in ch._member_masks(lat, ch._catalogue(lat)).tolist():
        on = states & s
        for diag in diags:
            assert abs(diag[on == p].sum() - diag[on == s ^ p].sum()) <= 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_dephased_trace_gap_equals_the_dense_mazur_gap(ring, m):
    ctx = ring(m)
    s, dim = ctx.spectrum, ctx.basis.dim
    trace = ThermalState.trace(ctx.basis)
    seqs = lattice_sequences(ctx.lattice)
    ops = [number_operator(ctx.lattice, ctx.basis).matrix, ctx.h.matrix]
    for f in seqs[:: max(1, len(seqs) // 6)]:
        qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
        ops.append((qf + qf.adjoint()).matrix)
    rng = np.random.default_rng(m)
    x = sp.random(dim, dim, density=4 / dim, random_state=rng)
    ops.append(x + x.T)  # commutes with nothing
    for a in ops:
        dense = mazur_gap(a.toarray().astype(np.float64), trace, s)
        assert abs(_dephased_trace_gap(a, s) - dense) <= 1e-12 * max(1.0, abs(dense))


def test_ergodicity_report_rejects_a_wrong_trace_gap(monkeypatch):
    import nicolai.dynamics

    right = nicolai.dynamics._dephased_trace_gap
    monkeypatch.setattr(
        nicolai.dynamics, "_dephased_trace_gap", lambda a, s: right(a, s) * (1 + 1e-8)
    )
    with pytest.raises(RuntimeError, match="disagrees with the dephased Mazur gap"):
        ergodicity_report(ModelSpec.ring(2))


def test_ergodicity_report_rejects_a_wrong_gibbs_gap(monkeypatch):
    import nicolai.dynamics

    right = nicolai.dynamics._gibbs_gaps

    def wrong(generators, spectrum, betas):
        planted = right(generators, spectrum, betas)
        planted["gibbs(beta=2)"] = [g * (1 + 1e-6) for g in planted["gibbs(beta=2)"]]
        return planted

    monkeypatch.setattr(nicolai.dynamics, "_gibbs_gaps", wrong)
    with pytest.raises(RuntimeError, match=r"closed-form gibbs\(beta=2\) gap .* disagrees"):
        ergodicity_report(ModelSpec.ring(2))


def test_ergodicity_report_rejects_a_non_conserved_generator(planted_arc):
    spec = ModelSpec.ring(2)
    assert is_permitted(planted_arc) and not has_edge_conditions(planted_arc)
    assert conservation_check(spec, planted_arc) != 0
    with pytest.raises(RuntimeError, match="does not commute with H"):
        ergodicity_report(spec)


@pytest.mark.parametrize("m", [2, 3])
def test_classical_witness_matches_dense_mazur_gap(ring, m):
    ctx = ring(m)
    witness = ergodicity_report(ctx).classical_witness
    g0, g1 = (Configuration.from_state(int(s), ctx.lattice) for s in ctx.ground_states[:2])
    assert (witness["state"], witness["partner"]) == (g0.bitstring(), g1.bitstring())
    v0, v1 = config_to_vector(g0, ctx.basis), config_to_vector(g1, ctx.basis)
    flip = np.outer(v0, v1) + np.outer(v1, v0)
    dense = mazur_gap(flip, ThermalState.classical_ground(g0, ctx.basis), ctx.spectrum)
    assert abs(witness["gap"] - dense) <= 1e-12


def test_ergodicity_report_rejects_a_non_ground_witness():
    spec = ModelSpec.ring(2)
    lat = spec.lattice
    lone = Configuration.from_state(1 << lat.rank(0), lat)  # "0,1,0" around site 0
    assert not is_ground_config(lone)
    spec.__dict__["ground_states"] = np.append(lone.state, spec.ground_states)
    with pytest.raises(RuntimeError, match="not annihilated by H"):
        ergodicity_report(spec)


def test_ergodicity_requires_ring():
    with pytest.raises(ValueError):
        ergodicity_report(ModelSpec.chain(0, 6))


@pytest.mark.parametrize("m", [2, 3])
def test_no_resonance(m):
    rep = no_resonance_check(ModelSpec.ring(m))
    assert rep.max_residual == 0
    assert rep.powers_vanish
    assert rep.ground_count == 3 ** (m + 1) + (-1) ** (m + 1)
    assert rep.nonground_example is not None
    bitstring, residual = rep.nonground_example
    assert residual != 0


def test_no_resonance_reports_a_non_ground_column():
    # the vectorized column maximum against one column at a time
    spec = ModelSpec.ring(2)
    hop = build_h_hop(spec).to_sparse(spec.basis).matrix.tocsc()
    state = int(np.flatnonzero(np.diff(hop.indptr))[-1])  # a state the hops move
    g = Configuration.from_state(state, spec.lattice)
    spec.__dict__["ground_states"] = np.append(spec.ground_states, g.state)
    rep = no_resonance_check(spec)
    assert rep.max_residual == int(abs(hop[:, [state]]).max()) > 0
    assert not rep.powers_vanish
    assert rep.ground_count == 27


# the first state each hop moves, as the built H_hop matrix gave it
_FIRST_MOVED = {"periodic4": "1000", "periodic6": "100100", "open9": "010010000"}


@pytest.mark.parametrize(
    "spec",
    [ModelSpec.ring(m) for m in range(1, 5)] + [ModelSpec.chain_sites(n) for n in (3, 7, 9, 11)],
    ids=lambda spec: f"{spec.lattice.boundary}{spec.lattice.nsites}",
)
def test_h_holds_the_split_on_and_off_its_diagonal(spec, assert_same_csr):
    # the census and the no-resonance check read H_classical off H's diagonal
    # and H_hop off its other entries; the built split matrices are the oracle
    h = spec.h.matrix
    assert h.data.all()  # no stored zero, so a stored diagonal entry is nonzero
    diagonal = sp.diags(h.diagonal(), format="csr", dtype=h.dtype)
    off = (h - diagonal).tocsr()
    for m in (diagonal, off):
        m.eliminate_zeros()
        m.sort_indices()
    classical = build_h_classical(spec).to_sparse(spec.basis)
    hop = build_h_hop(spec).to_sparse(spec.basis)
    assert_same_csr(classical, SparseOperator(spec.basis, diagonal))
    assert_same_csr(hop, SparseOperator(spec.basis, off))

    rep = no_resonance_check(spec)
    hm = hop.matrix
    assert rep.max_residual == int(np.abs(hm[spec.ground_states].data).max(initial=0)) == 0
    moved = np.flatnonzero(np.diff(hm.indptr))
    if moved.size:
        state = int(moved[0])
        bits = Configuration.from_state(state, spec.lattice).bitstring()
        want = (bits, int(np.abs(hm[[state]].data).max()))
    else:
        want = None
    assert rep.nonground_example == want
    key = f"{spec.lattice.boundary}{spec.lattice.nsites}"
    if key in _FIRST_MOVED:
        assert want[0] == _FIRST_MOVED[key]
    # every state a hop moves, planted as ground: the residual is H_hop's
    # largest entry, not a diagonal one
    planted = ModelSpec(spec.lattice)
    planted.__dict__.update(h=spec.h, ground_states=moved)
    assert no_resonance_check(planted).max_residual == int(np.abs(hm.data).max(initial=0))


def test_a_hop_that_moves_a_ground_state_exits_3(capsys, monkeypatch):
    # a symmetric off-diagonal pair planted in H's row of the empty state, a
    # ground state: the first state a hop moves is then permitted, which
    # must not pass silently
    build = ModelSpec.h.func

    def planted(spec):
        h = build(spec).matrix
        pair = sp.csr_matrix(([1, 1], ([0, 1], [1, 0])), shape=h.shape, dtype=h.dtype)
        return SparseOperator(spec.basis, h + pair)

    monkeypatch.setattr(ModelSpec, "h", property(planted))
    with pytest.raises(RuntimeError, match="moves the ground configuration 000000"):
        no_resonance_check(ModelSpec.ring(2))
    assert cli.main(["verify", "--ring", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: H_hop moves the ground configuration")


def test_spectrum_table(ring):
    ctx = ring(2)
    s = diagonalize(ctx.h)
    rows = spectrum_table(s)
    assert rows == sorted(rows)
    assert sum(mult for _, _, mult in rows) == ctx.basis.dim
    assert all(0 <= sec <= 6 for sec, _, _ in rows)
