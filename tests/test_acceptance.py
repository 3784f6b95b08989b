"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Identities marked exact run in int64 arithmetic and require the
residual to be literally zero.
"""

import numpy as np
import pytest

from nicolai import (
    ModelSpec,
    adjoint_identity_check,
    all_embeddable_sequences,
    anticommutator,
    build_h_classical,
    build_h_hop,
    build_hamiltonian_explicit,
    build_supercharge,
    commutator,
    conservation_check,
    diagonalize,
    enumerate_basis,
    enumerate_ground_configs,
    enumerate_hat_xi,
    enumerate_ring_sequences,
    mazur_gap,
    monomial_to_sparse,
    number_operator,
    particle_hole,
    reference_interval_tables,
    sequence_to_operator,
    time_averaged_autocorrelation,
    transfer_count_hat_xi,
    translate2,
)
from nicolai.charges import rect_constant_sequence, sample_edge_violating_sequences
from nicolai.dynamics import ThermalState
from nicolai.groundstates import (
    entropy_density,
    ground_config_mask,
    transfer_count_ground_configs,
)


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_charge_table_reproduction():
    tables = reference_interval_tables()
    counts_ok = (
        len(tables[1]) == 2 and len(tables[2]) == 6 and len(tables[3]) == 18
    )
    rows_ok = all(
        sorted(s.values for s in enumerate_hat_xi(0, l))
        == sorted(s.values for s in tables[l])
        for l in (1, 2, 3)
    )
    _criterion(1, "charge tables: sizes 2/6/18, row-for-row", counts_ok and rows_ok)


def test_criterion_02_nilpotency(ring):
    ok = True
    for m in (2, 4, 6):
        q = ring(m).q
        ok &= (q @ q).is_zero() and (q.adjoint() @ q.adjoint()).is_zero()
    for nsites in (3, 5, 7, 9, 11, 13):
        spec = ModelSpec.chain_sites(nsites)
        q = build_supercharge(spec).to_sparse(enumerate_basis(spec.lattice))
        ok &= (q @ q).is_zero() and (q.adjoint() @ q.adjoint()).is_zero()
    spec = ModelSpec.torus(4, 4)
    q = build_supercharge(spec).to_sparse(enumerate_basis(spec.lattice))
    ok &= (q @ q).is_zero() and (q.adjoint() @ q.adjoint()).is_zero()
    _criterion(2, "Q^2 = 0 exactly on rings {2,4,6}, chains <= 13, 4x4 torus", ok)


def test_criterion_03_hamiltonian_consistency(ring):
    ok = True
    for m in (2, 4):
        ctx = ring(m)
        hx = build_hamiltonian_explicit(ctx).to_sparse(ctx.basis)
        hc = build_h_classical(ctx).to_sparse(ctx.basis)
        hh = build_h_hop(ctx).to_sparse(ctx.basis)
        ok &= ctx.h.equals(hx) and ctx.h.equals(hc + hh)
    _criterion(3, "{Q,Q*} = H_explicit = H_classical + H_hop on rings {2,4}", ok)


def test_criterion_04_conservation(ring):
    ok = True
    checked = 0
    for m in (2, 4, 6):
        ctx = ring(m)
        seqs = all_embeddable_sequences(ctx.lattice) + enumerate_ring_sequences(
            ctx.lattice
        )
        for f in seqs:
            qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
            ok &= commutator(ctx.h, qf).max_abs() == 0
        checked += len(seqs)
    hits = total = 0
    rng = np.random.default_rng(2024)
    for m in (2, 4):
        ctx = ring(m)
        for f in sample_edge_violating_sequences(ctx.lattice, 50, rng):
            total += 1
            if conservation_check(ctx, f) != 0:
                hits += 1
    necessity = hits / total >= 0.95
    _criterion(
        4,
        "[H, Q(f)] = 0 for all conserved sequences; edge violations break it",
        ok and necessity,
        f"({checked} charges exact, {hits}/{total} violations nonzero)",
    )


def test_criterion_05_adjoint_sign():
    basis = enumerate_basis(ModelSpec.chain(0, 6).lattice)
    ok = all(
        adjoint_identity_check(f, basis)
        for l, rows in reference_interval_tables().items()
        for f in rows
    )
    _criterion(5, "Q(f)* = (-1)**sigma Q(-f) across all three tables", ok)


def test_criterion_06_ground_state_equivalence(ring):
    ok = True
    for m in (2, 3, 4):
        ctx = ring(m)
        mask_pattern = ground_config_mask(ctx.lattice, ctx.basis)
        diag = build_h_classical(ctx).to_sparse(ctx.basis).diagonal()
        mask_classical = diag == 0
        q_csc = ctx.q.matrix.tocsc()
        qd_csc = ctx.q.adjoint().matrix.tocsc()
        mask_susy = (np.diff(q_csc.indptr) == 0) & (np.diff(qd_csc.indptr) == 0)
        ok &= bool(
            np.array_equal(mask_pattern, mask_classical)
            and np.array_equal(mask_pattern, mask_susy)
        )
        ok &= int(mask_pattern.sum()) == len(enumerate_ground_configs(ctx.lattice))
    _criterion(
        6, "pattern-free = ker diag(H_classical) = Q,Q*-annihilated, rings {2,3,4}", ok
    )


def test_criterion_07_positivity_and_kernel(ring):
    ok = True
    details = []
    for m in (2, 3, 4):
        ctx = ring(m)
        spectrum = diagonalize(ctx.h)
        classical = len(enumerate_ground_configs(ctx.lattice))
        min_eig = float(spectrum.eigenvalues[0])
        zero_mult = int(np.count_nonzero(np.abs(spectrum.eigenvalues) <= 1e-8))
        diag = build_h_classical(ctx).to_sparse(ctx.basis).diagonal()
        ok &= abs(min_eig) <= 1e-10
        ok &= zero_mult >= classical
        ok &= int(np.count_nonzero(diag == 0)) == classical
        details.append(f"m={m}: ker H = {zero_mult} >= {classical}")
    _criterion(7, "min eig(H) = 0, kernel sizes consistent", ok, "; ".join(details))


def test_criterion_08_no_resonance(ring):
    ok = True
    for m in (2, 3, 4):
        ctx = ring(m)
        hop = build_h_hop(ctx).to_sparse(ctx.basis).matrix.tocsc()
        for g in enumerate_ground_configs(ctx.lattice):
            col = hop[:, [ctx.basis.index_of(g.state)]]
            ok &= col.nnz == 0 or int(np.abs(col.data).max()) == 0
    _criterion(8, "H_hop |g> = 0 exactly for every ground config, rings {2,3,4}", ok)


def test_criterion_09_mazur_gap(ring):
    ctx = ring(2)
    spectrum = diagonalize(ctx.h)
    seqs = all_embeddable_sequences(ctx.lattice) + enumerate_ring_sequences(ctx.lattice)
    trace = ThermalState.trace(ctx.basis)
    gibbs = [ThermalState.gibbs(spectrum, b) for b in (0.5, 1.0, 2.0)]
    ok = True
    for f in seqs:
        qf = monomial_to_sparse(sequence_to_operator(f), ctx.basis)
        a = (qf + qf.adjoint()).to_dense().astype(np.float64)
        gap = mazur_gap(a, trace, spectrum)
        expected = float(np.trace(a @ a)) / 64.0
        ok &= gap > 0 and abs(gap - expected) <= 1e-10 * max(1.0, expected)
        brute = time_averaged_autocorrelation(a, trace, spectrum, 200.0, 2000)
        ok &= abs(brute - gap) <= 0.01 * abs(gap)
        for st in gibbs:
            ok &= mazur_gap(a, st, spectrum) > 0
    _criterion(
        9,
        "Mazur gaps: trace gap = Tr(A^2)/64 > 0, 1% vs brute force, Gibbs > 0",
        ok,
        f"({len(seqs)} generators)",
    )


def test_criterion_10_growth_rates():
    ok = all(
        len(enumerate_hat_xi(0, l)) == transfer_count_hat_xi(0, l)
        for l in range(1, 11)
    )
    ratio = transfer_count_hat_xi(0, 10) / transfer_count_hat_xi(0, 9)
    ok &= abs(ratio - 3.0) <= 0.05 * 3.0
    lam = float(np.exp(2 * entropy_density(ModelSpec.ring(2).lattice)))
    ok &= lam > 1.0
    counts = [
        transfer_count_ground_configs(ModelSpec.ring(m).lattice) for m in (2, 4, 6, 8)
    ]
    ok &= all(b > a for a, b in zip(counts, counts[1:]))
    _criterion(
        10,
        "transfer counts match enumeration (l <= 10), ratio -> 3, growth rate > 1",
        ok,
        f"(ratio {ratio:.3f}, lambda {lam:.3f})",
    )


def test_criterion_11_symmetries(ring):
    ok = True
    for m in (2, 4):
        ctx = ring(m)
        n = number_operator(ctx.lattice, ctx.basis)
        ok &= commutator(ctx.h, n).is_zero()
        shifted = translate2(ctx.q_sum, ctx.lattice).to_sparse(ctx.basis)
        ok &= anticommutator(shifted, shifted.adjoint()).equals(ctx.h)
        rho_q = particle_hole(ctx.q_sum).to_sparse(ctx.basis)
        ok &= (rho_q + ctx.q.adjoint()).is_zero()  # rho(Q) = -Q*
        ok &= anticommutator(rho_q, rho_q.adjoint()).equals(ctx.h)  # rho(H) = H
    _criterion(11, "[H,N] = 0, shift-by-2 and particle-hole symmetries, exact", ok)


def test_criterion_12_two_dimensional():
    spec = ModelSpec.torus(4, 4)
    lat = spec.lattice
    basis = enumerate_basis(lat)
    q = build_supercharge(spec).to_sparse(basis)
    ok = (q @ q).is_zero() and (q.adjoint() @ q.adjoint()).is_zero()
    h = anticommutator(q, q.adjoint())
    rng = np.random.default_rng(16)
    for _ in range(50):
        v = rng.standard_normal(basis.dim)
        hv = float(v @ (h.matrix @ v))
        qv, qdv = q.matrix @ v, q.adjoint().matrix @ v
        ok &= hv >= -1e-10
        ok &= abs(hv - (qv @ qv + qdv @ qdv)) <= 1e-10 * max(1.0, abs(hv))
    for x0 in (0, 2):
        for y0 in (0, 2):
            for val in (-1, 1):
                seq = rect_constant_sequence(lat, x0, y0, 3, 3, val)
                qf = monomial_to_sparse(sequence_to_operator(seq), basis)
                ok &= commutator(h, qf).max_abs() == 0
    _criterion(12, "4x4 torus: Q^2 = 0, H >= 0, rectangle constants conserved", ok)
