import functools
import hashlib
import json
import math
import os
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse

import nicolai
from nicolai import cli


def run(args):
    return cli.main(args)


def test_build_verify_passes(capsys):
    assert run(["build", "--ring", "--m", "2", "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["supercharge_terms"] == 3
    assert payload["dimension"] == 64
    assert payload["failures"] == 0
    names = {c["name"] for c in payload["checks"]}
    assert "q_squared_zero" in names and "particle_hole_q" in names


def test_build_torus_summary(capsys):
    assert run(["build", "--torus", "4x4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["supercharge_terms"] == 4
    assert payload["dimension"] == 65536


def test_charges_interval(capsys):
    assert run(["charges", "--interval", "0", "3", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 18
    assert payload["transfer_matrix_count"] == 18
    assert payload["max_commutator_residual"] == 0
    assert len(payload["sequences"]) == 18


def test_charges_interval_smallest(capsys):
    assert run(["charges", "--interval", "0", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_charges_ring_check(capsys):
    assert run(["charges", "--ring", "--m", "2", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full_ring_count"] == 26
    assert payload["max_commutator_residual"] == 0


@pytest.mark.parametrize("m", range(1, 7))
def test_listing_counts_equal_the_object_enumerators(capsys, m):
    lat = nicolai.Lattice.ring(m)
    assert run(["charges", "--ring", "--m", str(m)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["embeddable_count"] == len(nicolai.all_embeddable_sequences(lat))
    assert payload["full_ring_count"] == len(nicolai.enumerate_ring_sequences(lat))
    assert run(["groundstates", "--ring", "--m", str(m)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(nicolai.enumerate_ground_configs(lat))


def test_listings_count_without_building_objects(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(nicolai.ConservedSequence, "__post_init__", refuse)
    monkeypatch.setattr(nicolai.Configuration, "__post_init__", refuse)
    assert run(["charges", "--ring", "--m", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["embeddable_count"] == 5096
    # 19682 configurations on 18 sites: counted, not listed
    assert run(["groundstates", "--ring", "--m", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 19682 and "configs" not in payload


def test_charges_tables(capsys):
    assert run(["charges", "--tables"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tables"]["1"]["count"] == 2
    assert payload["tables"]["2"]["count"] == 6
    assert payload["tables"]["3"]["count"] == 18
    assert all(t["matches_enumeration"] for t in payload["tables"].values())


def test_groundstates_ring(capsys):
    assert run(["groundstates", "--ring", "--m", "2", "--verify-susy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 26
    assert payload["transfer_matrix_count"] == 26
    assert payload["susy_failures"] == []
    assert len(payload["configs"]) == 26


def test_groundstates_chain_transfer_matrix(capsys):
    assert run(["groundstates", "--chain", "9", "--transfer-matrix"]) == 0
    tm = json.loads(capsys.readouterr().out)
    assert run(["groundstates", "--chain", "9"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert tm["count"] == full["count"]


def test_ergodicity(capsys, tmp_path):
    csv_path = tmp_path / "spectrum.csv"
    assert (
        run(
            [
                "ergodicity",
                "--ring",
                "--m",
                "2",
                "--beta",
                "1.0",
                "--spectrum-csv",
                str(csv_path),
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_gaps_positive"]
    assert payload["report"]["non_ergodic"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sector,eigenvalue,multiplicity"
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 64


def test_verify_ring(capsys):
    assert run(["verify", "--ring", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0


def test_bad_config_exit_codes(capsys):
    assert run(["build"]) == 2  # no lattice
    assert run(["build", "--ring"]) == 2  # missing --m
    assert run(["build", "--torus", "4x"]) == 2
    assert run(["build", "--chain", "8"]) == 2  # even site count
    assert run(["build", "--ring", "--m", "2", "--chain", "9"]) == 2
    assert run(["charges", "--ring", "--m", "2", "--interval", "0", "9", "--check"]) == 2


def test_verification_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.ch, "_mask_residuals", lambda spec, masks: np.ones(len(masks), dtype=np.int64)
    )
    assert run(["charges", "--interval", "0", "1", "--check"]) == 3


def test_csv_format_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--ring", "--m", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_no_partial_file_on_config_error(tmp_path):
    out = tmp_path / "report.json"
    assert run(["build", "--output", str(out)]) == 2
    assert not out.exists()


def test_output_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["build", "--ring", "--m", "2", "--verify", "--seed", "7"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert not any(p.name.startswith("a.json.tmp") for p in tmp_path.iterdir())


def test_text_format(capsys):
    assert run(["verify", "--ring", "--m", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "PASS q_squared_zero" in out
    assert "FAIL" not in out


def test_groundstates_text_lines(capsys):
    assert run(["groundstates", "--ring", "--m", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    bitstrings = [l for l in out if set(l) <= {"0", "1"} and len(l) == 6]
    assert len(bitstrings) == 26


def test_diagonalization_failure_exit_code(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("eigenpair residual 1.000e-03 exceeds tolerance")

    monkeypatch.setattr(nicolai.dynamics, "fragment_eigenvalues", fail)
    assert run(["verify", "--ring", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: eigenpair residual")


def test_ergodicity_refuses_a_ring_too_big_for_memory(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the size guard must run before any diagonalization")

    monkeypatch.setattr(nicolai.dynamics, "diagonalize", fail)
    _eight_gib(monkeypatch)
    assert run(["ergodicity", "--ring", "--m", "11"]) == 2
    assert "GiB" in capsys.readouterr().err


@pytest.mark.parametrize("m", [7, 9, 10])
def test_ergodicity_admits_ring_past_the_memory_guard(m, monkeypatch):
    class Reached(Exception):
        pass

    _refuse_building(monkeypatch, Reached())
    _eight_gib(monkeypatch)
    with pytest.raises(Reached):
        run(["ergodicity", "--ring", "--m", str(m)])


def test_charges_check_refuses_a_ring_too_big_for_memory(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the size guard must run before any word array or operator")

    monkeypatch.setattr(nicolai.grammar, "permitted_codes", refuse)
    _refuse_building(monkeypatch, AssertionError("the size guard must run before any operator"))
    _eight_gib(monkeypatch)
    assert run(["charges", "--ring", "--m", "14", "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the charge check needs ~256.0 GiB")


def test_charges_listing_at_ring_m14_passes_the_memory_guard(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    _refuse_building(monkeypatch, AssertionError("a listing builds no operator"))
    monkeypatch.setattr(nicolai.grammar, "permitted_codes", reached)
    _eight_gib(monkeypatch)
    with pytest.raises(Reached):
        run(["charges", "--ring", "--m", "14"])


def _eight_gib(monkeypatch, files=None):
    """An 8 GiB machine, whatever this one has: 4 KiB pages, 2**21 of them,
    and no bound below that unless ``files`` (path -> text) holds one for
    ``cli._memory_bounds`` to read."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli, "_read_text", lambda path: (files or {}).get(path, ""))


def test_verify_refuses_a_ring_above_its_cgroup_limit(capsys, monkeypatch):
    # verify --ring --m 9 needs ~320 MiB; the v1 cgroup of this process
    # allows 192 MiB, its parent and the machine more
    _refuse_building(monkeypatch, AssertionError("the size guard must run before any operator"))
    _eight_gib(
        monkeypatch,
        {
            "/proc/meminfo": "MemTotal: 8388608 kB\nMemAvailable: 6291456 kB\n",
            "/proc/self/cgroup": "5:devices:/\n4:memory:/jobs/one\n0::/\n",
            "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
            "/sys/fs/cgroup/memory/jobs/memory.limit_in_bytes": "1073741824\n",
            "/sys/fs/cgroup/memory/jobs/one/memory.limit_in_bytes": "201326592\n",
            "/sys/fs/cgroup/memory.max": "max\n",
        },
    )
    assert cli._memory_bounds() == [6 * 2**30, 9223372036854771712, 2**30, 192 * 2**20]
    assert run(["verify", "--ring", "--m", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the verify run needs ~0.3 GiB of sparse matrices; "
        "this process can get 0.2 GiB\n"
    )


def test_memory_bounds_read_the_v2_limit_and_skip_max(monkeypatch):
    files = {
        "/proc/self/cgroup": "0::/jobs/one\n",
        "/sys/fs/cgroup/jobs/memory.max": "max\n",
        "/sys/fs/cgroup/jobs/one/memory.max": "536870912\n",
    }
    _eight_gib(monkeypatch, files)
    assert cli._memory_bounds() == [2**29]
    # nothing readable: physical memory alone
    _eight_gib(monkeypatch)
    assert cli._memory_bounds() == []


def _refuse_building(monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error

    for name in ("enumerate_basis", "build_supercharge"):
        monkeypatch.setattr(nicolai.model, name, refuse)


@pytest.mark.parametrize(
    "argv", [["verify", "--ring", "--m", "12"], ["build", "--ring", "--m", "12", "--verify"]]
)
def test_verify_refuses_a_ring_too_big_for_memory(argv, capsys, monkeypatch):
    _refuse_building(monkeypatch, AssertionError("the size guard must run before any operator"))
    _eight_gib(monkeypatch)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the verify run needs ~20.0 GiB")


@pytest.mark.parametrize(
    "argv", [["verify", "--ring", "--m", "10"], ["build", "--ring", "--m", "10", "--verify"]]
)
def test_verify_admits_ring_m10_past_the_memory_guard(argv, monkeypatch):
    class Reached(Exception):
        pass

    _refuse_building(monkeypatch, Reached())
    _eight_gib(monkeypatch)
    with pytest.raises(Reached):
        run(argv)


def test_verify_admits_ring_m11_on_8_gib(monkeypatch):
    # 320 bytes per state: 5.0 GiB for 2**24 states
    class Reached(Exception):
        pass

    _refuse_building(monkeypatch, Reached())
    _eight_gib(monkeypatch)
    with pytest.raises(Reached):
        run(["verify", "--ring", "--m", "11"])


def test_ergodicity_ring_m5(capsys):
    assert run(["ergodicity", "--ring", "--m", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["report"]["generators"]) == 2182
    assert payload["report"]["invariant_dimension"] == 1092
    assert payload["all_gaps_positive"] and payload["report"]["non_ergodic"]


@pytest.mark.parametrize("beta", ["-1000", "-1e308", "1e308"])
def test_ergodicity_at_large_negative_beta(beta, capsys):
    # at |beta| = 1e308, -beta E passes the float64 range, and the weights
    # must still come out finite and with no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["ergodicity", "--ring", "--m", "2", f"--beta={beta}"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    payload = json.loads(capsys.readouterr().out)
    gaps = [g for gs_ in payload["report"]["gaps"].values() for g in gs_]
    assert all(isinstance(g, float) and math.isfinite(g) for g in gaps)
    assert payload["all_gaps_positive"] and code == 0


def test_ergodicity_decides_underflowed_gibbs_gaps_by_the_trace_gap(capsys):
    # at beta = -800 the E = 0 weights e**-1600 underflow, and so do the gaps
    assert run(["ergodicity", "--ring", "--m", "1", "--beta", "-800"]) == 0
    payload = json.loads(capsys.readouterr().out)
    gibbs = payload["report"]["gaps"]["gibbs(beta=-800)"]
    assert len(gibbs) == 14 and set(gibbs) == {0.0}
    assert all(g > 0 for g in payload["report"]["gaps"]["trace"])
    assert payload["all_gaps_positive"]


@pytest.mark.parametrize(
    "gaps, positive",
    [
        ({"trace": [0.5, 0.25], "gibbs(beta=1)": [0.0, 0.1]}, True),
        ({"trace": [0.5, 0.0], "gibbs(beta=1)": [0.1, 0.0]}, False),
        ({"trace": [0.5, 0.0], "gibbs(beta=1)": [0.1, 0.2]}, False),
        ({"trace": [0.5], "gibbs(beta=1)": [-1e-300]}, False),
    ],
)
def test_all_gaps_positive_reads_a_zero_gibbs_gap_by_its_trace_gap(gaps, positive):
    assert nicolai.dynamics.ErgodicityReport(gaps=gaps).all_gaps_positive() is positive


ENTRY_CHECK_SPECS = {
    "ring1": lambda: nicolai.ModelSpec.ring(1),
    "ring2": lambda: nicolai.ModelSpec.ring(2),
    "ring3": lambda: nicolai.ModelSpec.ring(3),
    "chain5": lambda: nicolai.ModelSpec.chain_sites(5),
    "chain7": lambda: nicolai.ModelSpec.chain_sites(7),
    "torus4x4": lambda: nicolai.ModelSpec.torus(4, 4),
}


def _with_entries(op, entries):
    """``op`` plus the ``(i, j, value)`` entries, a zero value stored explicitly."""
    m = op.matrix.tocoo()
    i, j, v = (np.array(x, dtype=np.int64) for x in zip(*entries))
    coo = scipy.sparse.coo_matrix(
        (np.concatenate([m.data, v]), (np.concatenate([m.row, i]), np.concatenate([m.col, j]))),
        shape=m.shape,
    )
    return nicolai.SparseOperator(op.basis, coo.tocsr())


def _touched(h, q):
    """The states with a stored entry in the row or column of H or Q (the
    rows and columns of Q* are those of Q)."""
    touched = np.zeros(h.dim, dtype=bool)
    for m in (h.matrix, q.matrix):
        touched |= np.diff(m.indptr) > 0
        touched[m.indices] = True
    return touched


def matvec_quadratic_forms(h, q, qd, seed):
    """The probes as one matvec per full-space vector: the oracle of
    ``cli._quadratic_forms``."""
    rng = np.random.default_rng(seed)
    quad_ok = psd_ok = True
    for _ in range(20):
        v = rng.standard_normal(h.dim)
        hv = float(v @ (h.matrix @ v))
        qv, qdv = q.matrix @ v, qd.matrix @ v
        qq = float(qv @ qv + qdv @ qdv)
        quad_ok &= abs(hv - qq) <= 1e-10 * max(1.0, abs(hv))
        psd_ok &= hv >= -1e-10
    return quad_ok, psd_ok


@pytest.mark.parametrize("name", list(ENTRY_CHECK_SPECS))
def test_entry_checks_agree_with_the_operator_oracles(name):
    spec = ENTRY_CHECK_SPECS[name]()
    basis, h, q = spec.basis, spec.h, spec.q
    n_op = nicolai.number_operator(spec.lattice, basis)
    par = nicolai.parity_operator(basis)

    def conserves(op):
        oracle = bool(nicolai.fock.commutator(op, n_op).is_zero())
        assert cli._conserves_number(op) == oracle
        return oracle

    def odd(op):
        oracle = bool((par @ op @ par + op).is_zero())
        assert cli._is_odd(op) == oracle
        return oracle

    assert conserves(h) and odd(q)
    # state 0 is empty and state 1 holds one particle, so a hop between
    # them changes N; a diagonal entry keeps the parity
    assert not conserves(_with_entries(h, [(0, 1, 1), (1, 0, 1)]))
    assert not odd(_with_entries(q, [(3, 3, 1)]))
    # an explicit stored zero is no entry, for the products and the reading
    h0, q0 = _with_entries(h, [(0, 1, 0)]), _with_entries(q, [(0, 0, 0)])
    assert (h0.nnz, q0.nnz) == (h.nnz + 1, q.nnz + 1)
    assert conserves(h0) and odd(q0)


@pytest.mark.parametrize("name", list(ENTRY_CHECK_SPECS))
def test_restricted_probes_agree_with_full_space_matvecs(name):
    spec = ENTRY_CHECK_SPECS[name]()
    h, q, qd = spec.h, spec.q, spec.q_dagger
    touched = _touched(h, q)
    idle = int(np.flatnonzero(~touched)[0])
    busy = int(np.flatnonzero(touched)[0]) if touched.any() else idle
    cases = [
        ((True, True), h),
        ((False, True), 2 * h),
        ((False, False), -h),
        # one untouched state's own diagonal entry: read only if H's rows
        # count towards the active states
        ((False, True), _with_entries(h, [(idle, idle, 1)])),
        # an entry in an untouched column alone: read only if H's columns count
        ((False, None), _with_entries(h, [(busy, idle, 1)])),
    ]
    for seed in (0, 1):
        for (quad, psd), hh in cases:
            for forms in (cli._quadratic_forms, matvec_quadratic_forms):
                got_quad, got_psd = forms(hh, q, qd, seed)
                assert got_quad == quad and psd in (None, got_psd)


def test_restrict_keeps_the_active_block():
    rng = np.random.default_rng(5)
    active = rng.random(300) < 0.4
    states = np.flatnonzero(active)
    i, j = rng.choice(states, 900), rng.choice(states, 900)
    m = scipy.sparse.csr_matrix((rng.integers(-3, 4, 900), (i, j)), shape=(300, 300))
    pos = np.cumsum(active, dtype=m.indices.dtype) - 1
    r = cli._restrict(m, active, pos)
    assert r.dtype == m.dtype == np.int64
    assert np.shares_memory(r.data, m.data)
    assert np.array_equal(r.toarray(), m.toarray()[np.ix_(active, active)])


def _planted(spec, kind, sign):
    """H with ``sign`` added on one active state's diagonal, or on a
    symmetric pair of entries between two active states."""
    i, j = np.flatnonzero(_touched(spec.h, spec.q))[[0, -1]]
    entries = [(i, i, sign)] if kind == "diagonal" else [(i, j, sign), (j, i, sign)]
    return _with_entries(spec.h, entries)


@pytest.mark.parametrize("name", ["ring2", "chain7", "torus4x4"])
@pytest.mark.parametrize("kind", ["diagonal", "pair"])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_probes_catch_a_planted_unit_entry(name, kind, sign):
    spec = ENTRY_CHECK_SPECS[name]()
    hh, q, qd = _planted(spec, kind, sign), spec.q, spec.q_dagger
    for seed in range(10):
        assert not cli._quadratic_forms(hh, q, qd, seed)[0]
    assert not matvec_quadratic_forms(hh, q, qd, 0)[0]
    assert cli._quadratic_forms(spec.h, q, qd, 0) == (True, True)


@pytest.mark.parametrize(
    "entry, q_entry, overflows",
    [
        (2**49 - 1, 0, False),
        (2**49, 0, True),
        (-(2**63), 0, True),
        (0, 2**24 - 1, False),
        (0, 2**24, True),
    ],
    ids=["h-below", "h-at", "h-int64-min", "q-below", "q-at"],
)
def test_quadratic_forms_refuse_an_overflow_before_any_probe(
    entry, q_entry, overflows, monkeypatch
):
    # the bound is 128**2 * max(sum |H_ij|, sum_i (sum_j |Q_ij|)**2 + the same
    # for Q*), against 2**63: one planted entry x in H gives x, in Q 2 x**2
    spec = nicolai.ModelSpec.chain_sites(1)
    zero = nicolai.SparseOperator.zero(spec.basis)
    h = _with_entries(zero, [(0, 0, entry)])
    q = _with_entries(zero, [(0, 1, q_entry)])
    qd = q.adjoint()
    if not overflows:
        assert cli._quadratic_forms(h, q, qd, 0) == (False, True)
        return

    def drawn(*args, **kwargs):
        raise AssertionError("the bound must be checked before any probe is drawn")

    monkeypatch.setattr(np.random, "default_rng", drawn)
    with pytest.raises(OverflowError, match="may overflow"):
        cli._quadratic_forms(h, q, qd, 0)


def _bump_h(monkeypatch, delta):
    """Make ``ModelSpec.h`` add ``delta`` to H's diagonal at the first state
    that H, Q and Q* never touch."""
    build = nicolai.ModelSpec.h.func

    def bumped(spec):
        h = build(spec)
        idle = int(np.flatnonzero(~_touched(h, spec.q))[0])
        return _with_entries(h, [(idle, idle, delta)])

    prop = functools.cached_property(bumped)
    prop.__set_name__(nicolai.ModelSpec, "h")
    monkeypatch.setattr(nicolai.ModelSpec, "h", prop)


@pytest.mark.parametrize(
    "argv", [["--chain", "1"], ["--ring", "--m", "2"]], ids=["chain1", "ring2"]
)
@pytest.mark.parametrize("delta, psd", [(1, True), (-1, False)])
def test_verify_probes_read_an_untouched_diagonal_entry(argv, delta, psd, capsys, monkeypatch):
    _bump_h(monkeypatch, delta)
    assert run(["verify", *argv]) == 3
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not passed["h_quadratic_form"]
    if delta > 0 or argv[0] == "--chain":
        # on the ring a -1 beside 38 other active states need not turn a probe's
        # form negative; alone on the chain it turns every one negative
        assert passed["h_positive_semidefinite"] is psd


def test_verify_passes_with_no_active_state(capsys):
    # one site: no charge, so H, Q and Q* are zero and no probe entry is drawn
    assert run(["verify", "--chain", "1"]) == 0
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert passed["h_quadratic_form"] and passed["h_positive_semidefinite"]


def test_ergodicity_exits_3_on_a_non_conserved_generator(capsys, planted_arc):
    assert run(["ergodicity", "--ring", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: charge ")


def test_a_bare_memory_error_still_prints_a_message(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(nicolai.model, "build_supercharge", exhausted)
    assert run(["build", "--ring", "--m", "2"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_an_overflow_is_a_configuration_error(capsys, monkeypatch):
    def too_wide(*args, **kwargs):
        raise OverflowError("packed keys of 99-site masks do not fit in int64")

    monkeypatch.setattr(nicolai.charges, "_pair_keys", too_wide)
    assert run(["verify", "--ring", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: packed keys of 99-site masks do not fit in int64\n"
    monkeypatch.undo()
    # the probes' own bound, on an H whose entry would overflow their forms
    _bump_h(monkeypatch, 2**49)
    assert run(["verify", "--ring", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the probes' int64 quadratic forms may overflow")


def test_charges_interval_refuses_a_listing_too_big_for_memory(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the size guard must run before any sequence is enumerated")

    monkeypatch.setattr(nicolai.charges, "enumerate_hat_xi", refuse)
    _eight_gib(monkeypatch)
    assert run(["charges", "--interval", "0", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the charge listing needs ~")
    # --check adds the embedding chain's operators: 25 sites, ~9 GiB in all
    assert run(["charges", "--interval", "0", "10", "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the charge check needs ~9.0 GiB")


def test_model_too_big_to_allocate_is_a_configuration_error(capsys):
    # 42 sites: the 2**42-state basis alone is 32 TiB, so numpy refuses it at once
    assert run(["build", "--ring", "--m", "20"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("beta", ["inf", "nan"])
def test_ergodicity_refuses_a_non_finite_beta(capsys, monkeypatch, beta):
    def fail(*args, **kwargs):
        raise AssertionError("--beta must be checked before any diagonalization")

    monkeypatch.setattr(nicolai.dynamics, "diagonalize", fail)
    assert run(["ergodicity", "--ring", "--m", "2", "--beta", beta]) == 2
    assert capsys.readouterr().err.startswith("error: --beta must be finite")


# stdout sha256 of commands whose output holds no eigensolver-derived floats
GOLDEN_STDOUT = {
    "charges --tables": "809db86735ad5148eaa51c124d1d817a71dbd9681480c7641228d95ae74c6aac",
    "charges --interval 0 4 --check": "09e35e42d85eb39ec6d4c53f14a7c72509ebcffec39d743af593f08082edaad0",
    "groundstates --ring --m 4 --verify-susy": "6331e246d61f53c467f8ea88a5479d185969f06319ed76ff332abd206ef950bb",
    "groundstates --torus 4x4": "e11ac93cef780e210e099571bea122b7e0572dd24d60c0df3f978cb981ce15be",
    "groundstates --chain 29 --transfer-matrix": "d5bcc7a4a081a243705d77e00d935f975ebbbb7958d5b4c35a520f25f0c1c6f2",
    "charges --ring --m 4 --check": "8f5a586c15728d6454d3ecc3a1d2ce08d3d29c3b8b91bce4431334efe5715141",
    "charges --ring --m 5 --check": "6b8c916573ec24c7469bea7cf7322fdb397713c62ad1936e72ba3e86b01a78b9",
    "charges --ring --m 6 --check": "7b044ec74231602064f526819636fa3dd1319bb9429a3267add27d7b2ae2621a",
    "charges --ring --m 10": "660fe07566e04ca4b2c6d5677374195b42b16ecb55d46379d4978120edc94373",
    "groundstates --ring --m 10": "303d19c9ff6506195664221ebc94b098dc25b8708774111434fd7093311e5a8a",
    "groundstates --ring --m 3": "22c7c2edc136f6237aacf55b4de9a5dab0fc7a47792c1155fc47e0aafa8c49c1",
    "groundstates --chain 11 --format text": "d92bb52bd1b92a138cfcea6f781a2d09b63760c18912d31be3103a0c4f303e27",
    # supercharge_nnz moves with any stray explicit zero or unsummed duplicate in Q
    "build --ring --m 4": "0afd41c8a89377f421c8e1d5f150ca7f325ecd0e83621962bfaf40fbed2e97a2",
    "build --torus 4x4": "8d7c10bf94b12da68856ce3276e98d31113703b74dd2fa527f71f5391696f9ef",
}


def test_golden_stdout(capsys):
    got = {}
    for command in GOLDEN_STDOUT:
        assert run(command.split()) == 0
        got[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_STDOUT


# one small run of every command form, and the library functions that no
# command calls: they are the oracles and the API of the library alone
TRAFFIC = [
    "verify --ring --m 3",
    "verify --chain 9",
    "verify --torus 4x4",
    "build --ring --m 2 --verify",
    "ergodicity --ring --m 3 --spectrum-csv SPECTRUM",
    "charges --ring --m 4 --check",
    "charges --interval 0 3 --check",
    "charges --tables",
    "groundstates --ring --m 4 --verify-susy",
    "groundstates --torus 4x4 --verify-susy",
]
UNCALLED = {
    "fock": ("apply_monomial", "graded_commutator", "span_dimension"),
    "dynamics": ("dephase", "mazur_gap", "time_averaged_autocorrelation", "evolve"),
    "groundstates": ("verify_susy_ground", "enumerate_ground_configs"),
    "charges": ("conservation_check", "independence_probe"),
    "model": ("build_hamiltonian_susy", "number_operator"),
}


def test_commands_call_no_library_only_function(capsys, monkeypatch, tmp_path):
    argvs = [c.replace("SPECTRUM", str(tmp_path / "spectrum.csv")).split() for c in TRAFFIC]
    want = []
    for argv in argvs:
        assert run(argv) == 0
        want.append(capsys.readouterr().out)

    def raiser(name):
        def uncalled(*args, **kwargs):
            raise AssertionError(f"a command called {name}")

        return uncalled

    targets = {
        getattr(getattr(nicolai, mod), name): f"{mod}.{name}"
        for mod, names in UNCALLED.items()
        for name in names
    }
    patched = 0
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "nicolai"]:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                monkeypatch.setattr(module, attr, raiser(targets[value]))
                patched += 1
    assert patched > len(targets)  # the package re-exports every one of them
    for argv, out in zip(argvs, want):
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


@pytest.mark.parametrize(
    "argv, sha",
    [
        ("verify --torus 4x4", "61837192fc019e03ae9dd6738cd93064476166cbb4fa3ddfd2ace45d1f9d1658"),
        ("verify --chain 13", "1c7a0d4f1c2ee40445f7711b4f2a55d20a877dcfaa397182dd8c03cd7e47de00"),
        ("verify --ring --m 5", "5a47d586a0307706212cd96b768e6c989a2274e5a59aa4b9c287e206a39ebe36"),
    ],
    ids=["torus4x4", "chain13", "ring-m5"],
)
def test_verify_pin(argv, sha, capsys):
    # the lowest eigenvalue of H, an eigensolver float, is checked and
    # dropped; the rest of the payload is hashed as rendered
    assert run(argv.split()) == 0
    payload = json.loads(capsys.readouterr().out)
    (e0,) = [c for c in payload["checks"] if c["name"] == "h_min_eigenvalue_zero"]
    assert e0["passed"] and abs(e0["detail"]) <= 1e-10
    payload["checks"].remove(e0)
    assert payload["failures"] == 0
    assert hashlib.sha256(cli._render(payload, "json").encode()).hexdigest() == sha


def test_verify_runs_every_check_above_4096_states(capsys):
    assert run(["verify", "--chain", "13"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == 15
    assert "h_min_eigenvalue_zero" in names and "kernel_census" in names
    assert payload["failures"] == 0


def test_groundstates_guard_fires_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the memory guard")

    monkeypatch.setattr(nicolai.grammar, "permitted_codes", refuse)
    _eight_gib(monkeypatch)
    # 36 sites: 3**18 + 1 codes of 8 bytes, eight times over
    assert run(["groundstates", "--ring", "--m", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the ground-state listing needs ~23.1 GiB of word arrays; "
        "this machine has 8.0 GiB\n"
    )


@pytest.mark.parametrize(
    "argv, need",
    [(["--torus", "6x6"], "20480.0"), (["--ring", "--m", "12"], "16.0")],
    ids=["torus6x6", "ring12"],
)
def test_verify_susy_guard_fires_before_enumerating(argv, need, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the memory guard")

    monkeypatch.setattr(nicolai.grammar, "permitted_codes", refuse)
    _refuse_building(monkeypatch, AssertionError("built past the memory guard"))
    _eight_gib(monkeypatch)
    assert run(["groundstates", *argv, "--verify-susy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the ground-state check needs ~{need} GiB of word arrays and "
        "sparse matrices; this machine has 8.0 GiB\n"
    )
    # the transfer count enumerates and builds nothing
    argv = ["groundstates", "--ring", "--m", "39", "--transfer-matrix", "--verify-susy"]
    assert run(argv) == 0


def test_verify_susy_lists_a_planted_non_ground_code(capsys, monkeypatch):
    # two non-ground codes around the ground codes: the failures are spelled
    # in code order, which here is not ascending
    lat = nicolai.Lattice.ring(2)
    low, high = np.flatnonzero(~nicolai.groundstates.ground_config_mask(lat))[[0, -1]].tolist()
    ground_codes = nicolai.groundstates._ground_codes

    def planted(lattice):
        codes = ground_codes(lattice)
        return np.concatenate([np.array([high], codes.dtype), codes, np.array([low], codes.dtype)])

    monkeypatch.setattr(nicolai.groundstates, "_ground_codes", planted)
    assert run(["groundstates", "--ring", "--m", "2", "--verify-susy"]) == 3
    payload = json.loads(capsys.readouterr().out)
    spelled = [f"{c:06b}"[::-1] for c in (high, low)]
    assert payload["susy_failures"] == spelled
    assert [payload["configs"][i] for i in (0, -1)] == spelled


def test_groundstates_lists_ring_m12(capsys):
    assert run(["groundstates", "--ring", "--m", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == payload["transfer_matrix_count"] == 3**13 - 1
    assert "configs" not in payload


def test_groundstates_verifies_susy_on_the_4x4_torus(capsys):
    assert run(["groundstates", "--torus", "4x4", "--verify-susy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 51488 and payload["susy_failures"] == []


def test_charges_interval_checks_past_l_minus_k_7(capsys):
    assert run(["charges", "--interval", "0", "8", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["embedding_chain"] == [-2, 18]
    assert payload["count"] == payload["transfer_matrix_count"] == 4374
    assert payload["max_commutator_residual"] == 0


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["--ring", "--m", "3"], 1),
        (["--ring", "--m", "2", "--verify-susy"], 1),
        (["--torus", "4x4"], 1),
        (["--ring", "--m", "5", "--transfer-matrix"], 0),
    ],
    ids=["ring3", "ring2-verify-susy", "torus4x4", "ring5-transfer-matrix"],
)
def test_groundstates_enumerates_once(argv, calls, capsys, monkeypatch):
    counted = _count_calls(monkeypatch, [(nicolai.grammar, "permitted_codes")])
    assert run(["groundstates", *argv]) == 0
    assert counted["permitted_codes"] == calls


def test_groundstates_transfer_count_is_exact_past_int64(capsys):
    assert run(["groundstates", "--ring", "--m", "39", "--transfer-matrix"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3**40 + 1


def test_charges_ring_guard_fires_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the memory guard")

    monkeypatch.setattr(nicolai.grammar, "permitted_codes", refuse)
    assert run(["charges", "--ring", "--m", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the charge listing needs ~")
    assert "GiB of word arrays" in captured.err


def test_charges_ring_m13_gets_past_the_memory_guard(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(nicolai.grammar, "permitted_codes", reached)
    with pytest.raises(Reached):
        run(["charges", "--ring", "--m", "13"])


def _count_calls(monkeypatch, builders):
    """Wrap each ``(module, name)`` builder under every alias in the package."""
    calls = Counter()
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nicolai"]
    for home, name in builders:
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_calls_each_model_builder_once(capsys, monkeypatch):
    builders = [
        (nicolai.fock, "enumerate_basis"),
        (nicolai.model, "build_supercharge"),
        (nicolai.model, "build_h_classical"),
        (nicolai.model, "build_h_hop"),
        (nicolai.groundstates, "_ground_codes"),
        (nicolai.dynamics, "fragment_eigenvalues"),
    ]
    calls = _count_calls(monkeypatch, builders)
    assert run(["verify", "--ring", "--m", "2"]) == 0
    assert dict(calls) == {name: 1 for _, name in builders}


@pytest.mark.parametrize(
    "argv, count",
    [
        (["verify", "--ring", "--m", "3"], 0),
        (["verify", "--torus", "4x4"], 0),
        (["build", "--ring", "--m", "3", "--verify"], 0),
        (["ergodicity", "--ring", "--m", "3"], 1),
        (["ergodicity", "--ring", "--m", "2", "--spectrum-csv"], 1),
    ],
    ids=["verify", "verify-torus", "build-verify", "ergodicity", "ergodicity-csv"],
)
def test_only_the_ergodicity_report_builds_eigenvectors(argv, count, capsys, monkeypatch, tmp_path):
    if "--spectrum-csv" in argv:
        argv = [*argv, str(tmp_path / "spectrum.csv")]
    calls = _count_calls(monkeypatch, [(nicolai.dynamics, "diagonalize")])
    assert run(argv) == 0
    assert calls["diagonalize"] == count


def test_verify_builds_every_sum_in_one_pass(capsys, monkeypatch):
    calls = _count_calls(
        monkeypatch, [(nicolai.fock, "monomial_to_sparse"), (nicolai.fock, "terms_to_sparse")]
    )
    assert run(["verify", "--ring", "--m", "3"]) == 0
    # Q alone: the translation, particle-hole, explicit-H and split
    # certificates compare terms and build no matrix
    assert dict(calls) == {"terms_to_sparse": 1}


@pytest.mark.parametrize(
    "argv",
    [["verify", "--ring", "--m", "3"], ["build", "--torus", "4x4", "--verify"]],
    ids=["verify", "build-verify"],
)
def test_verify_reads_number_and_parity_off_the_entries(argv, capsys, monkeypatch):
    calls = _count_calls(
        monkeypatch,
        [
            (nicolai.model, "number_operator"),
            (nicolai.fock, "parity_operator"),
            (nicolai.fock, "commutator"),
        ],
    )
    assert run(argv) == 0
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert passed["commutes_with_number"] and passed["q_is_odd"]
    assert not calls


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--ring", "--m", "4"],
        ["verify", "--chain", "11"],
        ["verify", "--torus", "4x4"],
        ["charges", "--ring", "--m", "4", "--check"],
        ["charges", "--interval", "0", "4", "--check"],
        ["ergodicity", "--ring", "--m", "4"],
    ],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_sweep_builds_no_object_per_charge(argv, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, [(nicolai.charges, "conservation_check")])
    post_init = nicolai.charges.ConservedSequence.__post_init__

    def counted(self):
        calls["ConservedSequence"] += 1
        post_init(self)

    monkeypatch.setattr(nicolai.charges.ConservedSequence, "__post_init__", counted)
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    # the sweep builds none: the interval listing builds the sequences it
    # lists, and the ergodicity report the one member its cross-check builds
    built = {"charges": payload.get("count", 0), "ergodicity": 1}.get(argv[0], 0)
    assert dict(calls) == ({"ConservedSequence": built} if built else {})
    if argv[0] == "verify":
        (conserved,) = [c for c in payload["checks"] if c["name"].endswith("_conserved")]
        count = {"--ring": 642, "--chain": 358, "--torus": 18}[argv[1]]
        assert conserved["passed"] and conserved["detail"] == {"count": count}
    elif argv[0] == "charges":
        assert payload["max_commutator_residual"] == 0
    else:
        assert len(payload["report"]["generators"]) == 642


@pytest.mark.parametrize(
    "argv, built",
    [
        (["verify", "--chain", "11"], 0),
        (["verify", "--ring", "--m", "4"], 0),
        (["ergodicity", "--ring", "--m", "3"], 0),
        (["groundstates", "--ring", "--m", "3"], 0),
        (["groundstates", "--ring", "--m", "2", "--format", "text"], 0),
        (["groundstates", "--ring", "--m", "2", "--verify-susy"], 0),
    ],
    ids=lambda v: "-".join(v).replace("--", "") if isinstance(v, list) else str(v),
)
def test_cli_builds_a_configuration_only_to_verify_susy(argv, built, capsys, monkeypatch):
    # the ground states are read off the word codes, and --verify-susy
    # decides annihilation on the CSR rows of Q*, Q and H
    calls = Counter()
    post_init = nicolai.Configuration.__post_init__

    def counted(self):
        calls["Configuration"] += 1
        post_init(self)

    monkeypatch.setattr(nicolai.Configuration, "__post_init__", counted)
    assert run(argv) == 0
    assert calls["Configuration"] == built


@pytest.mark.parametrize("check", [False, True])
def test_ring_charges_enumerate_the_catalogue_once(check, capsys, monkeypatch):
    # one permitted_codes call per arc length and one for the full ring; the
    # listing alone runs no validation pass
    calls = _count_calls(
        monkeypatch, [(nicolai.grammar, "permitted_codes"), (nicolai.charges, "_validate_blocks")]
    )
    assert run(["charges", "--ring", "--m", "7"] + ["--check"] * check) == 0
    assert dict(calls) == {"permitted_codes": 8, **({"_validate_blocks": 1} if check else {})}
    payload = json.loads(capsys.readouterr().out)
    assert payload["embeddable_count"] + payload["full_ring_count"] == 24050


@pytest.mark.parametrize(
    "argv, counts",
    [
        (["charges", "--ring", "--m", "7"], {"embeddable_count": 17488, "full_ring_count": 6562}),
        (["groundstates", "--ring", "--m", "10"], {"count": 177146}),
    ],
    ids=["charges", "groundstates"],
)
def test_count_only_listings_unpack_no_rows(argv, counts, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a count-only listing unpacked word rows")

    for name in ("unpack", "permitted_words"):
        monkeypatch.setattr(nicolai.grammar, name, refuse)
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload[key] for key in counts} == counts


def test_ergodicity_ring_m4_pin(capsys):
    # the exact part (labels, trace gaps, invariant dimension, witness) is
    # hashed; the Gibbs gaps, eigensolver floats, are checked against the
    # oracle on the sparse matrices of the sequence objects
    assert run(["ergodicity", "--ring", "--m", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    assert report["invariant_dimension"] == 322
    gibbs = {k: report["gaps"].pop(k) for k in list(report["gaps"]) if k != "trace"}
    text = cli._render(payload, "json")
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "cead8ccaaf495c9c736bc412cf627690b8f2b9416e1487f00ce79cb60410eab8"
    )
    spec = nicolai.ModelSpec.ring(4)
    generators = []
    for f in nicolai.charges.lattice_sequences(spec.lattice):
        qf = nicolai.monomial_to_sparse(nicolai.sequence_to_operator(f), spec.basis)
        generators.append(qf + qf.adjoint())
    want = nicolai.dynamics._gibbs_gaps(generators, spec.spectrum, (0.5, 1.0, 2.0))
    assert list(gibbs) == list(want)
    for label, gaps in gibbs.items():
        assert np.abs(np.array(gaps) - want[label]).max() <= 1e-12


def test_ergodicity_ring_m3_pin(capsys):
    # the Gibbs gap lists, eigensolver floats, are dropped once each holds
    # one positive gap per generator; the exact rest is hashed
    assert run(["ergodicity", "--ring", "--m", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    assert len(report["generators"]) == 186 and report["invariant_dimension"] == 94
    for label in [k for k in report["gaps"] if k != "trace"]:
        gaps = report["gaps"].pop(label)
        assert len(gaps) == 186 and min(gaps) > 0
    assert list(report["gaps"]) == ["trace"]
    text = cli._render(payload, "json")
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "5be359a0f2bcca58466c83956564769c6ab79483d0687a5c275b89f34eff4afa"
    )


def test_main_builds_one_parser_and_keeps_its_help_text(capsys, monkeypatch):
    built = Counter()
    flags = cli._add_lattice_flags

    def counted(p):
        built[p.prog] += 1
        flags(p)

    monkeypatch.setattr(cli, "_add_lattice_flags", counted)
    cli._parser.cache_clear()
    try:
        assert run(["charges", "--ring", "--m", "2"]) == 0
        assert run(["charges", "--ring", "--m", "3"]) == 0
        # one parser, whose five subcommands each took the lattice flags once
        assert len(built) == 5 and set(built.values()) == {1}
        # the command is looked up at call time, so a rebound cmd_* is called
        monkeypatch.setattr(cli, "cmd_charges", lambda args: 7)
        assert run(["charges", "--ring", "--m", "2"]) == 7
        assert len(built) == 5 and set(built.values()) == {1}
    finally:
        cli._parser.cache_clear()
    # the shared --beta default is read, never mutated
    beta = cli._parser().parse_args(["ergodicity", "--ring", "--m", "1"]).beta
    assert run(["ergodicity", "--ring", "--m", "1", "--beta", "3"]) == 0
    assert run(["ergodicity", "--ring", "--m", "1"]) == 0
    assert beta == [0.5, 1.0, 2.0]
    capsys.readouterr()
    # the help of the program and of each subcommand, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    for sub in ([], ["build"], ["charges"], ["groundstates"], ["ergodicity"], ["verify"]):
        with pytest.raises(SystemExit) as exit_:
            run(sub + ["--help"])
        assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "567d75f636a331372dd5817743c075292445c804715154380e8f3892d5156bc9"
    )


def test_verify_builds_the_translation_certificate_once(capsys, monkeypatch):
    # translation2_h and the orbit sweep of charges_conserved read one
    # certificate from the model
    calls = _count_calls(monkeypatch, [(nicolai.model, "translate2")])
    assert run(["verify", "--ring", "--m", "2"]) == 0
    assert dict(calls) == {"translate2": 1}
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["passed"] for c in checks}["translation2_h"]


def test_verify_certifies_the_whole_catalogue_by_orbits(capsys):
    assert run(["verify", "--ring", "--m", "5"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    (conserved,) = [c for c in checks if c["name"] == "charges_conserved"]
    assert conserved["passed"] and conserved["detail"] == {"count": 2182}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "command",
    ["verify --chain 1", "verify --chain 3"]
    + [c for c in GOLDEN_STDOUT if "--format text" not in c],
)
def test_json_stdout_holds_only_json_values(command, capsys):
    # a chain of 1 or 3 sites has no charge, so H = 0 has no positive eigenvalue
    assert run(command.split()) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if command.startswith("verify"):
        (census,) = [c for c in payload["checks"] if c["name"] == "kernel_census"]
        assert census["detail"]["min_positive_h"] is None
        assert census["detail"]["min_positive_classical"] is None


@pytest.mark.parametrize(
    "argv, target",
    [
        (["build", "--ring", "--m", "1", "--output"], "missing/x.json"),
        (["build", "--ring", "--m", "1", "--output"], "dir/"),
        (["build", "--ring", "--m", "1", "--output"], "dir"),
        (["ergodicity", "--ring", "--m", "1", "--spectrum-csv"], "missing/x.csv"),
    ],
    ids=["missing-dir", "dir-slash", "dir", "csv-missing-dir"],
)
def test_an_unwritable_path_exits_2_and_leaves_no_temp_file(argv, target, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    assert run([*argv, str(tmp_path / target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not [p.name for p in tmp_path.rglob("*.tmp-*")]
    assert not (tmp_path / "missing").exists()


def test_verify_fails_translation2_h_on_a_shifted_sum(capsys, monkeypatch):
    # one charge negated: T no longer maps the terms of Q onto themselves
    build = nicolai.model.build_supercharge

    def negated(spec):
        q = build(spec)
        return type(q)((q.terms[0].scaled(-1),) + q.terms[1:])

    monkeypatch.setattr(nicolai.model, "build_supercharge", negated)
    assert run(["verify", "--ring", "--m", "2"]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert not {c["name"]: c["passed"] for c in checks}["translation2_h"]


def _rho_q(spec):
    return nicolai.particle_hole(spec.q_sum).to_sparse(spec.basis)


@pytest.mark.parametrize(
    "spec",
    [*(nicolai.ModelSpec.ring(m) for m in range(1, 7)), nicolai.ModelSpec.chain_sites(13)]
    + [nicolai.ModelSpec.torus(4, 4)],
    ids=lambda s: f"{s.lattice.boundary}-{s.lattice.nsites}",
)
def test_particle_hole_h_derivation_agrees_with_the_products(spec):
    # verify passes particle_hole_h on rho(Q) == s Q* and H == {Q, Q*}; the
    # sparse products are the oracle of that derivation
    rho_q = _rho_q(spec)
    sign = -1 if spec.lattice.dimension == 1 else 1
    assert (rho_q - sign * spec.q_dagger).is_zero()
    assert nicolai.fock.anticommutator(rho_q, rho_q.adjoint()).equals(spec.h)


ONE_D_SPECS = [nicolai.ModelSpec.ring(m) for m in range(1, 7)] + [
    nicolai.ModelSpec.chain_sites(n) for n in range(1, 14, 2)
]


def _spec_id(spec):
    return f"{spec.lattice.boundary}-{spec.lattice.nsites}"


def _first_term_flipped(a):
    """The operator sum ``a`` with its first term's sign flipped."""
    return nicolai.OperatorSum((a.terms[0].scaled(-1),) + a.terms[1:])


@pytest.mark.parametrize("spec", ONE_D_SPECS + [nicolai.ModelSpec.torus(4, 4)], ids=_spec_id)
def test_particle_hole_term_identity_agrees_with_the_matrix(spec):
    # verify decides rho(Q) == s Q* on normal forms; the matrices are the oracle,
    # for the right sign, the wrong one and rho(Q) with one charge negated
    lat, q = spec.lattice, spec.q_sum
    sign = -1 if lat.dimension == 1 else 1
    rho = nicolai.particle_hole(q)
    bent = _first_term_flipped(rho) if len(q) else rho
    for lhs, s in ((rho, sign), (rho, -sign), (bent, sign)):
        term = lhs.normal_form(lat) == q.adjoint().scaled(s).normal_form(lat)
        matrix = (lhs.to_sparse(spec.basis) - s * spec.q_dagger).is_zero()
        assert term == matrix
    assert rho.normal_form(lat) == q.adjoint().scaled(sign).normal_form(lat)


@pytest.mark.parametrize("spec", ONE_D_SPECS, ids=_spec_id)
def test_explicit_h_term_identity_agrees_with_the_matrix(spec):
    # verify decides explicit == {Q, Q*} and H_classical + H_hop == {Q, Q*}
    # on normal forms; the matrices are the oracle
    lat, h = spec.lattice, spec.h
    classical, hop = nicolai.build_h_classical(spec), nicolai.build_h_hop(spec)
    explicit = nicolai.build_hamiltonian_explicit(spec)
    q = spec.q_sum
    h_form = (q * q.adjoint() + q.adjoint() * q).normal_form(lat)
    split = (classical + hop).normal_form(lat)
    assert h.equals(classical.to_sparse(spec.basis) + hop.to_sparse(spec.basis))
    assert explicit.normal_form(lat) == split == h_form
    assert h.equals(explicit.to_sparse(spec.basis))
    if explicit.terms:
        flipped = _first_term_flipped(explicit)
        assert flipped.normal_form(lat) != split
        assert not h.equals(flipped.to_sparse(spec.basis))


def _flipping_first_terms(build):
    """The builder ``build`` with its sum's first term flipped."""
    return lambda spec: _first_term_flipped(build(spec))


def test_verify_fails_an_explicit_term_of_the_wrong_sign(capsys, monkeypatch):
    flipped = _flipping_first_terms(cli.build_hamiltonian_explicit)
    monkeypatch.setattr(cli, "build_hamiltonian_explicit", flipped)
    calls = _count_calls(monkeypatch, [(nicolai.fock, "terms_to_sparse")])
    assert run(["verify", "--ring", "--m", "3"]) == 3
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not passed["h_susy_equals_explicit"]
    assert passed["h_equals_classical_plus_hop"]
    # decided on the terms: no explicit-H matrix is built
    assert calls["terms_to_sparse"] == 1


def test_explicit_h_falls_back_to_the_matrix_when_the_split_fails(capsys, monkeypatch):
    # a wrong H_hop fails the split alone; H == explicit stands on {Q, Q*}
    flipped = _flipping_first_terms(cli.build_h_hop)
    monkeypatch.setattr(cli, "build_h_hop", flipped)
    calls = _count_calls(monkeypatch, [(nicolai.fock, "terms_to_sparse")])
    assert run(["verify", "--ring", "--m", "3"]) == 3
    payload = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failed == ["h_equals_classical_plus_hop"]
    # Q alone: both sides of both identities are terms
    assert calls["terms_to_sparse"] == 1


def test_particle_hole_h_falls_back_to_the_products(capsys, monkeypatch):
    # one charge negated in rho(Q): particle_hole_q fails, and particle_hole_h
    # reports what the sparse products say, decided on the terms
    def negated(q):
        terms = nicolai.particle_hole(q).terms
        return nicolai.OperatorSum((terms[0].scaled(-1),) + terms[1:])

    spec = nicolai.ModelSpec.ring(3)
    rho_q = negated(spec.q_sum).to_sparse(spec.basis)
    want = nicolai.fock.anticommutator(rho_q, rho_q.adjoint()).equals(spec.h)
    calls = _count_calls(monkeypatch, [(nicolai.fock, "terms_to_sparse")])
    monkeypatch.setattr(cli, "particle_hole", negated)
    assert run(["verify", "--ring", "--m", "3"]) == 3
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not passed["particle_hole_q"]
    assert passed["particle_hole_h"] == want
    # Q alone: no rho(Q) matrix
    assert calls["terms_to_sparse"] == 1


def test_verify_torus_checks_particle_hole_h_without_a_sparse_product(capsys, monkeypatch):
    products = Counter()
    matmul = scipy.sparse._compressed._cs_matrix._matmul_sparse

    def counted(self, other):
        products["sparse"] += 1
        return matmul(self, other)

    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_matmul_sparse", counted)
    calls = _count_calls(monkeypatch, [(nicolai.fock, "terms_to_sparse")])
    assert run(["verify", "--torus", "4x4"]) == 0
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert passed["particle_hole_q"] and passed["particle_hole_h"]
    # Q alone is built: no rho(Q)
    assert calls["terms_to_sparse"] == 1
    # Q Q* and Q* Q for H: the nilpotency checks multiply terms, not matrices
    assert products["sparse"] == 2


@pytest.mark.parametrize(
    "spec",
    ONE_D_SPECS + [nicolai.ModelSpec.torus(4, 4)],
    ids=_spec_id,
)
def test_q_squared_term_identity_agrees_with_the_matrix(spec):
    # verify decides Q**2 == 0 on normal forms; Q Q is the oracle, for Q and
    # for the planted sum Q + Q*, whose square is H
    lat, q = spec.lattice, spec.q_sum
    for a in (q, q + q.adjoint()):
        m = a.to_sparse(spec.basis)
        assert ((a * a).normal_form(lat) == {}) == (m @ m).is_zero()
    assert (q * q).normal_form(lat) == {}
    if len(q):
        assert ((q + q.adjoint()) * (q + q.adjoint())).normal_form(lat) != {}


def test_verify_fails_q_squared_zero_on_a_planted_sum(capsys, monkeypatch):
    build = nicolai.model.build_supercharge
    monkeypatch.setattr(nicolai.model, "build_supercharge", lambda s: build(s) + build(s).adjoint())
    assert run(["verify", "--ring", "--m", "2"]) == 3
    passed = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not passed["q_squared_zero"] and not passed["q_dagger_squared_zero"]


def _count_products(monkeypatch):
    """Count the products of operator sums."""
    calls = Counter()
    mul = nicolai.OperatorSum.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(nicolai.OperatorSum, "__mul__", counted)
    return calls


@pytest.mark.parametrize(
    "spec",
    [nicolai.ModelSpec.ring(2), nicolai.ModelSpec.chain_sites(7), nicolai.ModelSpec.torus(4, 4)],
    ids=_spec_id,
)
@pytest.mark.parametrize("negate", ["all", "first"])
def test_particle_hole_h_fallback_agrees_with_the_products(spec, negate, monkeypatch):
    # rho(Q) with every charge negated fails particle_hole_q but keeps
    # {rho(Q), rho(Q)*} == H; with one charge negated it breaks both
    def planted(q):
        rho = nicolai.particle_hole(q)
        return -rho if negate == "all" else _first_term_flipped(rho)

    rho_q = planted(spec.q_sum).to_sparse(spec.basis)
    want = nicolai.fock.anticommutator(rho_q, rho_q.adjoint()).equals(spec.h)
    assert want == (negate == "all")
    monkeypatch.setattr(cli, "particle_hole", planted)
    products = _count_products(monkeypatch)
    passed = {c["name"]: c["passed"] for c in cli._build_checks(spec, 0)}
    assert not passed["particle_hole_q"]
    assert passed["particle_hole_h"] == want
    # Q Q, then {Q, Q*} (for the 1D identities first) and {rho(Q), rho(Q)*}:
    # two products each
    assert products["mul"] == 5


@pytest.mark.parametrize("explicit_flipped", [False, True], ids=["explicit-right", "explicit-wrong"])
def test_explicit_h_fallback_agrees_with_the_matrix(explicit_flipped, monkeypatch):
    # a wrong H_hop fails the split alone; the explicit H is compared with
    # {Q, Q*} as terms, and H == explicit on the matrices is the oracle
    monkeypatch.setattr(cli, "build_h_hop", _flipping_first_terms(cli.build_h_hop))
    if explicit_flipped:
        flipped = _flipping_first_terms(cli.build_hamiltonian_explicit)
        monkeypatch.setattr(cli, "build_hamiltonian_explicit", flipped)
    spec = nicolai.ModelSpec.ring(3)
    explicit = cli.build_hamiltonian_explicit(spec).to_sparse(spec.basis)
    want = spec.h.equals(explicit)
    assert want != explicit_flipped
    products = _count_products(monkeypatch)
    passed = {c["name"]: c["passed"] for c in cli._build_checks(spec, 0)}
    assert not passed["h_equals_classical_plus_hop"]
    assert passed["h_susy_equals_explicit"] == want
    assert sum(not p for p in passed.values()) == 2 - want  # and no other check fails
    # Q Q, then {Q, Q*}
    assert products["mul"] == 3


def test_both_fallbacks_build_the_terms_of_h_once(monkeypatch):
    monkeypatch.setattr(cli, "build_h_hop", _flipping_first_terms(cli.build_h_hop))
    monkeypatch.setattr(cli, "particle_hole", lambda q: -nicolai.particle_hole(q))
    products = _count_products(monkeypatch)
    passed = {c["name"]: c["passed"] for c in cli._build_checks(nicolai.ModelSpec.ring(3), 0)}
    assert passed["h_susy_equals_explicit"] and passed["particle_hole_h"]
    assert not passed["h_equals_classical_plus_hop"] and not passed["particle_hole_q"]
    assert products["mul"] == 5


@pytest.mark.parametrize(
    "spec", [nicolai.ModelSpec.ring(3), nicolai.ModelSpec.torus(4, 4)], ids=_spec_id
)
def test_a_passing_run_builds_no_terms_of_h(spec, monkeypatch):
    products = _count_products(monkeypatch)
    assert all(c["passed"] for c in cli._build_checks(spec, 0))
    # Q Q, and in 1D {Q, Q*}, the one side of both H identities
    assert products["mul"] == (3 if spec.lattice.dimension == 1 else 1)


@pytest.mark.parametrize(
    "module", ["fock", "model", "grammar", "charges", "groundstates", "dynamics"]
)
def test_every_name_in_all_resolves(module):
    mod = getattr(nicolai, module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
