"""Command-line front end.

Subcommands: ``build``, ``charges``, ``groundstates``, ``ergodicity``,
``verify``.  Output is machine-readable JSON (``{"schema": 1, ...}``, floats
at 15 significant digits, keys sorted) or plain text; identical configuration
and seed produce byte-identical output.  Exit codes: 0 all pass, 2 bad
configuration (including a model too big to allocate), 3 verification
failure.  Each command resolves one :class:`~nicolai.model.ModelSpec` and
passes it everywhere, so the basis, Q, H and the spectrum are built once per
command and freed when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import charges as ch
from . import dynamics as dyn
from . import grammar
from . import groundstates as gs
from .fock import SparseOperator
from .fock import monomial_to_sparse  # noqa: F401  alias read by bench/test_bench.py
from .model import ModelSpec, build_h_classical, build_h_hop, build_hamiltonian_explicit, particle_hole

SCHEMA = 1


def _round15(obj):
    """Round every float in a payload tree to 15 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_round15(payload), sort_keys=True, indent=2) + "\n"
    lines = [f"# {payload['command']}"]
    for check in payload.get("checks", []):
        lines.append(f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}")
    for key, value in payload.items():
        if key in ("command", "checks", "schema"):
            continue
        if key == "config_lines":
            lines.extend(value)
            continue
        lines.append(f"{key}: {json.dumps(_round15(value), sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(payload: dict, args) -> None:
    text = _render(payload, args.format)
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _add_lattice_flags(p: argparse.ArgumentParser):
    p.add_argument("--ring", action="store_true", help="periodic 1D ring [-m-1, m]")
    p.add_argument("--m", type=int, help="ring size parameter")
    p.add_argument("--chain", type=int, metavar="NSITES", help="open chain [0, NSITES-1]")
    p.add_argument("--torus", metavar="WxH", help="periodic 2D torus, e.g. 4x4")


def _resolve_spec(args) -> ModelSpec:
    picks = sum(bool(x) for x in (args.ring, args.chain is not None, args.torus))
    if picks != 1:
        raise ValueError("choose exactly one of --ring/--chain/--torus")
    if args.ring:
        if args.m is None:
            raise ValueError("--ring requires --m")
        return ModelSpec.ring(args.m)
    if args.chain is not None:
        return ModelSpec.chain_sites(args.chain)
    try:
        w, h = (int(x) for x in args.torus.lower().split("x"))
    except Exception as exc:
        raise ValueError(f"cannot parse torus size {args.torus!r}") from exc
    return ModelSpec.torus(w, h)


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _restrict(m, active: np.ndarray, pos: np.ndarray):
    """The CSR matrix ``m`` on the ``active`` states, in its own dtype and
    sharing its ``data``.  Every inactive row and column of ``m`` must be
    empty: then the active rows' starts and the last end delimit the same
    entries, and ``pos[s]``, the rank of state ``s`` among the active ones,
    renumbers every column."""
    n = int(pos[-1]) + 1
    indptr = np.append(m.indptr[:-1][active], m.indptr[-1])
    return type(m)((m.data, pos[m.indices], indptr), shape=(n, n))


def _row_abs_sums(m) -> np.ndarray:
    """``sum_j |m_ij|`` over the nonempty rows of the int64 CSR ``m``,
    accumulated in float64: a sum of nonnegative integers is exact there
    while it stays below 2**53, and rounding is monotone above, so it is
    compared with any power of two below 2**53 exactly."""
    a = np.abs(m.data).view(np.uint64)  # the view is |x| for -2**63 too
    return np.add.reduceat(a, m.indptr[:-1][np.diff(m.indptr) > 0], dtype=np.float64)


def _quadratic_forms(
    h: SparseOperator, q: SparseOperator, qd: SparseOperator, seed: int
) -> tuple:
    """``(v.Hv == |Qv|**2 + |Q*v|**2, v.Hv >= 0)``, exactly, on 20 integer
    probes ``v`` uniform in [-128, 128) from ``default_rng(seed)``.

    The forms are computed in int64 with no rounding.  A discrepancy
    ``D = H - Q^T Q - Q*^T Q*`` with a nonzero symmetric part makes
    ``v.Dv`` a nonzero polynomial of degree 2, which by Schwartz-Zippel
    vanishes on at most 2/256 of the probes; all 20 pass it with
    probability at most 2**-140.  Every partial sum of the products is
    bounded by ``128**2 * max(sum |H_ij|, sum_i (sum_j |Q_ij|)**2 +
    sum_i (sum_j |Q*_ij|)**2)``; ``OverflowError`` is raised, before any
    probe is drawn, unless that is below 2**63.

    The forms read a probe only on the active states, those with a stored
    entry in the row or column of H or Q (``qd`` is Q's transpose, so its
    rows and columns are Q's columns and rows), so the probes are drawn
    there alone and the statistic has the distribution of full-space probes.
    Blocks of probes of at most 2**14 entries (128 KiB of int64; larger
    blocks measured slower, on fresh pages) go through one sparse-dense
    product per operator, one product held at a time."""
    mats = (h.matrix, q.matrix, qd.matrix)
    active = np.zeros(h.dim, dtype=bool)
    for m in mats[:2]:
        active |= np.diff(m.indptr) > 0
        active[m.indices] = True
    pos = np.cumsum(active, dtype=h.matrix.indices.dtype) - 1
    hr, qr, qdr = (_restrict(m, active, pos) for m in mats)
    del active, pos
    bound = max(_row_abs_sums(hr).sum(), sum((_row_abs_sums(m) ** 2).sum() for m in (qr, qdr)))
    if bound >= 2.0**49:  # 128**2 * bound >= 2**63
        raise OverflowError(
            f"the probes' int64 quadratic forms may overflow: 128**2 * {bound:.3g} >= 2**63"
        )
    n = hr.shape[0]
    rng = np.random.default_rng(seed)
    probes = 20
    width = max(1, (1 << 14) // max(n, 1))
    quad_ok = psd_ok = True
    for done in range(0, probes, width):
        v = rng.integers(-128, 128, (n, min(width, probes - done)), dtype=np.int8)
        v = v.astype(np.int64)
        hv = np.einsum("ij,ij->j", v, hr @ v)
        p = qr @ v
        qq = np.einsum("ij,ij->j", p, p)
        del p
        p = qdr @ v
        qq += np.einsum("ij,ij->j", p, p)
        del p
        quad_ok &= bool((hv == qq).all())
        psd_ok &= bool((hv >= 0).all())
    return quad_ok, psd_ok


def _entry_numbers(op: SparseOperator) -> tuple:
    """Particle numbers ``(N_i, N_j)`` of the row and the column of each
    nonzero stored entry of ``op``; explicit zeros are skipped, as a sparse
    product skips them."""
    m = op.matrix
    pc = op.basis.popcounts.astype(np.uint8)
    nonzero = m.data != 0
    return np.repeat(pc, np.diff(m.indptr))[nonzero], pc[m.indices[nonzero]]


def _conserves_number(op: SparseOperator) -> bool:
    """``[op, N] == 0``, whose entries are ``op_ij (N_j - N_i)``."""
    n_i, n_j = _entry_numbers(op)
    return bool(np.array_equal(n_i, n_j))


def _is_odd(op: SparseOperator) -> bool:
    """``P op P == -op`` for the parity ``P = (-1)**N``: the entries of
    ``P op P + op`` are ``op_ij ((-1)**(N_i + N_j) + 1)``."""
    n_i, n_j = _entry_numbers(op)
    return bool(((n_i ^ n_j) & 1).all())


def _build_checks(spec: ModelSpec, seed: int) -> list:
    lat = spec.lattice
    q, qm, qd, h = spec.q_sum, spec.q, spec.q_dagger, spec.h
    # Term identities decide matrix identities: the merged normal form is
    # canonical in the CAR algebra, whose Fock representation is faithful.
    # (Q*)**2 == (Q**2)*, so Q**2 == 0 decides both nilpotency checks.
    q_nilpotent = (q * q).normal_form(lat) == {}
    checks = [
        _check("q_squared_zero", q_nilpotent),
        _check("q_dagger_squared_zero", q_nilpotent),
    ]

    quad_ok, psd_ok = _quadratic_forms(h, qm, qd, seed)
    checks.append(_check("h_quadratic_form", quad_ok))
    checks.append(_check("h_positive_semidefinite", psd_ok))

    def anticommutator_form(a) -> dict:
        """``{A, A*}`` as a normal form."""
        return (a * a.adjoint() + a.adjoint() * a).normal_form(lat)

    # H is built as {Q, Q*} from Q's matrix; its terms are built at most
    # once, for the 1D identities and the particle-hole fallback
    h_form = functools.cache(lambda: anticommutator_form(q))

    # Each operator built for a check is dropped once its check is appended.
    if lat.dimension == 1:
        # both sides are terms: no matrix beside H; once the split holds,
        # H's diagonal is H_classical and the rest H_hop (ModelSpec)
        explicit = build_hamiltonian_explicit(spec).normal_form(lat)
        checks.append(_check("h_susy_equals_explicit", explicit == h_form()))
        split = (build_h_classical(spec) + build_h_hop(spec)).normal_form(lat)
        checks.append(_check("h_equals_classical_plus_hop", split == h_form()))

    checks.append(_check("commutes_with_number", _conserves_number(h)))
    checks.append(_check("q_is_odd", _is_odd(qm)))
    # reversing the k mutually anticommuting factors of one local charge
    # costs (-1)**(k(k-1)/2): -Q* for the 1D triples, +Q* for the 2D crosses
    k = 3 if lat.dimension == 1 else 5
    ph_sign = -1 if (k * (k - 1) // 2) % 2 else 1
    rho = particle_hole(q)
    ph_q = rho.normal_form(lat) == q.adjoint().scaled(ph_sign).normal_form(lat)
    checks.append(_check("particle_hole_q", ph_q))
    # rho(Q) == s Q* exactly gives {rho(Q), rho(Q)*} == s**2 {Q*, Q} == H;
    # otherwise the terms of the two anticommutators decide
    ph_h = ph_q or anticommutator_form(rho) == h_form()
    checks.append(_check("particle_hole_h", ph_h))
    if lat.periodic:
        checks.append(_check("translation2_h", spec.h_translation2_invariant))
    # the eigenvalues come last, though their check is listed fifth, so no
    # operator built for a check above is held beside their fragment arrays
    e0 = float(spec.eigenvalues[0])
    checks.insert(4, _check("h_min_eigenvalue_zero", abs(e0) <= 1e-10, e0))
    return checks


def _verify_bytes(lat) -> int:
    """Estimated peak bytes of ``verify`` and ``build --verify``: 320 per
    Fock state, for the basis, Q, Q* and H (each int64 CSR; the 1D split is
    decided on terms and read off H, so no other operator matrix is built)
    and the eigenvalues, built last from the fragment arrays of
    ``fragment_eigenvalues`` (no eigenvector is kept).  Measured peaks of
    ``verify --ring`` at m = 8, 9, 10 and 11 above start-up are 158, 168,
    188 and 200 bytes per state (3197 MiB at m = 11); ``--chain 19`` takes
    147, ``--torus 4x4`` 48 and ``--torus 4x6`` 71.  320 leaves 60%
    headroom on the largest; m = 11 comes to 5.0 GiB."""
    return 320 << lat.nsites


def _build_bytes(lat) -> int:
    """Estimated peak bytes of plain ``build``, the basis and Q: 200 per Fock
    state, over 30% above the 118, 128, 139 and 150 of ``build --ring`` at
    m = 8, 9, 10 and 11 above start-up (2400 MiB at m = 11)."""
    return 200 << lat.nsites


def cmd_build(args) -> int:
    spec = _resolve_spec(args)
    need, what = (_verify_bytes, "the verify run") if args.verify else (_build_bytes, "the build")
    _require_memory(need(spec.lattice), what, "sparse matrices")
    payload = {
        "schema": SCHEMA,
        "command": "build",
        "model": json.loads(spec.to_json()),
        "supercharge_terms": len(spec.q_sum),
        "dimension": spec.basis.dim,
        "supercharge_nnz": spec.q.nnz,
    }
    if args.verify:
        payload["checks"] = checks = _build_checks(spec, args.seed)
        payload["failures"] = sum(not c["passed"] for c in checks)
    _emit(payload, args)
    return 3 if payload.get("failures") else 0


def _read_text(path: str) -> str:
    """The text of ``path``, or ``""`` where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _memory_bounds() -> list:
    """The bytes that bound this process below physical memory, as far as
    they can be read: ``MemAvailable`` in ``/proc/meminfo``, and the memory
    limit of this process's cgroup and of each ancestor (v1
    ``memory.limit_in_bytes``, v2 ``memory.max``).  A file that is missing
    or unreadable and a v2 limit of ``max`` bound nothing; an unlimited v1
    limit reads about 2**63, above any physical memory.  Nothing is written."""
    bounds = [
        int(line.split()[1]) * 1024
        for line in _read_text("/proc/meminfo").splitlines()
        if line.startswith("MemAvailable:")
    ]
    for line in _read_text("/proc/self/cgroup").splitlines():
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            limit = _read_text("/".join([root, *parts[:depth], name])).strip()
            if limit.isdigit():
                bounds.append(int(limit))
    return bounds


def _require_memory(need: int, what: str, held: str) -> None:
    """Refuse (exit 2) a run whose estimate ``need`` exceeds the memory this
    process can get, the least of physical memory and
    :func:`_memory_bounds`: the one way the command line refuses a run for
    its size."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    have = min([physical, *_memory_bounds()])
    if need > have:
        where = "this machine has" if have == physical else "this process can get"
        raise ValueError(
            f"{what} needs ~{need / 2**30:.1f} GiB of {held}; {where} {have / 2**30:.1f} GiB"
        )


def cmd_charges(args) -> int:
    payload = {"schema": SCHEMA, "command": "charges"}
    code = 0

    if args.tables:
        tables = ch.reference_interval_tables()
        out = {}
        config_lines = []
        for l, rows in tables.items():
            enumerated = {s.values for s in ch.enumerate_hat_xi(0, l)}
            match = enumerated == {s.values for s in rows}
            groups: dict = {}
            for s in rows:
                key = f"{'-' if s.values[0] < 0 else '+'}{'-' if s.values[-1] < 0 else '+'}"
                groups.setdefault(key, []).append(s.pattern)
            out[str(l)] = {
                "interval": [0, 2 * l],
                "count": len(rows),
                "groups": groups,
                "matches_enumeration": match,
            }
            config_lines.append(f"interval [0, {2 * l}] ({len(rows)} rows)")
            for key, pats in groups.items():
                for p in pats:
                    config_lines.append(f"  {key}  {p}")
            if not match:
                code = 3
        payload["tables"] = out
        payload["config_lines"] = config_lines
        _emit(payload, args)
        return code

    if args.interval:
        if args.ring or args.chain is not None or args.torus:
            raise ValueError("--interval cannot be combined with a lattice flag")
        k, l = args.interval
        counted = ch.transfer_count_hat_xi(k, l)
        need = _interval_listing_bytes(k, l, counted)
        if args.check:
            # the sequences stay held while the embedding chain's operators are built
            need += _check_bytes(2 * (l - k) + 5)
            _require_memory(need, "the charge check", "sequence objects and sparse matrices")
        else:
            _require_memory(need, "the charge listing", "sequence objects")
        seqs = ch.enumerate_hat_xi(k, l)
        payload["interval"] = [2 * k, 2 * l]
        payload["count"] = len(seqs)
        payload["transfer_matrix_count"] = counted
        payload["sequences"] = [s.to_json_obj() for s in seqs]
        if payload["count"] != payload["transfer_matrix_count"]:
            code = 3
        if args.check:
            # embed in a chain two sites wider on each side so the triples
            # straddling the support edges are present
            spec = ModelSpec.chain(2 * k - 2, 2 * l + 2)
            residual = int(ch.conservation_sweep(spec, seqs))
            payload["embedding_chain"] = [2 * k - 2, 2 * l + 2]
            payload["max_commutator_residual"] = residual
            if residual != 0:
                code = 3
    else:
        spec = _resolve_spec(args)
        lat = spec.lattice
        if lat.dimension != 1 or not lat.periodic:
            raise ValueError("charge listings need --interval or --ring")
        counted = ch.transfer_count_ring_sequences(lat)
        _require_memory(_listing_bytes(lat.nsites, counted), "the charge listing", "word arrays")
        # counted on the word codes alone, or checked on one catalogue of rows
        if args.check:
            _require_memory(_check_bytes(lat.nsites), "the charge check", "sparse matrices")
            *arcs, (_, ring_words, _) = blocks = ch._catalogue(lat)
            embeddable, full = ch._member_count(arcs), len(ring_words)
        else:
            embeddable, full = ch._ring_counts(lat)
        payload["model"] = json.loads(spec.to_json())
        payload["embeddable_count"] = embeddable
        payload["full_ring_count"] = full
        payload["full_ring_transfer_count"] = counted
        if payload["full_ring_count"] != payload["full_ring_transfer_count"]:
            code = 3
        if args.check:
            residual = int(ch._catalogue_residual(spec, ch._member_masks(lat, blocks)))
            payload["max_commutator_residual"] = residual
            if residual != 0:
                code = 3
    _emit(payload, args)
    return code


def _interval_listing_bytes(k: int, l: int, count: int) -> int:
    """Estimated peak bytes of ``charges --interval K L`` for its ``count``
    sequences: 1280 per sequence site, for the sequence objects, one JSON
    dict per site and the rendered text.  Measured peaks above start-up at
    l - k = 8, 9, 10 and 11 (75, 249, 821 and 2689 MiB) are 1058, 1047,
    1041 and 1038 bytes per sequence site; l - k = 12 comes to 10.6 GiB."""
    return 1280 * count * (2 * (l - k) + 1)


def _listing_bytes(n: int, count: int) -> int:
    """Peak bytes of enumerating ``count`` word codes of ``n`` positions:
    eight times their bytes (4 per code up to 32 positions, then 8).  The
    enumeration peaks in its last steps, on the doubled codes, their masked
    copy and the kept codes: 4 to 5 times the final bytes under tracemalloc
    at ring m = 8 to 13.  ``charges --ring --m 11, 12, 13`` peak 11, 28 and
    103 MB above start-up (estimates 17, 51 and 153 MB)."""
    return 8 * (4 if n <= 32 else 8) * count


def _check_bytes(n: int) -> int:
    """Estimated peak bytes of the basis, Q, Q* and H (int64 CSR) and the
    commutator kernel's chunks on ``n`` sites: 256 per Fock state.  Above
    start-up, ``charges --ring --m 7, 8, 9 --check`` peak at 165, 172 and
    203 bytes per state (203 MiB at m = 9), and ``charges --interval 0 L
    --check`` at L = 7, 8, 9 (chains of 19, 21, 23 sites, the sequences
    included) at 146, 160 and 172 bytes per state (1373 MiB at L = 9)."""
    return 256 << n


def cmd_groundstates(args) -> int:
    spec = _resolve_spec(args)
    lat = spec.lattice
    payload = {
        "schema": SCHEMA,
        "command": "groundstates",
        "model": json.loads(spec.to_json()),
        "sites": lat.nsites,
        "boundary": lat.boundary,
    }
    code = 0
    if args.transfer_matrix:
        payload["count"] = gs.transfer_count_ground_configs(lat)
        payload["entropy_density"] = gs.entropy_density(lat)
        _emit(payload, args)
        return code

    one_d = lat.dimension == 1
    # exact on rings and chains; 2**n bounds a torus (51488 of 65536 on 4x4)
    counted = gs.transfer_count_ground_configs(lat) if one_d else 2**lat.nsites
    need = _listing_bytes(lat.nsites, counted)
    if args.verify_susy:
        need += _check_bytes(lat.nsites)
        _require_memory(need, "the ground-state check", "word arrays and sparse matrices")
    else:
        _require_memory(need, "the ground-state listing", "word arrays")
    # one code array: counted, spelled if listed, its rows read for --verify-susy
    codes = gs._ground_codes(lat)
    payload["count"] = len(codes)
    if one_d:
        payload["transfer_matrix_count"] = counted
        payload["entropy_density"] = gs.entropy_density(lat)
        if payload["count"] != counted:
            code = 3
    if payload["count"] <= 10000:
        words = grammar.unpack(codes, lat.nsites, (0, 1))
        payload["configs"] = payload["config_lines"] = grammar.spell(words, "01")
    if args.verify_susy:
        bad = grammar.unpack(codes[~gs._annihilated(spec, codes)], lat.nsites, (0, 1))
        payload["susy_failures"] = grammar.spell(bad, "01")
        code = 3 if len(bad) else code
    _emit(payload, args)
    return code


def _ergodicity_bytes(lat) -> int:
    """Estimated peak bytes of the ergodicity report on a ring, from
    transfer-matrix counts.  512 per Fock state: the basis, H in int64 CSR
    with the copies the row certificate makes of it, V (5 stored entries
    per column at m = 9, written by ``diagonalize`` straight into CSC), and
    what the report adds beside them (V o V, one diagonal and one marginal,
    then the first generator's cross-check, which takes V^T A V and a CSR
    copy of V).  512 per generator: its masks, label and gaps, their
    rounded copies and its line of the JSON text.  Measured peaks of
    ``ergodicity --ring --m 7, 8, 9, 10`` above the 55 MiB of ``--m 1``
    (37, 138, 498 and 2140 MiB) stay below it (44, 166, 637 and 2452
    MiB); m = 11 comes to 9.3 GiB."""
    n = lat.nsites
    arcs = sum(n // 2 * ch.transfer_count_hat_xi(0, d) for d in range(1, (n - 2) // 2 + 1))
    generators = arcs + ch.transfer_count_ring_sequences(lat)
    return 512 * 2**n + 512 * generators


def cmd_ergodicity(args) -> int:
    if not np.isfinite(args.beta).all():
        raise ValueError(f"--beta must be finite, got {args.beta}")
    spec = _resolve_spec(args)
    lat = spec.lattice
    if lat.dimension == 1 and lat.periodic:
        _require_memory(_ergodicity_bytes(lat), "the ergodicity report", "sparse matrices")
    report = dyn.ergodicity_report(spec, betas=tuple(args.beta))
    payload = {
        "schema": SCHEMA,
        "command": "ergodicity",
        "model": json.loads(spec.to_json()),
        "betas": list(args.beta),
        "report": report.to_json_obj(),
    }
    payload["all_gaps_positive"] = gaps_ok = report.all_gaps_positive()
    code = 0 if gaps_ok and report.non_ergodic else 3
    if args.spectrum_csv:
        rows = dyn.spectrum_table(spec.spectrum)
        _write_atomic(
            args.spectrum_csv, _csv_text(["sector", "eigenvalue", "multiplicity"], rows)
        )
    _emit(payload, args)
    return code


def cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    lat = spec.lattice
    _require_memory(_verify_bytes(lat), "the verify run", "sparse matrices")
    checks = _build_checks(spec, args.seed)
    one_d = lat.dimension == 1

    residual, count = ch.lattice_sweep(spec)
    # the 2D report counts each rectangle constant twice, each torus constant once
    name, count = ("charges_conserved", count) if one_d else ("constants_conserved", 2 * count - 2)
    checks.append(_check(name, residual == 0, {"count": count}))

    mask = gs.ground_config_mask(lat, spec.basis)
    # Q* is Q's transpose: the zero columns of one are the empty CSR rows of the other
    col_zero = (np.diff(spec.q.matrix.indptr) == 0) & (np.diff(spec.q_dagger.matrix.indptr) == 0)
    equivalent = np.array_equal(mask, col_zero)
    if one_d:  # H's diagonal is H_classical's (ModelSpec)
        equivalent = equivalent and np.array_equal(mask, spec.h.diagonal() == 0)
    checks.append(
        _check("ground_state_equivalence", bool(equivalent), {"count": int(mask.sum())})
    )

    if one_d:
        census = gs.kernel_census(spec)
        checks.append(_check("kernel_census", census.consistent, vars(census)))
        rep = dyn.no_resonance_check(spec)
        checks.append(
            _check("no_resonance", rep.max_residual == 0, {"grounds": rep.ground_count})
        )

    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "model": json.loads(spec.to_json()),
        "checks": checks,
        "failures": sum(not c["passed"] for c in checks),
    }
    _emit(payload, args)
    return 3 if payload["failures"] else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It holds no
    command function: :func:`main` looks ``cmd_<subcommand>`` up when it is
    called, so a rebound ``cmd_*`` still takes effect."""
    parser = argparse.ArgumentParser(
        prog="nicolai",
        description="Exact diagonalization of the Nicolai supersymmetric fermion lattice model",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("build", help="build the model and summarize it", **common)
    _add_lattice_flags(p)
    p.add_argument("--verify", action="store_true", help="run the algebraic checks")

    p = sub.add_parser("charges", help="enumerate conserved sequences", **common)
    _add_lattice_flags(p)
    p.add_argument("--interval", type=int, nargs=2, metavar=("K", "L"), help="interval [2K, 2L]")
    p.add_argument("--check", action="store_true", help="verify commutators vanish")
    p.add_argument("--tables", action="store_true", help="dump the shipped golden tables")

    p = sub.add_parser("groundstates", help="census of classical ground states", **common)
    _add_lattice_flags(p)
    p.add_argument("--transfer-matrix", action="store_true", help="count only, via the transfer matrix")
    p.add_argument("--verify-susy", action="store_true", help="check Q|g> = Q*|g> = H|g> = 0")

    p = sub.add_parser("ergodicity", help="Mazur gaps of the conserved charges", **common)
    _add_lattice_flags(p)
    p.add_argument("--beta", type=float, nargs="+", default=[0.5, 1.0, 2.0], help="inverse temperatures")
    p.add_argument("--spectrum-csv", metavar="PATH", help="also export the spectrum as CSV")

    p = sub.add_parser("verify", help="run the full invariant suite", **common)
    _add_lattice_flags(p)

    for p_ in sub.choices.values():
        p_.add_argument("--output", metavar="PATH", help="write the report to PATH")
        p_.add_argument("--format", choices=("json", "text"), default="json")
        p_.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.subcommand}"](args)
    except (ValueError, KeyError, MemoryError, OverflowError, OSError, RuntimeError) as exc:
        # a bare MemoryError has no text; OverflowError is a model whose
        # integer keys or forms pass int64; OSError is an output path that
        # cannot be written; RuntimeError is a certificate that failed at
        # run time, such as an eigenpair residual above tolerance
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
