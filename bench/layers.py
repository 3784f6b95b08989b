"""Per-layer metrics computed from the spans of one traced workload run.

Names follow ``<module>.<function>.<quantity>``.  ``*.calls`` count spans,
``*.self_s`` sum self times (seconds), and the size metrics come from the
probes below, which read dimensions and counts off the arguments and
results at the layer boundary.  Byte figures are computed from array
shapes (float64), not measured.
"""

from __future__ import annotations

from collections import Counter

from tracer import self_times

ENUMERATORS = (
    "charges.enumerate_hat_xi",
    "charges.arc_sequences",
    "charges.all_embeddable_sequences",
    "charges.enumerate_ring_sequences",
    "charges.enumerate_rectangle_sequences",
)


def _max_block(spectrum) -> int:
    """Largest block diagonalized densely: a particle-number sector, or the
    whole space when the operator mixes sectors (sector label -1)."""
    sectors = spectrum.sectors.tolist()
    if -1 in sectors:
        return len(sectors)
    return max(Counter(sectors).values(), default=0)


def _count(args, kwargs, result) -> dict:
    return {"count": len(result)}


PROBES = {
    "fock.enumerate_basis": lambda a, k, r: {"dim": r.dim},
    "fock.monomial_to_sparse": lambda a, k, r: {"nnz": r.nnz, "dim": r.dim},
    "model.build_hamiltonian_susy": lambda a, k, r: {"nnz": r.nnz},
    "groundstates.enumerate_ground_configs": _count,
    "dynamics.diagonalize": lambda a, k, r: {"dim": r.dim, "max_block": _max_block(r)},
    "dynamics.ergodicity_report": lambda a, k, r: {
        "generators": len(r.generator_labels),
        "dim": 1 << (k.get("spec") or a[0]).lattice.nsites,
    },
    **{name: _count for name in ENUMERATORS},
}


def layer_metrics(spans: list) -> dict:
    """Span-derived per-layer metrics of one traced run, by name."""
    selfs = self_times(spans)

    def named(*names):
        return [(s, t) for s, t in zip(spans, selfs) if s.name in names]

    def calls(*names):
        return len(named(*names))

    def self_s(*names):
        return sum(t for _, t in named(*names))

    def sizes(name, key):
        return [s.sizes[key] for s, _ in named(name)]

    def outermost(span):
        p = span.parent
        while p is not None:
            if spans[p].name in ENUMERATORS:
                return False
            p = spans[p].parent
        return True

    mts_nnz = sum(sizes("fock.monomial_to_sparse", "nnz"))
    mts_dim = sum(sizes("fock.monomial_to_sparse", "dim"))
    diag_dims = sizes("dynamics.diagonalize", "dim")
    ergo = named("dynamics.ergodicity_report")
    return {
        "fock.enumerate_basis.calls": calls("fock.enumerate_basis"),
        "fock.basis_dim": max(sizes("fock.enumerate_basis", "dim"), default=0),
        "fock.monomial_to_sparse.calls": calls("fock.monomial_to_sparse"),
        "fock.monomial_to_sparse.self_s": self_s("fock.monomial_to_sparse"),
        "fock.monomial_to_sparse.nnz": mts_nnz,
        "fock.monomial_to_sparse.alive_ratio": mts_nnz / mts_dim if mts_dim else 0.0,
        "fock.apply_monomial_to_basis.self_s": self_s("fock.apply_monomial_to_basis"),
        "fock.commutator.calls": calls("fock.commutator", "fock.anticommutator"),
        "fock.commutator.self_s": self_s("fock.commutator", "fock.anticommutator"),
        "model.build_supercharge.calls": calls("model.build_supercharge"),
        "model.to_sparse.self_s": self_s("model.to_sparse"),
        "model.build_hamiltonian_susy.calls": calls("model.build_hamiltonian_susy"),
        "model.hamiltonian_nnz": max(
            sizes("model.build_hamiltonian_susy", "nnz"), default=0
        ),
        "charges.enumerate.self_s": self_s(*ENUMERATORS),
        "charges.sequences": sum(
            s.sizes["count"] for s, _ in named(*ENUMERATORS) if outermost(s)
        ),
        "charges.conservation_check.calls": calls("charges.conservation_check"),
        "charges.conservation_check.self_s": self_s("charges.conservation_check"),
        "groundstates.enumerate_ground_configs.self_s": self_s(
            "groundstates.enumerate_ground_configs"
        ),
        "groundstates.configs": sum(
            sizes("groundstates.enumerate_ground_configs", "count")
        ),
        "groundstates.ground_config_mask.self_s": self_s(
            "groundstates.ground_config_mask"
        ),
        "groundstates.kernel_census.self_s": self_s("groundstates.kernel_census"),
        "dynamics.diagonalize.calls": len(diag_dims),
        "dynamics.diagonalize.self_s": self_s("dynamics.diagonalize"),
        "dynamics.diagonalize.max_block": max(
            sizes("dynamics.diagonalize", "max_block"), default=0
        ),
        "dynamics.dense_bytes": max((d * d * 8 for d in diag_dims), default=0),
        "dynamics.mazur_gap.calls": calls("dynamics.mazur_gap"),
        "dynamics.mazur_gap.self_s": self_s("dynamics.mazur_gap"),
        "dynamics.dephase.self_s": self_s("dynamics.dephase"),
        "dynamics.ergodicity_report.self_s": self_s("dynamics.ergodicity_report"),
        "dynamics.rank_stack_bytes": max(
            (
                (s.sizes["generators"] + 1) * s.sizes["dim"] ** 2 * 8
                for s, _ in ergo
            ),
            default=0,
        ),
        "dynamics.no_resonance_check.self_s": self_s("dynamics.no_resonance_check"),
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s.name.startswith("cli.")),
    }
