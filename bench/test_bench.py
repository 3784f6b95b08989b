"""Self-checks of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q bench``.  The last
test runs every workload once untraced and once traced (about a minute).
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import nicolai  # noqa: E402
import nicolai.cli  # noqa: E402,F401
from nicolai.model import ModelSpec  # noqa: E402

import run  # noqa: E402
from layers import PROBES, layer_metrics  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]


def test_self_times_on_a_synthetic_nest():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("x", 0, 1.0, 5.0),
        Span("y", 0, 3.0, 7.0),
        Span("z", 0, 9.0, 12.0),  # clipped to the parent's interval
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _namespaces():
    mods = {n: m for n, m in sys.modules.items() if n == "nicolai" or n.startswith("nicolai.")}
    snap = {(n, a): id(v) for n, m in mods.items() for a, v in vars(m).items()}
    snap[("OperatorSum", "to_sparse")] = id(nicolai.OperatorSum.__dict__["to_sparse"])
    return snap


def test_tracer_rebinds_every_alias_and_restores_them():
    before = _namespaces()
    mts, basis = nicolai.fock.monomial_to_sparse, nicolai.fock.enumerate_basis
    tracer = Tracer(probes=PROBES)
    with tracer:
        for ns in (nicolai, nicolai.fock, nicolai.model, nicolai.charges, nicolai.cli):
            assert ns.monomial_to_sparse is not mts
        assert nicolai.dynamics.enumerate_basis is not basis
        nicolai.groundstates.kernel_census(ModelSpec.ring(2))
    assert _namespaces() == before
    names = [s.name for s in tracer.spans]
    # kernel_census imports diagonalize at call time; the span must nest
    diag = names.index("dynamics.diagonalize")
    assert tracer.spans[tracer.spans[diag].parent].name == "groundstates.kernel_census"
    metrics = layer_metrics(tracer.spans)
    assert metrics["dynamics.diagonalize.calls"] == 1
    assert metrics["fock.basis_dim"] == 64
    assert metrics["model.to_sparse.self_s"] > 0


def test_calibrated_wall_cancels_a_uniform_slowdown():
    walls, refs = [6.0, 9.0, 6.6], [1.0, 1.5, 1.0]
    assert run.calibrated_wall(walls, refs, nominal=1.2) == pytest.approx(7.2)
    slower = [1.3 * w for w in walls], [1.3 * r for r in refs]
    assert run.calibrated_wall(*slower, nominal=1.2) == pytest.approx(7.2)


def test_gate_rejects_an_uncertified_value():
    spec = WORKLOADS["grammar"]["commands"][0]
    payload = {"embeddable_count": 649528, "full_ring_count": 177146,
               "full_ring_transfer_count": 177146}
    ok = {"rc": 0, "stdout": json.dumps(payload)}
    assert run.gate(spec, ok) is None
    bad = {"rc": 0, "stdout": json.dumps({**payload, "embeddable_count": 649527})}
    assert "embeddable_count" in run.gate(spec, bad)
    skew = {"rc": 0, "stdout": json.dumps({**payload, "full_ring_transfer_count": 1})}
    assert "differs" in run.gate(spec, skew)
    assert run.gate(spec, {"rc": 3, "stdout": ""}) == "exit code 3"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output(name):
    env = run.child_env()
    commands = [c["argv"] + ["--seed", "7"] for c in WORKLOADS[name]["commands"]]
    plain = run.run_child(env, commands, trace=False, timeout=170)
    traced = run.run_child(env, commands, trace=True, timeout=170)
    for spec, a, b in zip(WORKLOADS[name]["commands"], plain["commands"], traced["commands"]):
        assert run.gate(spec, a) is None
        assert a["stdout"] == b["stdout"]
    assert "layers" in traced and "layers" not in plain
