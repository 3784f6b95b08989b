"""Benchmark of the ``nicolai`` command-line tool.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  The workloads' commands, the certified values each command must
print and the map from layer metrics to end-to-end metrics are in
``bench/workloads.json``; why each workload was chosen, the metric names,
units and regression bounds are in ``BENCHMARK.json``.

A run first times ``setup_s`` (a fresh interpreter importing ``nicolai.cli``)
several times, then repeats the workload in fresh child processes, one at a
time, until ``--seconds`` would be exceeded (at least once).  With
``--trace 0`` it reports the end-to-end metrics: ``wall_s``, median
``setup_s`` and median ``peak_rss_mb`` of the child.  ``wall_s`` is the
median time inside ``main()`` over the workload's commands.  On a workload
with ``reference_runs`` it is calibrated: before and after every iteration
the fixed kernel of ``bench/reference.py`` runs in a fresh interpreter, each
iteration's time is divided by the mean of the two kernel times around it,
and the median ratio is scaled by the kernel's nominal time.  That cancels
the swings of a shared host's CPU speed; the raw times are printed too.
With ``--trace 1`` it alternates
untraced and traced children and reports the per-layer metrics of
``bench/layers.py``; a traced command whose stdout differs from the untraced
one counts as failed.  A command fails when it exits non-zero or its JSON
lacks a certified value.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from reference import NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7
HARD_LIMIT_S = 165.0  # one workload run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NICOLAI_THREADS",
)
WARNING_LINE = re.compile(r"^\S.*:\d+: \w*Warning: ", re.MULTILINE)
MISSING = object()


def child_env() -> dict:
    """The caller's environment with ``src/`` first on the import path and no
    thread count above the CPUs this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            if int(env[var]) > nproc:
                env[var] = str(nproc)
        except (KeyError, ValueError):
            pass
    return env


def environment(env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def time_setup(env: dict, samples: int, hard_deadline: float) -> list:
    """Seconds from spawning an interpreter to ``import nicolai.cli`` done.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's reading is comparable with the parent's.  One untimed import
    first warms the file cache (and writes bytecode caches where that is
    enabled), a cost a user pays once.
    """
    code = "import nicolai.cli, time; print(repr(time.perf_counter()))"
    out = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=remaining(hard_deadline),
            check=True,
        )
        if i:
            out.append(float(proc.stdout) - t0)
    return out


def remaining(hard_deadline: float) -> float:
    return max(1.0, hard_deadline - time.perf_counter())


def time_reference(env: dict, runs: int, timeout: float) -> float:
    """Seconds of ``runs`` reference kernel runs in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "reference.py"), str(runs)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        check=True,
    )
    return float(proc.stdout)


def run_child(env: dict, commands: list, trace: bool, timeout: float) -> dict:
    """One workload iteration in a fresh interpreter; ``None`` if it died."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT),
         "1" if trace else "0", json.dumps(commands)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["stderr_warnings"] = len(WARNING_LINE.findall(proc.stderr))
    return result


def resolve(payload, path: str):
    if path.startswith("len:"):
        value = resolve(payload, path[4:])
        return MISSING if value is MISSING else len(value)
    value = payload
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return MISSING
        value = value[key]
    return value


def gate(spec: dict, result: dict) -> str | None:
    """Why a command's output is not the certified one, or ``None``."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    try:
        payload = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if isinstance(payload.get("checks"), list):
        payload["checks"] = {c["name"]: c for c in payload["checks"]}
    for path, want in spec["expect"].items():
        got = resolve(payload, path)
        if got is MISSING or got != want or isinstance(got, bool) != isinstance(want, bool):
            return f"{path} = {'missing' if got is MISSING else got!r}, expected {want!r}"
    for a, b in spec["equal"]:
        va, vb = resolve(payload, a), resolve(payload, b)
        if va is MISSING or va != vb:
            return f"{a} = {va!r} differs from {b} = {vb!r}"
    return None


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or ``None``."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool, env: dict) -> dict:
    deadline = time.perf_counter() + seconds
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    specs = workload["commands"]
    commands = [spec["argv"] + ["--seed", str(seed)] for spec in specs]
    setup = [] if trace else time_setup(env, SETUP_SAMPLES, hard_deadline)
    runs = 0 if trace else workload["reference_runs"]
    ref_s = time_reference(env, runs, remaining(hard_deadline)) if runs else None
    modes = (False, True) if trace else (False,)
    children = {False: [], True: []}
    attempted = failed = 0
    while True:
        t0 = time.perf_counter()
        done = len(children[False])
        for traced in modes:
            attempted += len(specs)
            try:
                result = run_child(env, commands, traced, remaining(hard_deadline))
            except subprocess.TimeoutExpired:
                result = None
            if result is None:
                failed += len(specs)
                print(f"{name}: child process failed", file=sys.stderr)
                continue
            reference = children[False][0] if children[False] else None
            for i, (spec, cmd) in enumerate(zip(specs, result["commands"])):
                why = gate(spec, cmd)
                if why is None and traced and reference is not None:
                    if cmd["stdout"] != reference["commands"][i]["stdout"]:
                        why = "traced stdout differs from untraced stdout"
                if why is not None:
                    failed += 1
                    print(f"{name}: {' '.join(cmd['argv'])}: {why}", file=sys.stderr)
            children[traced].append(result)
        if runs:
            after = time_reference(env, runs, remaining(hard_deadline))
            if len(children[False]) > done:
                children[False][-1]["reference_s"] = (ref_s + after) / 2
            ref_s = after
        cycle = time.perf_counter() - t0
        if not all(children[m] for m in modes) or time.perf_counter() + cycle > deadline:
            break
    return {
        "setup": setup,
        "nominal_s": runs * NOMINAL_S,
        "children": children,
        "attempted": attempted,
        "failed": failed,
    }


def wall(child: dict) -> float:
    return sum(c["wall_s"] for c in child["commands"])


def calibrated_wall(walls: list, references: list, nominal: float) -> float:
    """Median of each iteration's time over its reference time, in seconds of
    the machine on which the reference takes ``nominal`` seconds."""
    return nominal * statistics.median(w / r for w, r in zip(walls, references))


def end_to_end(run: dict) -> dict:
    untraced = run["children"][False]
    walls = [wall(c) for c in untraced]
    return {
        "wall_s": calibrated_wall(
            walls, [c["reference_s"] for c in untraced], run["nominal_s"]
        ) if run["nominal_s"] else statistics.median(walls),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
    }


def per_layer(run: dict) -> dict:
    untraced, traced = run["children"][False], run["children"][True]
    # median_low keeps counts whole: every value reported is one measured
    out = {
        key: statistics.median_low(c["layers"][key] for c in traced)
        for key in traced[0]["layers"]
    }
    out["cli.stderr_warnings"] = statistics.median_low(
        c["stderr_warnings"] for c in untraced
    )
    out["trace.overhead_s"] = statistics.median(wall(c) for c in traced) - statistics.median(
        wall(c) for c in untraced
    )
    return out


def report(name: str, run: dict, seed: int, trace: bool, declared: list) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    untraced = run["children"][False]
    if not untraced or (trace and not run["children"][True]):
        return {}
    values = per_layer(run) if trace else end_to_end(run)
    walls = [wall(c) for c in untraced]
    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          f"iterations={len(untraced)}  attempted={run['attempted']}  failed={run['failed']}  "
          f"failed_frac={run['failed'] / run['attempted']:.4g}")
    for metric in declared:
        line = f"{name}  {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}"
        if metric["name"] == "wall_s":
            tail = tail_percentile(walls)
            line += f"  ({'calibrated ' if run['nominal_s'] else ''}median of {len(walls)} samples; " + (
                f"raw p{tail[0]:.1f} = {tail[1]:.6g} s" if tail
                else "too few samples for a tail percentile"
            ) + f"; raw samples {' '.join(f'{w:.4g}' for w in walls)}"
            if run["nominal_s"]:
                refs = " ".join(f"{c['reference_s']:.4g}" for c in untraced)
                line += f"; reference {refs} s, nominal {run['nominal_s']:.4g} s"
            line += ")"
        elif metric["name"] == "setup_s":
            line += f"  (median of {len(run['setup'])} samples)"
        print(line)
    for i, cmd in enumerate(untraced[0]["commands"]):
        digest = hashlib.sha256(cmd["stdout"].encode()).hexdigest()
        same = all(c["commands"][i]["stdout"] == cmd["stdout"] for c in untraced)
        print(f"{name}  stdout sha256 {' '.join(cmd['argv'])}: {digest}"
              f"{'' if same else ' (differs between iterations)'}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    names = list(config["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nicolai" / "cli.py").is_file():
        print(f"error: no nicolai sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    metrics_decl = declared["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    print(json.dumps({"environment": environment(env)}, sort_keys=True))

    selected = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in selected:
        run = run_workload(name, config["workloads"][name], args.seed, seconds,
                           bool(args.trace), env)
        attempted += run["attempted"]
        failed += run["failed"]
        values = report(name, run, args.seed, bool(args.trace), metrics_decl)
        if not values:
            print(f"error: {name}: no child process completed", file=sys.stderr)
            return 1
        if len(selected) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
