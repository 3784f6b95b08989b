"""One benchmark iteration: a fresh interpreter runs a workload's commands.

Usage: ``python3 bench/child.py ROOT TRACE COMMANDS_JSON``

Imports ``nicolai.cli`` from ``ROOT/src``, then calls ``nicolai.cli.main``
once per command back to back, capturing each command's stdout.  With
``TRACE=1`` the span tracer is installed for the commands and the per-layer
metrics are computed from its spans.  Prints one JSON line: per command the
exit code, wall time inside ``main()`` and stdout; the process's peak RSS;
and the layer metrics when traced.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_command(main, argv) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a dead benchmark
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    return {"argv": argv, "rc": rc, "wall_s": wall, "stdout": buf.getvalue()}


def main() -> int:
    root, trace, commands = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nicolai.cli

    if not os.path.abspath(nicolai.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported nicolai from {nicolai.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    if trace:
        from layers import PROBES, layer_metrics
        from tracer import Tracer

        tracer = Tracer(probes=PROBES)
    else:
        tracer = contextlib.nullcontext()
    with tracer:
        results = [run_command(nicolai.cli.main, argv) for argv in commands]
    out = {
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = layer_metrics(tracer.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
