"""One timed pass of a workload in a fresh interpreter.

Usage: python3 child.py JOB_JSON

JOB_JSON holds ``src`` (directory holding the fermatecc package),
``calls`` (argument lists for ``fermatecc.cli.main``; an empty list only
times the import), ``trace`` (bool) and ``spans`` (path of the span
dump, traced passes only).  Prints one JSON line: the import time, each
call's exit code and wall time, peak RSS and the library versions, plus
the reference-speed times of probe.py on an untraced pass and the
per-layer metrics on a traced pass.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)

    # the probe's handler would run inside traced spans, so traced passes go without
    probe = None
    if not job["trace"]:
        from probe import Probe

        probe = Probe()
        probe.start()
    t0 = time.perf_counter()
    import fermatecc.cli as cli

    t1 = time.perf_counter()
    setup_s = t1 - t0
    setup = probe.scale(t0, t1) if probe else None

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"fermatecc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in job["calls"]:
        start = time.perf_counter()
        if tracer:
            span = tracer.begin("cli")
            try:
                code = cli.main(argv)
            finally:
                tracer.end(span)
        else:
            code = cli.main(argv)
        end = time.perf_counter()
        calls.append({"exit": code, "wall_s": end - start, "probe": probe.scale(start, end) if probe else None})
    if probe:
        probe.stop()

    import networkx
    import numpy

    result = {
        "setup_s": setup_s,
        "setup_probe": setup,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "networkx": networkx.__version__,
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(sum(c["wall_s"] for c in calls))
        result["missing"] = tracer.missing
        tracer.dump(job["spans"], {"calls": job["calls"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
