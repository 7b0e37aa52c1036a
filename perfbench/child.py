"""One benchmark sample in a fresh process.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "root" (the checkout), "out" (where to write the timings),
"argv" (the anomalion CLI arguments; empty means import only) and "trace"
(a path for the layer trace, or null).  The child first times a fixed
reference computation, then imports anomalion from ROOT/src and nothing
else, timing the import (wall and CPU), then times
``anomalion.cli.main(argv)`` and exits with its code.
"""

import json
import os
import sys
import time

REFERENCE_ROUNDS = 25000


def reference() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed pure-Python computation.

    It does what anomalion's operator algebra does most (frozensets of site
    tuples combined by symmetric difference, dict and set lookups), so host
    contention slows it about as much.  It runs before anomalion is
    imported, so nothing the program does can change it.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    acc = frozenset()
    seen = {}
    for i in range(REFERENCE_ROUNDS):
        mono = frozenset(((i % 37, i % 11), (i % 13, 1), (i % 7, i % 5)))
        acc = acc ^ mono
        seen[mono] = seen.get(mono, 0) + len(acc)
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> int:
    spec = json.loads(sys.argv[1])
    ref_s, ref_cpu_s = reference()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    wall, cpu = time.perf_counter(), time.process_time()
    import anomalion.cli

    import_s, import_cpu_s = time.perf_counter() - wall, time.process_time() - cpu
    origin = os.path.dirname(os.path.dirname(os.path.abspath(anomalion.__file__)))
    if origin != os.path.abspath(src):
        print(f"anomalion imported from {origin}, not {src}", file=sys.stderr)
        return 3
    result = {"ref_s": ref_s, "ref_cpu_s": ref_cpu_s, "import_s": import_s, "import_cpu_s": import_cpu_s}
    code = 0
    if spec["argv"]:
        rec = None
        if spec["trace"]:
            import tracer

            rec = tracer.install()
        t0 = time.perf_counter()
        code = anomalion.cli.main(spec["argv"])
        result["main_s"] = time.perf_counter() - t0
        if rec is not None:
            rec.dump(spec["trace"])
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
