"""Fresh-process set-up probe.

Times ``import fastdcst`` plus the first call of each distinct
(transform, N, normalization) a workload uses, or, with ``"memory"`` in
the spec, measures with ``tracemalloc`` how much the table cache and the
transposed-network cache grow on the first calls at each size.  Prints
one JSON object.  numpy is not imported before the timed import.

    python3 perfbench/probe.py '<json spec>'
"""

import contextlib
import io
import json
import random
import sys
import time

import common


def _inputs(spec):
    rng = random.Random(spec["seed"])
    return {n: [rng.uniform(-1.0, 1.0) for _ in range(n)] for n in spec["sizes"]}


def time_setup(spec):
    inputs = _inputs(spec)
    t0 = time.perf_counter()
    pkg = common.import_package(with_cli=spec["cli"])
    for name, n, norm in spec["calls"]:
        common.transform(pkg, name, inputs[n], norm, pkg.FlopLedger())
    if spec["verify"]:
        # the timed loop judges the report; here only its cost counts
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            pkg.cli.main(spec["verify"])
    return {"setup_s": time.perf_counter() - t0}


def cache_growth(spec):
    import tracemalloc

    inputs = _inputs(spec)
    pkg = common.import_package(with_cli=spec["cli"])
    tracemalloc.start()
    tables = nets = 0
    for n in spec["sizes"]:
        before = tracemalloc.get_traced_memory()[0]
        pkg.build_tables(n)
        mid = tracemalloc.get_traced_memory()[0]
        pkg.dct3_new(inputs[n])
        after = tracemalloc.get_traced_memory()[0]
        tables += mid - before
        nets += after - mid
    tracemalloc.stop()
    return {"scale_factors_mb": tables / 2**20, "transpose_net_mb": nets / 2**20}


def main():
    spec = json.loads(sys.argv[1])
    result = cache_growth(spec) if spec.get("memory") else time_setup(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
