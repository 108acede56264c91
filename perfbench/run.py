"""fastdcst benchmark: one workload, one closed-loop caller, one result.

    python3 perfbench/run.py --workload large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory, never from an installed copy.  Workloads: ``large``,
``blocks``, ``cli-cold`` and ``verify`` (see BENCHMARK.json for why each
exists).  Every op's output is checked against a numpy reference and its
ledger against the closed form, outside the timed interval.

``--trace 0`` prints the end-to-end metrics: throughput (ops per second
of op time), p50/p90 op latency with the sample count, ``setup_s`` (the
median over fresh processes of ``import fastdcst`` plus the first call of
every distinct configuration), peak RSS of the process running the ops,
and ledger flops per op.  ``max_rel_error`` and ``failed_frac`` are
printed too; any failed op makes the exit code 1.

``--trace 1`` spends half the time untraced and half with span hooks
around each layer's entry points (see spans.py), and prints the
per-layer metrics plus the tracing overhead.  Self times and ledger
flops are per op; record, transpose, first-eval and table-build times
are those of the cold first calls (per process for ``cli-cold``).  The
spans go to ``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every op passed its check, 1 when any failed, 2 when the package sources
are missing or the arguments are wrong.  The benchmark's own tests:
``python3 -m pytest -q perfbench/selftest.py``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import common
import spans
import workloads
from reference import REL_TOL

# fresh processes timed per run for setup_s; the median is reported
SETUP_RUNS = 7
PROBE_TIMEOUT_S = 120
# numpy reference transform sizes recorded with every result
REF_SIZES = (8, 16, 64, 1024, 4096)

# per-layer metrics: name -> (unit, layers whose hooks feed it); the
# cache ratio needs the network cache's cache_info() instead
LAYER_METRICS = {
    "fft_real.self_ms": ("ms", ("fft_real",)),
    "fft_real.flops": ("count", ("fft_real",)),
    "fft_complex.self_ms": ("ms", ("fft_complex",)),
    "oracle.self_ms": ("ms", ("oracle",)),
    "dct2.self_ms": ("ms", ("dct2",)),
    "dct2.reorder_ms": ("ms", ("dct2.reorder",)),
    "dct2.flops": ("count", ("dct2",)),
    "trig_family.self_ms": ("ms", ("trig_family",)),
    "transpose_net.eval_self_ms": ("ms", ("transpose_net.eval",)),
    "transpose_net.edges": ("count", ("transpose_net.eval",)),
    "transpose_net.record_ms": ("ms", ("transpose_net.record",)),
    "transpose_net.transpose_ms": ("ms", ("transpose_net.transpose",)),
    "transpose_net.first_eval_ms": ("ms", ("transpose_net.first_eval",)),
    "transpose_net.cache_mb": ("MB", ()),
    "transpose_net.cache_hit_ratio": ("ratio", ()),
    "transpose_net.cache_lookups": ("count", ()),
    "scale_factors.build_ms": ("ms", ("scale_factors.build",)),
    "scale_factors.cache_mb": ("MB", ()),
    "cli.import_ms": ("ms", ()),
    "cli.read_ms": ("ms", ("cli.read",)),
    "cli.write_ms": ("ms", ("cli.write",)),
    "cli.self_ms": ("ms", ("cli",)),
    "unattributed_ms": ("ms", ()),
    "tracing.untraced_ops_s": ("1/s", ()),
    "tracing.traced_ops_s": ("1/s", ()),
    "tracing.throughput_ratio": ("ratio", ()),
    "ref.op_over_numpy_rfft": ("ratio", ()),
}
LAYER_METRICS.update(
    {f"ref.numpy_rfft_us.n{n}": ("us", ()) for n in REF_SIZES})


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


@dataclass
class Loop:
    """What one timed loop saw."""

    latencies: list = field(default_factory=list)
    flops: int = 0
    worst_error: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)
    cycles: int = 0

    @property
    def ops(self):
        return len(self.latencies)

    def throughput(self):
        return self.ops / sum(self.latencies)


def measure(workload, seconds, tracer=None):
    """Run whole cycles until the next one would end past ``seconds``."""
    loop = Loop()
    start = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        for op in workload.cycle(index, tracer):
            t0 = time.perf_counter()
            try:
                out = (tracer.call("bench.op", "bench", op.run) if tracer
                       else op.run())
                raised = None
            except Exception as exc:  # a raising op is a failed op
                raised = exc
            loop.latencies.append(time.perf_counter() - t0)
            if raised is None:
                try:
                    outcome = op.check(out)
                    problem = outcome.problem
                    loop.flops += outcome.flops
                    loop.worst_error = max(loop.worst_error, outcome.error)
                except Exception as exc:  # malformed output
                    problem = f"{op.label}: unreadable output: {exc!r}"
            else:
                problem = f"{op.label}: raised {raised!r}"
            if problem is not None:
                loop.failed += 1
                if len(loop.problems) < 5:
                    loop.problems.append(problem)
        index += 1
        loop.cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return loop


def warm(workload):
    """First calls of every configuration; a raise or a problem found is
    reported, and the timed loop then counts the failing ops."""
    try:
        return workload.warm() or []
    except Exception as exc:  # the program under test failed
        return [f"first calls raised {exc!r}"]


def run_probe(spec):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "probe.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        env=common.child_env(), cwd=str(common.ROOT))
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_spec(workload, seed):
    return {"seed": seed, "sizes": list(workload.sizes),
            "calls": workload.first_calls(), "cli": workload.uses_cli,
            "verify": workload.verify_args()}


def setup_seconds(workload, seed):
    spec = probe_spec(workload, seed)
    runs = [run_probe(spec)["setup_s"] for _ in range(SETUP_RUNS)]
    return statistics.median(runs), runs


def peak_rss_mb(workload):
    who = (resource.RUSAGE_CHILDREN if workload.child_processes
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def numpy_rfft_us():
    out = {}
    for n in REF_SIZES:
        x = np.random.default_rng(n).standard_normal(n)
        reps = max(20, 20_000 // n)
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                np.fft.rfft(x)
            batches.append((time.perf_counter() - t0) / reps * 1e6)
        out[n] = statistics.median(batches)
    return out


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def end_to_end(workload, loop, seed, rss_mb):
    setup_median, setup_runs = setup_seconds(workload, seed)
    lat = loop.latencies
    return {
        "throughput_ops_s": (loop.throughput(), "1/s"),
        "latency_p50_ms": (float(np.quantile(lat, 0.5)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.quantile(lat, 0.9)) * 1e3, "ms"),
        "setup_s": (setup_median, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "flops_per_op": (loop.flops / loop.ops, "count"),
    }, {"setup_runs_s": setup_runs}


def per_layer(workload, hooks, setup, tracer, traced, untraced, memory,
              rfft_us):
    """Per-layer metrics of a traced run, and the names of those whose
    hooks are all absent."""
    ops = traced.ops
    self_s = tracer.by_layer("self")
    total_s = tracer.by_layer("total")
    flops = tracer.by_layer("flops")
    units = tracer.by_layer("units")
    if workload.child_processes:
        # every process pays set-up: report it per op from the children
        setup_s, setup_div = total_s, ops
        hits, misses = workload.child_cache
    else:
        setup_s, setup_div = setup.by_layer("total"), 1
        hits, misses = hooks.net_cache_info() or (0, 0)

    def per_op_ms(by_layer, layer):
        return by_layer.get(layer, 0.0) / ops * 1e3

    def setup_ms(layer):
        return setup_s.get(layer, 0.0) / setup_div * 1e3

    m = {
        "fft_real.self_ms": per_op_ms(self_s, "fft_real"),
        "fft_real.flops": flops.get("fft_real", 0) / ops,
        "fft_complex.self_ms": per_op_ms(self_s, "fft_complex"),
        "oracle.self_ms": per_op_ms(self_s, "oracle"),
        "dct2.self_ms": per_op_ms(self_s, "dct2"),
        "dct2.reorder_ms": per_op_ms(self_s, "dct2.reorder"),
        "dct2.flops": flops.get("dct2", 0) / ops,
        "trig_family.self_ms": per_op_ms(self_s, "trig_family"),
        "transpose_net.eval_self_ms": per_op_ms(self_s, "transpose_net.eval"),
        "transpose_net.edges": (units.get("transpose_net.eval", 0)
                                + units.get(spans.FIRST_EVAL, 0)) / ops,
        "transpose_net.record_ms": setup_ms("transpose_net.record"),
        "transpose_net.transpose_ms": setup_ms("transpose_net.transpose"),
        "transpose_net.first_eval_ms": setup_ms(spans.FIRST_EVAL),
        "transpose_net.cache_mb": memory["transpose_net_mb"],
        "transpose_net.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "transpose_net.cache_lookups": hits + misses,
        "scale_factors.build_ms": setup_ms("scale_factors.build"),
        "scale_factors.cache_mb": memory["scale_factors_mb"],
        "cli.import_ms": per_op_ms(total_s, "cli.import"),
        "cli.read_ms": per_op_ms(self_s, "cli.read"),
        "cli.write_ms": per_op_ms(self_s, "cli.write"),
        "cli.self_ms": per_op_ms(self_s, "cli"),
        "unattributed_ms": per_op_ms(self_s, "bench"),
        "tracing.untraced_ops_s": untraced.throughput(),
        "tracing.traced_ops_s": traced.throughput(),
        "tracing.throughput_ratio": traced.throughput() / untraced.throughput(),
        "ref.op_over_numpy_rfft": (sum(untraced.latencies) / untraced.ops * 1e6
                                   / rfft_us[max(workload.sizes)]),
    }
    m.update({f"ref.numpy_rfft_us.n{n}": rfft_us[n] for n in REF_SIZES})
    absent = [name for name, (_, layers) in LAYER_METRICS.items()
              if layers and not any(lay in hooks.present_layers for lay in layers)]
    if hooks.net_cache_info() is None:
        absent += ["transpose_net.cache_hit_ratio", "transpose_net.cache_lookups"]
    return {k: (v, LAYER_METRICS[k][0]) for k, v in m.items()}, sorted(absent)


def parse_args(argv):
    p = argparse.ArgumentParser(description="fastdcst benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        pkg = common.import_package(with_cli=True)
    except common.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = common.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, pkg, str(workdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, pkg, workdir):
    workload = workloads.WORKLOADS[args.workload](pkg, args.seed, workdir)
    problems = workload.cross_check()
    if args.trace:
        hooks = spans.Hooks()
        setup = spans.Tracer(pkg.FlopLedger)
        hooks.install(setup)
        try:
            problems += warm(workload)
        finally:
            hooks.uninstall()
        untraced = measure(workload, args.seconds / 2)
        tracer = spans.Tracer(pkg.FlopLedger)
        hooks.install(tracer)
        try:
            loop = measure(workload, args.seconds / 2, tracer)
        finally:
            hooks.uninstall()
        memory = run_probe(dict(probe_spec(workload, args.seed), memory=True))
    else:
        problems += warm(workload)
        loop = measure(workload, args.seconds)
        rss_mb = peak_rss_mb(workload)
    env = environment(args.seed)
    rfft_us = numpy_rfft_us()
    env["ref.numpy_rfft_us"] = {f"n{n}": v for n, v in rfft_us.items()}

    if args.trace:
        metrics, absent = per_layer(workload, hooks, setup, tracer, loop,
                                    untraced, memory, rfft_us)
        loops = (untraced, loop)
        extra = {"absent_hooks": hooks.absent, "absent_metrics": absent}
        trace_path = common.OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "absent_hooks": hooks.absent,
                       "absent_metrics": absent,
                       "metrics": {k: v[0] for k, v in metrics.items()},
                       "setup": setup.dump(), "loop": tracer.dump()}, fh)
        extra["trace_file"] = str(trace_path.relative_to(common.ROOT))
    else:
        metrics, extra = end_to_end(workload, loop, args.seed, rss_mb)
        loops = (loop,)
        absent = []
    attempted = sum(lp.ops for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        problems += lp.problems
    correct = failed == 0 and not problems

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {loop.ops} in {loop.cycles} cycles")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        shown = "absent" if name in absent else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit}")
    # correctness figures: reported, and enforced through the exit code
    worst = max(lp.worst_error for lp in loops)
    print(f"  {'latency samples':32s} {loop.ops:>14d}")
    print(f"  {'max_rel_error':32s} {worst:>14.6g} ratio (fails at {REL_TOL:g})")
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for problem in problems:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
