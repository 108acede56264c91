"""The four workloads.  Each is a closed loop with one caller: the next op
starts when the previous one returns.  A workload hands out its ops one
cycle at a time; a cycle is a fixed op mix, and runs always end on a
cycle boundary, so quantiles and flops per op see the same mix on every
run.  Inputs come only from the seed; references are built before
timing, and every output is checked after its op, outside the timing.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import common
import reference as ref

API_NAMES = ("dct2_classic", "dct2_new", "dct2_scaled", "dct3_new",
             "dst2_new", "dst3_new")
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: object
    check: object


@dataclass
class Outcome:
    error: float  # worst relative error of the op's checked outputs
    flops: int  # ledger adds + mults of the op
    problem: str = None  # why the op failed, None if it passed


def _judge(label, error, flops, expected_flops, length_ok=True):
    """Judge one op; ``expected_flops`` None skips the ledger check."""
    if not length_ok:
        return Outcome(error, flops, f"{label}: wrong output length")
    if not error < ref.REL_TOL:
        return Outcome(error, flops, f"{label}: relative error {error:.3e}")
    if expected_flops is not None and flops != expected_flops:
        return Outcome(error, flops,
                       f"{label}: ledger {flops} != closed form {expected_flops}")
    return Outcome(error, flops)


class Workload:
    name = None
    sizes = ()  # transform sizes, for the numpy reference timings
    uses_cli = False  # first calls include importing fastdcst.cli
    child_processes = False  # ops run in child processes

    def first_calls(self):
        """Distinct (API name, N, normalization) calls of the op mix."""
        return []

    def verify_args(self):
        return None

    def warm(self):
        """Make the first call of every distinct configuration; return
        the problems found, if any."""
        for name, n, norm in self.first_calls():
            common.transform(self.pkg, name, [1.0] * n, norm,
                             self.pkg.FlopLedger())

    def cross_check(self):
        """Reference vs compensated oracle at the smallest size."""
        n = min(self.sizes)
        x = np.random.default_rng([self.seed, 99]).standard_normal(n)
        return ref.cross_check(self.pkg, x)

    def cycle(self, index, tracer=None):
        raise NotImplementedError


def _api_output(name, out):
    # the scaled DCT-II is judged on values * scales (the two-sided DCT-II)
    if name == "dct2_scaled":
        return np.asarray(out.values) * np.asarray(out.scales)
    return out


class Large(Workload):
    """Warm single transforms at N = 1024 and 4096 over every public
    cosine/sine kernel and normalization."""

    name = "large"
    sizes = (1024, 4096)
    POOL = 3  # distinct signals per size; cycle i uses signal i % POOL

    def __init__(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        rng = np.random.default_rng([seed, 1])
        self.configs = []
        for n in self.sizes:
            for name in API_NAMES:
                norms = ("TWO_SIDED",) if name == "dct2_scaled" else common.NORM_NAMES
                self.configs += [(name, n, norm) for norm in norms]
        self.signals = {n: [rng.standard_normal(n) for _ in range(self.POOL)]
                        for n in self.sizes}
        self.lists = {n: [s.tolist() for s in sig] for n, sig in self.signals.items()}
        self.refs = {}
        for name, n, norm in self.configs:
            for i, x in enumerate(self.signals[n]):
                self.refs[name, n, norm, i] = ref.api_reference(name, x, norm)

    def first_calls(self):
        return list(self.configs)

    def cycle(self, index, tracer=None):
        i = index % self.POOL
        pkg = self.pkg
        ops = []
        for name, n, norm in self.configs:
            x = self.lists[n][i]
            led = pkg.FlopLedger()

            def run(name=name, x=x, norm=norm, led=led):
                return common.transform(pkg, name, x, norm, led)

            def check(out, name=name, n=n, norm=norm, led=led):
                got = _api_output(name, out)
                err = ref.rel_error(got, self.refs[name, n, norm, i])
                return _judge(f"{name} N={n} {norm}", err, led.adds + led.mults,
                              ref.api_flops(name, n, norm), len(got) == n)

            ops.append(Op(f"{name}/{n}/{norm}", run, check))
        return ops


def _image(rng, side):
    # smooth image-like data: low-pass filtered noise mapped to 0..255,
    # plus a little sensor noise, rounded to pixels and level-shifted
    noise = rng.standard_normal((side, side))
    f = np.fft.fftfreq(side)
    mask = np.exp(-(f[:, None] ** 2 + f[None, :] ** 2) / (2 * 0.04 ** 2))
    img = np.fft.ifft2(np.fft.fft2(noise) * mask).real
    img = (img - img.min()) / (img.max() - img.min()) * 255.0
    img += rng.normal(0.0, 2.0, img.shape)
    return np.clip(np.round(img), 0, 255) - 128.0


def _tiles(img, b):
    side = img.shape[0]
    return [img[r : r + b, c : c + b] for r in range(0, side, b)
            for c in range(0, side, b)]


class Blocks(Workload):
    """JPEG-style 2-D blocks: forward DCT-II over rows then columns,
    alternating the unitary dct2_new and dct2_scaled, then the unitary
    dct3_new inverse; a quarter of the blocks are 16x16."""

    name = "blocks"
    sizes = (8, 16)
    SIDE = 128
    # (block size, forward kernel); 16x16 is every fourth block
    PATTERN = ((8, "dct2_new"), (8, "dct2_scaled"), (8, "dct2_new"),
               (16, "dct2_scaled"), (8, "dct2_scaled"), (8, "dct2_new"),
               (8, "dct2_scaled"), (16, "dct2_new"))

    def __init__(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        img = _image(np.random.default_rng([seed, 2]), self.SIDE)
        self.tiles, self.lists, self.refs = {}, {}, {}
        for b in self.sizes:
            tiles = np.array(_tiles(img, b))
            self.tiles[b] = tiles
            self.lists[b] = [t.tolist() for t in tiles]
            for norm in ("UNITARY", "TWO_SIDED"):
                rows = ref.dct2(tiles, norm)
                # column pass output is laid out [column frequency][row frequency]
                self.refs[b, norm] = ref.dct2(rows.swapaxes(-1, -2), norm)
        self.fold = {}
        self.count = {b: 0 for b in self.sizes}

    def first_calls(self):
        calls = []
        for b in self.sizes:
            calls += [("dct2_new", b, "UNITARY"), ("dct2_scaled", b, "TWO_SIDED"),
                      ("dct3_new", b, "UNITARY")]
        return calls

    def warm(self):
        super().warm()
        # the scaled outputs carry diag(s) on both axes; a codec folds
        # s[k] * u[k] (u = two-sided -> unitary factor) into its tables
        for b in self.sizes:
            s = np.asarray(self.pkg.dct2_scaled([0.0] * b).scales)
            w = s * ref.weights(b, "UNITARY", False) / 2.0
            self.fold[b] = np.outer(w, w).tolist()

    def cycle(self, index, tracer=None):
        pkg = self.pkg
        ops = []
        for b, fwd_name in self.PATTERN:
            t = self.count[b] % len(self.lists[b])
            self.count[b] += 1
            tile = self.lists[b][t]
            scaled = fwd_name == "dct2_scaled"
            fold = self.fold.get(b)

            def run(tile=tile, scaled=scaled, fold=fold):
                led = pkg.FlopLedger()
                inv = pkg.dct3_new
                unitary = pkg.Normalization.UNITARY
                scales = None
                if scaled:
                    fwd = pkg.dct2_scaled
                    rows = [fwd(r, ledger=led).values for r in tile]
                    res = [fwd(c, ledger=led) for c in zip(*rows)]
                    scales = res[0].scales
                    cols = [r.values for r in res]
                    coef = [[v * w for v, w in zip(c, f)] for c, f in zip(cols, fold)]
                else:
                    fwd = pkg.dct2_new
                    rows = [fwd(r, unitary, ledger=led) for r in tile]
                    cols = coef = [fwd(c, unitary, ledger=led) for c in zip(*rows)]
                back = [inv(c, unitary, ledger=led) for c in coef]
                pixels = [inv(r, unitary, ledger=led) for r in zip(*back)]
                return cols, scales, pixels, led

            def check(out, b=b, t=t, scaled=scaled, fwd_name=fwd_name):
                cols, scales, pixels, led = out
                got = np.asarray(cols, dtype=float)
                if scaled:
                    s = np.asarray(scales)
                    got = got * np.outer(s, s)
                want = self.refs[b, "TWO_SIDED" if scaled else "UNITARY"][t]
                err = max(ref.rel_error(got, want),
                          ref.rel_error(pixels, self.tiles[b][t]))
                fwd = ref.api_flops(fwd_name, b, "UNITARY")
                inv = ref.api_flops("dct3_new", b, "UNITARY")
                return _judge(f"{b}x{b} block {t} via {fwd_name}", err,
                              led.adds + led.mults, 2 * b * (fwd + inv))

            ops.append(Op(f"{fwd_name}/{b}x{b}", run, check))
        return ops


class CliCold(Workload):
    """One fresh ``fastdcst transform`` process per op on a signal file."""

    name = "cli-cold"
    sizes = (1024, 4096)
    uses_cli = True
    child_processes = True
    POOL = 2
    CONFIGS = (("dct2_new", 1024, "TWO_SIDED"), ("dct3_new", 1024, "UNITARY"),
               ("dst3_new", 1024, "UNITARY_SQRT_N"), ("dct2_new", 4096, "UNITARY"),
               ("dct3_new", 4096, "UNITARY_SQRT_N"), ("dst3_new", 4096, "TWO_SIDED"))

    def __init__(self, pkg, seed, workdir):
        self.pkg, self.seed, self.workdir = pkg, seed, workdir
        rng = np.random.default_rng([seed, 3])
        self.signals, self.files, self.refs = {}, {}, {}
        for n in self.sizes:
            for i in range(self.POOL):
                x = rng.standard_normal(n)
                path = os.path.join(workdir, f"in-{n}-{i}.txt")
                # 17 significant digits read back as the same doubles
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(f"{v:.17g}\n" for v in x)
                self.signals[n, i] = x
                self.files[n, i] = path
        for name, n, norm in self.CONFIGS:
            for i in range(self.POOL):
                self.refs[name, n, norm, i] = ref.api_reference(
                    name, self.signals[n, i], norm)
        self.flops = {}
        self.env = common.child_env()
        self.errpath = os.path.join(workdir, "child.err")
        self.child_cache = (0, 0)  # network cache (hits, misses) over children

    def first_calls(self):
        return list(self.CONFIGS)

    def warm(self):
        # the CLI passes no ledger, so flops_per_op is the in-process
        # ledger of the same call, checked here once per configuration
        problems = []
        for name, n, norm in self.CONFIGS:
            led = self.pkg.FlopLedger()
            common.transform(self.pkg, name, self.signals[n, 0].tolist(), norm, led)
            flops = self.flops[name, n, norm] = led.adds + led.mults
            want = ref.api_flops(name, n, norm)
            if flops != want:
                problems.append(f"{name} N={n} {norm}: ledger {flops} "
                                f"!= closed form {want}")
        return problems

    def _spawn(self, argv, report):
        cmd = [sys.executable]
        if report:
            cmd += [str(common.BENCH_DIR / "cli_child.py"), report]
        else:
            cmd += ["-m", "fastdcst.cli"]
        with open(self.errpath, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd + argv, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env,
                                    cwd=str(common.ROOT))
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        return proc.returncode

    def cycle(self, index, tracer=None):
        i = index % self.POOL
        ops = []
        for name, n, norm in self.CONFIGS:
            out_path = os.path.join(self.workdir, f"out-{name}-{n}.txt")
            report = os.path.join(self.workdir, "child.json") if tracer else None
            argv = ["transform", "--kind", name[:4], "--algo", "new",
                    "--norm", common.CLI_NORM[norm], "--input", self.files[n, i],
                    "--output", out_path]

            def run(argv=argv, report=report):
                return self._spawn(argv, report)

            def check(rc, name=name, n=n, norm=norm, out_path=out_path,
                      report=report):
                label = f"{name} N={n} {norm} (process)"
                if report is not None and os.path.exists(report):
                    self._merge(tracer, report)
                if rc != 0:
                    with open(self.errpath, encoding="utf-8") as fh:
                        why = fh.read().strip()
                    return Outcome(float("inf"), 0, f"{label}: exit code {rc}: {why}")
                got = np.loadtxt(out_path, ndmin=1)
                err = ref.rel_error(got, self.refs[name, n, norm, i])
                return _judge(label, err, self.flops[name, n, norm], None,
                              len(got) == n)

            ops.append(Op(f"{name}/{n}/{norm}", run, check))
        return ops

    def _merge(self, tracer, report):
        with open(report, encoding="utf-8") as fh:
            child = json.load(fh)
        tracer.merge(child["stats"])
        tracer.merge({"cli.import": ["cli.import", 1, child["import_s"],
                                     child["import_s"], 0, 0]})
        # the child's traced time lies inside the parent's op span
        tracer.discount("bench.op", child["traced_s"])
        hits, misses = child["net_cache"] or (0, 0)
        self.child_cache = (self.child_cache[0] + hits,
                            self.child_cache[1] + misses)
        os.remove(report)


class Verify(Workload):
    """One ``fastdcst verify`` through ``cli.main`` per op."""

    name = "verify"
    MAX_SIZE = 64
    TRIALS = 2
    sizes = tuple(2 ** k for k in range(1, 7))
    uses_cli = True

    def __init__(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        self.expected = {}
        for n in self.sizes:
            # the paper gives closed forms for the split-radix rows only
            for algo in ("conjpair", "new", "new-s1", "new-s2", "new-s4"):
                plain = algo == "conjpair"
                self.expected[n, "fft", algo, "-"] = (
                    ref.splitradix_complex_flops(n) if plain else None)
                self.expected[n, "rfft", algo, "-"] = (
                    ref.splitradix_real_flops(n) if plain else None)
            for norm, cli_norm in common.CLI_NORM.items():
                self.expected[n, "dct2", "classic", cli_norm] = ref.api_flops(
                    "dct2_classic", n, norm)
                for kind in ("dct2", "dct3", "dst2", "dst3"):
                    self.expected[n, kind, "new", cli_norm] = ref.api_flops(
                        kind + "_new", n, norm)
                if norm == "TWO_SIDED":
                    self.expected[n, "dct2", "scaled", cli_norm] = ref.api_flops(
                        "dct2_scaled", n, norm)

    def verify_args(self, index=0):
        return ["verify", "--max-size", str(self.MAX_SIZE),
                "--trials", str(self.TRIALS),
                "--seed", str(self.seed * 1_000_003 + index)]

    def warm(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.pkg.cli.main(self.verify_args())

    def cross_check(self):
        # verify judges itself against the oracles; the benchmark checks
        # its report against the expected rows and closed forms instead
        return []

    def cycle(self, index, tracer=None):
        argv = self.verify_args(index)
        pkg = self.pkg

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = pkg.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return [Op("verify", run, self._check)]

    def _check(self, out):
        rc, text, err = out
        if rc != 0:
            return Outcome(float("inf"), 0, f"verify exit code {rc}: {err.strip()}")
        rows = list(csv.DictReader(io.StringIO(text)))
        seen = {}
        for r in rows:
            key = (int(r["size"]), r["kind"], r["algorithm"], r["normalization"])
            seen[key] = (int(r["total"]), float(r["max_rel_error"]))
        if set(seen) != set(self.expected):
            return Outcome(float("inf"), 0, "verify report rows differ from expected")
        err = max(e for _, e in seen.values())
        flops = self.TRIALS * sum(t for t, _ in seen.values())
        for key, want in self.expected.items():
            if want is not None and seen[key][0] != want:
                return Outcome(err, flops, f"verify {key}: ledger {seen[key][0]} != {want}")
        if not err < ref.REL_TOL:
            return Outcome(err, flops, f"verify max_rel_error {err:.3e}")
        return Outcome(err, flops)


WORKLOADS = {w.name: w for w in (Large, Blocks, CliCold, Verify)}
