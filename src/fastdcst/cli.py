"""Command-line front end.

Subcommands:

* ``transform`` -- apply one transform to a text signal file,
* ``flops``     -- tabulate instrumented vs closed-form operation counts,
* ``verify``    -- run every kernel against its definitional oracle and
  check every ledger against its formula (exit 1 on first mismatch),
* ``accuracy``  -- report rms relative error and its growth across sizes
  (exit 1 if any row is flagged).

Signal files hold one finite decimal real per line (``nan`` and ``inf``
are rejected); blank lines and lines starting with ``#`` are ignored.
Outputs are written with 17 significant digits so files diff cleanly.  Exit codes: 0 success, 1 verification
failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import scale_factors as sf
from .dct2 import Normalization, dct2_classic, dct2_new, dct2_scaled
from .fft_complex import fft_conjpair, fft_scaled, fft_scaled4
from .fft_real import rfft_conjpair, rfft_scaled, rfft_scaled4
from .flops import (
    FlopLedger,
    formula_M,
    formula_MS,
    formula_classic_dct2,
    formula_new_dct2,
    formula_new_fft_complex,
    formula_splitradix_complex,
    formula_splitradix_real,
)
from .oracle import naive_dct2, naive_dct3, naive_dst2, naive_dst3, naive_dft
from .trig_family import dct3_new, dst2_new, dst3_new

# largest flops --max-size: the largest size the test suite verifies
MAX_FLOPS_SIZE = 1 << 16

REPORT_HEADER = "size,kind,algorithm,normalization,adds,mults,total,max_rel_error,rms_rel_error"

# verify fails a kernel whose max relative error reaches this, and
# accuracy flags a row whose rms relative error does
_VERIFY_TOL = 1e-10

# the command-line spellings are the enum values
_NORMS = {n.value: n for n in Normalization}

_NAIVE = {
    "dct2": naive_dct2,
    "dct3": naive_dct3,
    "dst2": naive_dst2,
    "dst3": naive_dst3,
}


class SignalFormatError(ValueError):
    pass


def read_signal(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                v = float(text)
            except ValueError:
                raise SignalFormatError(
                    f"{path}:{lineno}: not a decimal real: {text!r}"
                ) from None
            if not math.isfinite(v):
                raise SignalFormatError(f"{path}:{lineno}: not finite: {text!r}")
            values.append(v)
    if not values:
        raise SignalFormatError(f"{path}: no samples found")
    return values


def write_signal(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(f"{float(v):.17g}\n")


def _rel_errors(got, want):
    # the max and rms relative errors of each row of got (trials x bins)
    # against want's, as two lists; each norm is one dot per row, as
    # np.linalg.norm takes it, so every error is that of the row alone
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    diff = np.abs(got - want)
    scale = np.abs(want).max(axis=1)
    worst = diff.max(axis=1)
    rms = np.sqrt([d.dot(d) for d in diff])
    denom = np.sqrt([w.real.dot(w.real) + w.imag.dot(w.imag) for w in want])
    with np.errstate(divide="ignore", invalid="ignore"):
        max_rel, rms_rel = worst / scale, rms / denom
    zero = scale == 0.0
    max_rel[zero] = rms_rel[zero] = np.where(worst[zero] == 0.0, 0.0, math.inf)
    return max_rel.tolist(), rms_rel.tolist()


def _worst(errors):
    # the largest error, or NaN if any is NaN: Python's max keeps a finite
    # first value over a later NaN, which compares False either way
    return max(errors, key=lambda r: (r != r, r))


def _is_pow2(n):
    return n >= 1 and n & (n - 1) == 0


def _sizes(max_size, lowest=2):
    n = lowest
    while n <= max_size:
        yield n
        n *= 2


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class Kernel:
    """One fast kernel as verify, flops and the acceptance tests see it.

    ``run(x, norm, tables, ledger)`` returns the kernel's outputs; with
    ``level`` > 0 they come divided by ``scale(level*N, k)``.
    ``expect(n, norm_name, seen)`` gives the ledger's closed-form total (an
    int), its exact (adds, mults) (a tuple) or None, where ``seen`` maps
    (kind, algo, norm_name) to the ledgers already checked at this size.
    """

    family: str  # "fft" (complex input), "rfft" or "trig" (real input)
    kind: str
    algo: str
    norms: tuple
    level: int
    run: Callable
    expect: Callable | None

    def outputs(self, x, norm, tab, diag, led):
        """Kernel outputs on the oracle's scale; ``diag`` from _diagonals."""
        got = self.run(x, norm, tab, led)
        if self.level:
            got = [v * s for v, s in zip(got, diag[self.level])]
        return got

    def reference(self, x, norm):
        """The oracle's outputs for ``x``, one signal or one per row.

        ``norm`` is one Normalization or a tuple of them, which stacks the
        outputs on a leading axis from one oracle sum; the DFT families
        have no norm, so each entry of their stack is the same array.
        """
        if self.family == "trig":
            return _NAIVE[self.kind](x, norm)
        want = naive_dft(x)
        if self.family == "rfft":
            want = want[..., : np.shape(x)[-1] // 2 + 1]
        return [want] * len(norm) if isinstance(norm, tuple) else want

    def ledger_fault(self, n, norm_name, led, seen):
        """Why ``led`` breaks this kernel's expectation, or None."""
        want = self.expect(n, norm_name, seen) if self.expect else None
        got = led.as_tuple()
        if isinstance(want, int) and sum(got) != want:
            return f"ledger total {sum(got)} != formula {want}"
        if isinstance(want, tuple) and got != want:
            return f"ledger {got} != expected {want}"
        return None


def _sqrtn_saving(norm_name):
    # unit k = 0 and k = N/2 stage constants under unitary-sqrtn
    return 2 if norm_name == "unitary-sqrtn" else 0


def _dct2_ledger(n, norm_name, seen, mults_saved=0):
    # the other cosine/sine kernels are judged against the dct2/new ledger
    adds, mults = seen["dct2", "new", norm_name]
    return adds, mults - mults_saved


def _dct2_scaled_times_diag(x, norm, tab, led):
    res = dct2_scaled(x, tab, led)
    return [v * s for v, s in zip(res.values, res.scales)]


_DFT = ("-",)
_ALL = tuple(_NORMS)

# the 16 kernels in report order; the lambdas look kernels up at call time,
# so a patched module attribute takes effect
KERNELS = (
    Kernel("fft", "fft", "conjpair", _DFT, 0,
           lambda x, norm, tab, led: fft_conjpair(x, led),
           lambda n, nm, seen: formula_splitradix_complex(n)),
    Kernel("fft", "fft", "new", _DFT, 0,
           lambda x, norm, tab, led: fft_scaled(x, 0, tab, led),
           lambda n, nm, seen: formula_new_fft_complex(n)),
    Kernel("fft", "fft", "new-s1", _DFT, 1,
           lambda x, norm, tab, led: fft_scaled(x, 1, tab, led),
           lambda n, nm, seen: formula_new_fft_complex(n) - (formula_MS(n) - formula_M(n))),
    Kernel("fft", "fft", "new-s2", _DFT, 2,
           lambda x, norm, tab, led: fft_scaled(x, 2, tab, led), None),
    Kernel("fft", "fft", "new-s4", _DFT, 4,
           lambda x, norm, tab, led: fft_scaled4(x, tab, led), None),
    Kernel("rfft", "rfft", "conjpair", _DFT, 0,
           lambda x, norm, tab, led: rfft_conjpair(x, led).bins,
           lambda n, nm, seen: formula_splitradix_real(n)),
    Kernel("rfft", "rfft", "new", _DFT, 0,
           lambda x, norm, tab, led: rfft_scaled(x, 0, tab, led).bins,
           lambda n, nm, seen: formula_splitradix_real(n) - formula_M(n) // 2),
    Kernel("rfft", "rfft", "new-s1", _DFT, 1,
           lambda x, norm, tab, led: rfft_scaled(x, 1, tab, led).bins,
           lambda n, nm, seen: formula_splitradix_real(n) - formula_MS(n) // 2),
    Kernel("rfft", "rfft", "new-s2", _DFT, 2,
           lambda x, norm, tab, led: rfft_scaled(x, 2, tab, led).bins, None),
    Kernel("rfft", "rfft", "new-s4", _DFT, 4,
           lambda x, norm, tab, led: rfft_scaled4(x, tab, led).bins, None),
    Kernel("trig", "dct2", "classic", _ALL, 0,
           lambda x, norm, tab, led: dct2_classic(x, norm, led),
           lambda n, nm, seen: formula_classic_dct2(n) - _sqrtn_saving(nm)),
    Kernel("trig", "dct2", "new", _ALL, 0,
           lambda x, norm, tab, led: dct2_new(x, norm, tab, led),
           lambda n, nm, seen: formula_new_dct2(n) - _sqrtn_saving(nm)),
    Kernel("trig", "dct2", "scaled", ("two-sided",), 0, _dct2_scaled_times_diag,
           lambda n, nm, seen: _dct2_ledger(n, nm, seen, mults_saved=n)),
    Kernel("trig", "dct3", "new", _ALL, 0,
           lambda x, norm, tab, led: dct3_new(x, norm, tab, led),
           _dct2_ledger),
    Kernel("trig", "dst2", "new", _ALL, 0,
           lambda x, norm, tab, led: dst2_new(x, norm, tab, led),
           _dct2_ledger),
    Kernel("trig", "dst3", "new", _ALL, 0,
           lambda x, norm, tab, led: dst3_new(x, norm, tab, led),
           _dct2_ledger),
)

_TAGS = {"fft": 0, "rfft": 1, "trig": 2}


def _kernel(kind, algo):
    return next((k for k in KERNELS if (k.kind, k.algo) == (kind, algo)), None)


def _diagonals(n):
    # from the recursive scale(), the reference the tables are judged by
    return {lv: [sf.scale(lv * n, k) for k in range(n)] for lv in (1, 2, 4)}


def _signal(family, seed, n, trial):
    g = np.random.default_rng([seed, n, trial, _TAGS[family]])
    x = g.standard_normal(n)
    return x + 1j * g.standard_normal(n) if family == "fft" else x


# ---------------------------------------------------------------- transform

def cmd_transform(kind, algo, norm_name, input_path, output_path,
                  scales_output=None, expect_n=None):
    norm = _NORMS[norm_name]
    x = read_signal(input_path)
    n = len(x)
    if expect_n is not None and n != expect_n:
        print(f"error: expected {expect_n} samples, file has {n}", file=sys.stderr)
        return 2
    if algo == "naive":
        write_signal(output_path, _NAIVE[kind](x, norm))
        return 0
    if not _is_pow2(n) or n < 2:
        print(f"error: fast algorithms need a power-of-two size >= 2, got {n}",
              file=sys.stderr)
        return 2
    kernel = _kernel(kind, algo)
    if kernel is None:
        print(f"error: algo {algo!r} is only available for dct2", file=sys.stderr)
        return 2
    if norm_name not in kernel.norms:
        print(f"error: algo {algo!r} supports --norm {' or '.join(kernel.norms)} only, "
              f"got {norm_name!r}", file=sys.stderr)
        return 2
    if algo == "scaled":
        if scales_output is None:
            print("error: --scales-output is required for algo 'scaled'", file=sys.stderr)
            return 2
        res = dct2_scaled(x)
        write_signal(scales_output, res.scales)
        out = res.values
    else:
        out = kernel.run(x, norm, None, None)
    write_signal(output_path, out)
    return 0


# -------------------------------------------------------------------- flops

def cmd_flops(max_size, fmt="csv", out=None):
    out = out if out is not None else sys.stdout
    pair = (_kernel("dct2", "classic"), _kernel("dct2", "new"))
    rows = []
    for n in _sizes(max_size):
        got, want = [], []
        for k in pair:
            led = FlopLedger()
            k.run([0.0] * n, Normalization.TWO_SIDED, None, led)
            got.append(led.total())
            want.append(k.expect(n, "two-sided", {}))
        rows.append((n, *got, *want, got == want))
    header = ("n", "classic_ledger", "new_ledger", "classic_formula",
              "new_formula", "match")
    if fmt == "markdown":
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join(["---"] * len(header)) + "|\n")
        for r in rows:
            out.write("| " + " | ".join(str(v) for v in r) + " |\n")
    else:
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(str(v) for v in r) + "\n")
    return 0 if all(r[-1] for r in rows) else 1


# ------------------------------------------------------------------- verify

def _verify_size(n, trials, seed, tab, reports):
    """Returns the first failing (kind, algo, norm, reason) or None."""
    diag = _diagonals(n)
    seen = {}
    for family in _TAGS:
        kernels = [k for k in KERNELS if k.family == family]
        inputs = [_signal(family, seed, n, trial) for trial in range(trials)]
        normnames = tuple(dict.fromkeys(nm for k in kernels for nm in k.norms))
        norms = tuple(_NORMS.get(nm) for nm in normnames)
        # each kind's references over every trial and norm, from one sum
        block = np.array(inputs)
        wants = {}
        for k in kernels:
            if k.kind not in wants:
                wants[k.kind] = k.reference(block, norms)
        for i, (normname, norm) in enumerate(zip(normnames, norms)):
            for k in kernels:
                if normname not in k.norms:
                    continue
                ledgers, gots = [], []
                for x in inputs:
                    ledgers.append(FlopLedger())
                    gots.append(k.outputs(x, norm, tab, diag, ledgers[-1]))
                row = (k.kind, k.algo, normname)
                if any(led != ledgers[0] for led in ledgers):
                    return row + ("ledger varies with input values",)
                max_rels, rms_rels = _rel_errors(gots, wants[k.kind][i])
                max_rel = _worst(max_rels)
                reports.append((n, *row, *ledgers[0].as_tuple(), max_rel, _worst(rms_rels)))
                reason = k.ledger_fault(n, normname, ledgers[0], seen)
                if reason:
                    return row + (reason,)
                if not max_rel < _VERIFY_TOL:  # a NaN error fails too
                    return row + (f"max_rel_error {max_rel:.3e} >= {_VERIFY_TOL:.0e}",)
                seen[row] = ledgers[0].as_tuple()
    return None


def cmd_verify(max_size=1024, trials=5, seed=0, out=None):
    out = out if out is not None else sys.stdout
    reports = []
    failure = None
    for n in _sizes(max_size):
        failure = _verify_size(n, trials, seed, sf.build_tables(n), reports)
        if failure:
            break
    out.write(REPORT_HEADER + "\n")
    for size, kind, algo, norm, adds, mults, max_rel, rms_rel in sorted(reports):
        out.write(f"{size},{kind},{algo},{norm},{adds},{mults},{adds + mults},"
                  f"{max_rel:.3e},{rms_rel:.3e}\n")
    if failure:
        kind, algo, normname, reason = failure
        print(f"FAIL {kind}/{algo} norm={normname}: {reason}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------- accuracy

def cmd_accuracy(max_size=4096, trials=5, seed=0, out=None):
    """Pooled rms error of every registry kernel, under its first norm.

    A row is flagged when its error reaches ``_VERIFY_TOL`` (a kernel that
    is uniformly wrong) or exceeds twice the kernel's own median
    ``rms / sqrt(lg N)`` scaled to that size (error that grows too fast),
    and when its error or that bound is NaN.
    """
    out = out if out is not None else sys.stdout
    sizes = list(_sizes(max_size, lowest=16))
    rms = {f"{k.kind}_{k.algo}": [] for k in KERNELS}
    for n in sizes:
        tab, diag = sf.build_tables(n), _diagonals(n)
        inputs, wants = {}, {}
        for k in KERNELS:
            if k.family not in inputs:
                inputs[k.family] = [_signal(k.family, seed, n, t) for t in range(trials)]
            xs = inputs[k.family]
            norm = _NORMS.get(k.norms[0])
            if (k.kind, norm) not in wants:
                wants[k.kind, norm] = k.reference(np.array(xs), norm)
            want = wants[k.kind, norm]
            d = [np.asarray(k.outputs(x, norm, tab, diag, None)) - w
                 for x, w in zip(xs, want)]
            rel = np.linalg.norm(np.concatenate(d)) / np.linalg.norm(np.concatenate(want))
            rms[f"{k.kind}_{k.algo}"].append(float(rel))
    out.write("kernel,n,rms_rel_error,fit_c,bound,flagged\n")
    status = 0
    for name in rms:
        cs = [r / math.sqrt(math.log2(n)) for r, n in zip(rms[name], sizes)]
        c = sorted(cs)[len(cs) // 2]
        for n, r in zip(sizes, rms[name]):
            bound = 2.0 * c * math.sqrt(math.log2(n))
            flagged = not (r <= bound and r < _VERIFY_TOL)  # a NaN error is flagged too
            status |= int(flagged)
            out.write(f"{name},{n},{r:.3e},{c:.3e},{bound:.3e},{flagged}\n")
    return status


# --------------------------------------------------------------------- main

def _at_least(lowest):
    def integer(text):
        if int(text) < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {text}")
        return int(text)
    return integer


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fastdcst",
        description="Fast DCT/DST transforms with exact flop accounting.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="transform a signal file")
    t.add_argument("--kind", required=True, choices=sorted(_NAIVE))
    t.add_argument("--algo", default="new",
                   choices=["classic", "new", "scaled", "naive"])
    t.add_argument("--norm", default="two-sided", choices=sorted(_NORMS))
    t.add_argument("--input", required=True)
    t.add_argument("--output", required=True)
    t.add_argument("--scales-output", default=None,
                   help="sidecar file for the diagonal of algo=scaled")
    t.add_argument("--n", type=int, default=None,
                   help="expected sample count (error if the file differs)")

    f = sub.add_parser("flops", help="operation-count table")
    f.add_argument("--max-size", type=_at_least(2), default=4096)
    f.add_argument("--format", default="csv", choices=["csv", "markdown"])

    v = sub.add_parser("verify", help="kernels vs oracles and count formulas")
    v.add_argument("--max-size", type=_at_least(2), default=1024)
    v.add_argument("--trials", type=_at_least(1), default=5)
    v.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("accuracy", help="rms error growth report")
    a.add_argument("--max-size", type=_at_least(16), default=4096)
    a.add_argument("--trials", type=_at_least(1), default=5)
    a.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "transform":
            return cmd_transform(args.kind, args.algo, args.norm, args.input,
                                 args.output, args.scales_output, args.n)
        if args.command == "flops":
            if not _is_pow2(args.max_size) or args.max_size > MAX_FLOPS_SIZE:
                print(f"error: --max-size must be a power of two <= {MAX_FLOPS_SIZE}",
                      file=sys.stderr)
                return 2
            return cmd_flops(args.max_size, args.format)
        if args.command == "verify":
            return cmd_verify(args.max_size, args.trials, args.seed)
        return cmd_accuracy(args.max_size, args.trials, args.seed)
    except (SignalFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
