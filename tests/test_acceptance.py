"""Acceptance battery: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure).  Tolerances are fixed here, not configurable.
"""

import math

import numpy as np
import pytest
from conftest import rng

from fastdcst import (
    FlopLedger,
    Normalization,
    build_tables,
    dct2_classic,
    dct2_new,
    dct2_scaled,
    dct3_new,
    dst2_new,
    dst3_new,
    embed_4n,
    naive_dct2,
    naive_dft,
    record,
)
from fastdcst.cli import _NORMS, KERNELS, _diagonals
from fastdcst.dct2 import _dct2_new_lanes

TABLE1 = {
    16: (114, 112),
    32: (290, 284),
    64: (706, 686),
    128: (1666, 1614),
    256: (3842, 3708),
    512: (8706, 8384),
    1024: (19458, 18698),
    2048: (43010, 41266),
    4096: (94210, 90264),
}

SIZES_4096 = [1 << m for m in range(1, 13)]
TRIALS = 5


def _report(cid, desc, ok):
    print(f"ACCEPTANCE {cid} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {cid} failed: {desc}"


def _max_rel(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale_ = np.max(np.abs(want))
    if scale_ == 0.0:
        return float(np.max(np.abs(got))) if len(got) else 0.0
    return float(np.max(np.abs(got - want)) / scale_)


def test_criterion_1_table1_exact():
    ok = True
    for n, (classic, new) in TABLE1.items():
        lc, ln = FlopLedger(), FlopLedger()
        dct2_classic([0.0] * n, ledger=lc)
        dct2_new([0.0] * n, ledger=ln)
        ok &= lc.total() == classic and ln.total() == new
    _report(1, "instrumented ledgers reproduce the expected count table exactly", ok)


def _zero_ledgers(n, kernels):
    """Yield (kernel, norm name, ledger) for each kernel and norm on zeros."""
    tab = build_tables(n)
    for k in kernels:
        for nm in k.norms:
            led = FlopLedger()
            k.run([0.0] * n, _NORMS.get(nm), tab, led)
            yield k, nm, led


def test_criterion_2_formula_closure():
    ok = True
    for n in [1 << m for m in range(2, 13)]:
        seen = {}
        for k, nm, led in _zero_ledgers(n, KERNELS):
            ok &= k.ledger_fault(n, nm, led, seen) is None
            seen[k.kind, k.algo, nm] = led.as_tuple()
    _report(2, "every kernel ledger equals its closed-form count (or the DCT-II "
               "ledger it must match) under every norm, N=4..4096", ok)


def test_criterion_3_scaled_output_saving():
    ok = True
    for n in [1 << m for m in range(3, 13)]:
        ln, ls = FlopLedger(), FlopLedger()
        dct2_new([0.0] * n, ledger=ln)
        dct2_scaled([0.0] * n, ledger=ls)
        ok &= ls.mults == ln.mults - n and ls.adds == ln.adds
        if n == 8:
            ok &= ln.mults - ls.mults == 8
    _report(3, "rescaled outputs save exactly N multiplications (8 at N=8)", ok)


def test_criterion_4_family_flop_parity():
    ok = True
    family = [k for k in KERNELS if k.family == "trig" and k.algo == "new"]
    for n in [1 << m for m in range(4, 13)]:
        leds = {}
        for k, nm, led in _zero_ledgers(n, family):
            ok &= leds.setdefault(nm, led) == led
    _report(4, "DCT-III/DST-II/DST-III ledgers equal DCT-II component-wise, "
               "under every norm", ok)


def test_criterion_5_transposition_invariance():
    ok = True
    for n in (4, 8, 16, 32, 64):
        tab = build_tables(n)
        led = FlopLedger()
        net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, led), n)
        tnet = net.transpose()
        fwd, rev = net.structural_flops(), tnet.structural_flops()
        ok &= fwd == rev == led.as_tuple()
        ok &= net.indegree_adds() == fwd[0]
        ok &= tnet.indegree_adds() == rev[0]
        ok &= fwd[0] == n + len(net.edges) - net.n_vertices
    _report(5, "transposed networks preserve adds and mults exactly", ok)


def _unit_variance(g, n, complex_=False):
    if complex_:
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        return v / np.sqrt(2.0)
    return g.standard_normal(n)


def test_criterion_6_oracle_equivalence():
    tol = 1e-10
    worst = 0.0
    for n in SIZES_4096:
        tab = build_tables(n)
        diag = _diagonals(n)
        xcs, xrs = [], []
        for trial in range(TRIALS):
            g = rng(600, n, trial)
            xcs.append(_unit_variance(g, n, complex_=True))
            xrs.append(_unit_variance(g, n))
        # each kind's references over all trials, from one batched oracle sum
        wants = {}
        for k in KERNELS:
            xs = xcs if k.family == "fft" else xrs
            norm = Normalization.TWO_SIDED if k.family == "trig" else None
            if k.kind not in wants:
                wants[k.kind] = k.reference(np.array(xs), norm)
            for x, want in zip(xs, wants[k.kind]):
                got = k.outputs(x, norm, tab, diag, FlopLedger())
                worst = max(worst, _max_rel(got, want))
    print(f"  worst max_rel_error over all kernels/sizes: {worst:.3e}")
    _report(6, f"all 16 kernels within 1e-10 of compensated oracles (N<=4096)",
            worst < tol)


def test_criterion_7_embedding_identity():
    ok = True
    for n in (2, 4, 8, 16, 32, 64):
        x = rng(700, n).standard_normal(n)
        spectrum = naive_dft(embed_4n(x))
        got = np.array(dct2_new(x))
        err = np.max(np.abs(got - spectrum[:n].real)) / np.max(np.abs(spectrum))
        ok &= err < 1e-10
    _report(7, "DCT-II equals the first N bins of the 4N zero-interleaved DFT", ok)


def test_criterion_8_accuracy_non_regression():
    sizes = [1 << m for m in range(4, 13)]
    rms_new, rms_classic = [], []
    for n in sizes:
        dn, dc, wn = [], [], []
        for trial in range(TRIALS):
            x = rng(800, n, trial).standard_normal(n)
            want = naive_dct2(x)
            dn.append(np.asarray(dct2_new(x)) - want)
            dc.append(np.asarray(dct2_classic(x)) - want)
            wn.append(want)
        norm = np.linalg.norm(np.concatenate(wn))
        rms_new.append(np.linalg.norm(np.concatenate(dn)) / norm)
        rms_classic.append(np.linalg.norm(np.concatenate(dc)) / norm)
    ok = all(rn <= 2.0 * rc for rn, rc in zip(rms_new, rms_classic))
    cs = [r / math.sqrt(math.log2(n)) for r, n in zip(rms_new, sizes)]
    c = sorted(cs)[len(cs) // 2]
    ok &= all(
        r <= 2.0 * c * math.sqrt(math.log2(n)) for r, n in zip(rms_new, sizes)
    )
    print("  rms(new)/rms(classic) per size:",
          [f"{rn / rc:.2f}" for rn, rc in zip(rms_new, rms_classic)])
    _report(8, "no accuracy regression; rms error fits c*sqrt(log N)", ok)


def test_criterion_9_unitary_round_trips():
    ok = True
    for n in [1 << m for m in range(1, 11)]:
        x = rng(900, n).standard_normal(n)
        r1 = dct3_new(dct2_new(x, Normalization.UNITARY), Normalization.UNITARY)
        ok &= float(np.max(np.abs(np.array(r1) - x))) < 1e-10
        r2 = dst3_new(
            dst2_new(x, norm=Normalization.UNITARY), norm=Normalization.UNITARY
        )
        ok &= float(np.max(np.abs(np.array(r2) - x))) < 1e-10
    _report(9, "unitary dct3(dct2(x)) == x and dst3(dst2(x)) == x, N<=1024", ok)
