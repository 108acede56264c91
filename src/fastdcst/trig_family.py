"""DCT-III, DST-II and DST-III at the DCT-II flop count.

The DCT-III matrix is the transpose of the DCT-II matrix, so the fast
DCT-III runs the DCT-II algorithm backwards: first the transposed output
stage (a complex rotation folded with the scale factors, applied to input
pairs x[k], x[N-k]), then the *transposed* rescaled real DFT, then the
even/odd de-interleave.  The middle stage is obtained mechanically: the
real-input rescaled DFT is recorded as a linear network over real lanes
and transposed edge-by-edge.  Both networks keep their vertices in
evaluation order (every edge runs to a higher vertex id) with their edges
in one numpy array.  From N=128 on the transposed network has more than
``transpose_net.PROGRAM_MIN_EDGES`` edges and runs as a levelized numpy
program, built on its first evaluation and cached with the network;
smaller ones are a single Python walk over the edge list.  Edge reversal
preserves both operation counts for square networks, which is what
guarantees flop parity with the DCT-II without hand-deriving a
decimation-in-frequency kernel.

The sine transforms are index/sign relabelings of the cosine ones:

* DST-II: negate every odd-indexed input, run the DCT-II, reverse the
  outputs (slot j of the result holds the k = j+1 sine coefficient);
* DST-III: reverse the inputs (slot j holds sample j+1), run the DCT-III,
  negate every odd-indexed output.

Sign flips and reversals are free under the counting convention, so all
four transforms produce identical ledgers.
"""

from __future__ import annotations

from functools import lru_cache

from . import scale_factors as sf
from .dct2 import Normalization, _dct2_new_lanes, _prep
from .fft_real import half_spectrum_lanes
from .flops import FlopLedger
from .scale_factors import ScaleTables
from .transpose_net import record

__all__ = ["dct3_new", "dst2_new", "dst3_new"]


@lru_cache(maxsize=sf.CACHED_SIZES)
def _transposed_spectrum_net(n):
    """Transposed rescaled real DFT of size n, as a network in evaluation order.

    Lane layout on the transposed inputs matches the forward outputs:
    [z0, re(z1), im(z1), ..., re(z_{N/2-1}), im(z_{N/2-1}), z_{N/2}].
    """
    tab = sf.build_tables(n)
    led = FlopLedger()
    net = record(lambda xs: half_spectrum_lanes(xs, tab, led), n)
    if net.structural_flops() != (led.adds, led.mults):
        raise RuntimeError(
            f"recorded network disagrees with the kernel ledger at size {n}: "
            f"{net.structural_flops()} vs {led.as_tuple()}"
        )
    return net.transpose()


def _dct3_new_lanes(xs, norm_key, tab, led):
    n = len(xs)
    h = n // 2
    c0, ch, pairs = tab.dct_stage(norm_key)
    z = [None] * n
    if c0 is None:
        z[0] = xs[0]
        z[n - 1] = xs[h]
    else:
        led.mults += 2
        z[0] = c0 * xs[0]
        z[n - 1] = ch * xs[h]
    for k in range(1, h):
        a, b = pairs[k]
        led.mults += 4
        led.adds += 2
        z[2 * k - 1] = a * xs[k] - b * xs[n - k]
        z[2 * k] = -(b * xs[k] + a * xs[n - k])
    y = _transposed_spectrum_net(n).eval(z, ledger=led)
    out = [None] * n
    for k in range(h):
        out[2 * k] = y[k]
        out[2 * k + 1] = y[n - 1 - k]
    return out


def _dst2_new_lanes(xs, norm_key, tab, led):
    n = len(xs)
    flipped = [xs[i] if i % 2 == 0 else -xs[i] for i in range(n)]
    c = _dct2_new_lanes(flipped, norm_key, tab, led)
    return c[::-1]


def _dst3_new_lanes(xs, norm_key, tab, led):
    c = _dct3_new_lanes(list(xs)[::-1], norm_key, tab, led)
    return [c[k] if k % 2 == 0 else -c[k] for k in range(len(c))]


def dct3_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DCT-III (the transpose of :func:`~fastdcst.dct2.dct2_new`).

    Under UNITARY normalization this is the inverse of the unitary
    DCT-II.  Ledger equals the dct2_new ledger component-wise.
    """
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    return _dct3_new_lanes(xs, norm.value, tab, led)


def dst2_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DST-II; output slot j holds the sine coefficient for k = j + 1."""
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    return _dst2_new_lanes(xs, norm.value, tab, led)


def dst3_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DST-III; input slot j is interpreted as sample j + 1."""
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    return _dst3_new_lanes(xs, norm.value, tab, led)
