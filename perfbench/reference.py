"""Reference outputs and closed-form operation counts.

References come from one ``numpy.fft.rfft`` of a length-4N extension of
the input (the construction of ``fastdcst.embed_4n``), over the last axis
so a batch of rows costs one call.  They are built once per generated
input, before timing starts, and cross-checked against the package's
compensated O(N^2) oracles at the workload's smallest size.  The closed
forms are restated here from the paper so the benchmark does not judge
the package's ledgers with the package's own formulas.
"""

from fractions import Fraction

import numpy as np

from common import NORM_NAMES

# an output fails when its error reaches this share of its largest bin
REL_TOL = 1e-10
# numpy references must agree with the compensated oracles this closely
CROSS_TOL = 1e-12


def weights(n, norm, sine):
    """Row weights of the type-II transforms (column weights of type III).

    The half weight sits on k = 0 for cosines and on k = N for sines.
    """
    k = np.arange(1, n + 1) if sine else np.arange(n)
    half = (k == (n if sine else 0)).astype(float)
    if norm == "TWO_SIDED":
        return np.full(n, 2.0)
    if norm == "UNITARY":
        return np.sqrt((2.0 - half) / n)
    return np.sqrt(2.0 - half)


def dct2(x, norm):
    """Type-II DCT over the last axis, from the mirrored 4N embedding."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (4 * n,))
    odd = 2 * np.arange(n) + 1
    z[..., odd] = x
    z[..., 4 * n - odd] = x
    raw = np.fft.rfft(z, axis=-1)[..., :n].real / 2.0
    return weights(n, norm, False) * raw


def dst2(x, norm):
    """Type-II DST over the last axis; slot j holds k = j + 1."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (4 * n,))
    z[..., 2 * np.arange(n) + 1] = x
    raw = -np.fft.rfft(z, axis=-1)[..., 1 : n + 1].imag
    return weights(n, norm, True) * raw


def dct3(x, norm):
    """Type-III DCT (transpose of :func:`dct2`) over the last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (4 * n,))
    z[..., :n] = weights(n, norm, False) * x
    return np.fft.rfft(z, axis=-1)[..., 1 : 2 * n : 2].real


def dst3(x, norm):
    """Type-III DST over the last axis; input slot j holds sample j + 1."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (4 * n,))
    z[..., 1 : n + 1] = weights(n, norm, True) * x
    return -np.fft.rfft(z, axis=-1)[..., 1 : 2 * n : 2].imag


KIND = {"dct2": dct2, "dct3": dct3, "dst2": dst2, "dst3": dst3}


def api_reference(name, x, norm):
    """Reference for public transform ``name``; ``dct2_scaled`` is judged
    on ``values * scales``, which is the two-sided DCT-II."""
    if name == "dct2_scaled":
        return dct2(x, "TWO_SIDED")
    return KIND[name[:4]](x, norm)


def rel_error(got, want):
    """Worst absolute deviation as a share of the largest reference bin."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want)))
    worst = float(np.max(np.abs(got - want)))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else float("inf")
    return worst / scale


def cross_check(pkg, x):
    """Compare every reference kind and normalization with the package's
    compensated oracles on one input; returns a list of problems."""
    naive = {"dct2": pkg.naive_dct2, "dct3": pkg.naive_dct3,
             "dst2": pkg.naive_dst2, "dst3": pkg.naive_dst3}
    problems = []
    n = len(x)
    embed = np.fft.rfft(pkg.embed_4n(x))[:n].real
    if rel_error(dct2(x, "TWO_SIDED"), embed) >= CROSS_TOL:
        problems.append(f"dct2 reference disagrees with embed_4n at N={n}")
    for kind, ref in KIND.items():
        for norm in NORM_NAMES:
            want = naive[kind](x, pkg.Normalization[norm])
            err = rel_error(ref(x, norm), want)
            if not err < CROSS_TOL:
                problems.append(
                    f"{kind}/{norm} reference vs oracle at N={n}: {err:.3e}")
    return problems


# ------------------------------------------------------------ closed forms

def _lg(n):
    if n < 1 or n & (n - 1):
        raise ValueError(f"not a power of two: {n}")
    return n.bit_length() - 1


def classic_dct2_flops(n):
    """2*N*lg(N) - N + 2."""
    return 2 * n * _lg(n) - n + 2


def new_dct2_flops(n):
    """(17/9)*N*lg(N) - (17/27)*N - (1/9)*(-1)^m*m + (7/54)*(-1)^m + 3/2."""
    m = _lg(n)
    sign = -1 if m & 1 else 1
    total = (Fraction(17, 9) * n * m - Fraction(17, 27) * n
             - Fraction(1, 9) * sign * m + Fraction(7, 54) * sign
             + Fraction(3, 2))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer count at N={n}: {total}")
    return int(total)


def splitradix_complex_flops(n):
    """4*N*lg(N) - 6*N + 8."""
    return 4 * n * _lg(n) - 6 * n + 8


def splitradix_real_flops(n):
    """2*N*lg(N) - 4*N + 6."""
    return 2 * n * _lg(n) - 4 * n + 6


def api_flops(name, n, norm):
    """Exact adds + mults of one public transform call.

    Unitary*sqrt(N) makes the two end constants one (2 mults fewer); the
    scaled DCT-II leaves N multiplications to its caller.
    """
    if name == "dct2_scaled":
        return new_dct2_flops(n) - n
    base = classic_dct2_flops(n) if name == "dct2_classic" else new_dct2_flops(n)
    return base - 2 if norm == "UNITARY_SQRT_N" else base
