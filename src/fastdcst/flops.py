"""Exact operation accounting.

Every transform kernel in this package threads a :class:`FlopLedger`
through its recursion and reports precisely the real additions and real
multiplications it performs.  The counting convention:

* a complex addition costs 2 real adds,
* a complex multiplication by a general precomputed constant costs
  4 real mults + 2 real adds,
* a multiplication by a constant with a unit real or imaginary part
  costs 2 mults + 2 adds,
* multiplications by +-1 or +-i, unary negations, loads, stores and
  index arithmetic are free and never reach an arithmetic instruction.

The closed-form evaluators below are exact integer arithmetic: each
rational form is one integer numerator over a common denominator, so
they are bit-for-bit comparable with instrumented runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FlopLedger",
    "formula_classic_dct2",
    "formula_new_dct2",
    "formula_splitradix_complex",
    "formula_splitradix_real",
    "formula_new_fft_complex",
    "formula_M",
    "formula_MS",
]


@dataclass
class FlopLedger:
    """Tally of real additions/subtractions and real multiplications.

    Ledgers are owned by the caller and depend only on (algorithm, size,
    normalization): two runs of the same kernel at the same size yield
    identical ledgers regardless of the input values.
    """

    adds: int = 0
    mults: int = 0

    def total(self) -> int:
        return self.adds + self.mults

    def count(self, adds: int = 0, mults: int = 0) -> None:
        self.adds += adds
        self.mults += mults

    def as_tuple(self) -> tuple[int, int]:
        return (self.adds, self.mults)


def checked_log2(n, lowest=2):
    """Return log2(n) for a power of two ``n >= lowest``, else raise."""
    if not isinstance(n, int) or n < 1 or n & (n - 1):
        raise ValueError(f"size must be a power of two, got {n!r}")
    if n < lowest:
        raise ValueError(f"size must be at least {lowest}, got {n}")
    return n.bit_length() - 1


def _exact(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"count formula produced a non-integer: {numerator}/{denominator}")
    return quotient


def formula_classic_dct2(n: int) -> int:
    """2*N*lg(N) - N + 2: cost of the best previously published DCT-II."""
    m = checked_log2(n)
    return 2 * n * m - n + 2


def formula_new_dct2(n: int) -> int:
    """Cost of the rescaled DCT-II: (17/9)*N*lg(N) + O(N).

    (17/9)Nm - (17/27)N - (1/9)sm + (7/54)s + 3/2, with m = lg N and
    s = (-1)^m, over the common denominator 54.
    """
    m = checked_log2(n)
    s = -1 if m & 1 else 1
    return _exact(102 * n * m - 34 * n - 6 * s * m + 7 * s + 81, 54)


def formula_splitradix_complex(n: int) -> int:
    """4*N*lg(N) - 6*N + 8: the long-standing split-radix DFT count."""
    m = checked_log2(n)
    return 4 * n * m - 6 * n + 8


def formula_splitradix_real(n: int) -> int:
    """2*N*lg(N) - 4*N + 6: split-radix specialized for real input."""
    m = checked_log2(n)
    return 2 * n * m - 4 * n + 6


def formula_new_fft_complex(n: int) -> int:
    """Cost of the rescaled complex DFT: (34/9)*N*lg(N) + O(N).

    (34/9)Nm - (124/27)N - 2m - (2/9)sm + (16/27)s + 8 over 27.
    """
    m = checked_log2(n)
    s = -1 if m & 1 else 1
    return _exact(102 * n * m - 124 * n - 54 * m - 6 * s * m + 16 * s + 216, 27)


def formula_M(n: int) -> int:
    """Real multiplications the rescaled complex DFT saves over split radix.

    (2/9)Nm - (38/27)N + 2m + (2/9)sm - (16/27)s over 27.
    """
    m = checked_log2(n)
    s = -1 if m & 1 else 1
    return _exact(6 * n * m - 38 * n + 54 * m + 6 * s * m - 16 * s, 27)


def formula_MS(n: int) -> int:
    """Further multiplications saved when outputs may stay rescaled.

    (2/9)Nm - (20/27)N + (2/9)sm - (7/27)s + 1 over 27.
    """
    m = checked_log2(n)
    s = -1 if m & 1 else 1
    return _exact(6 * n * m - 20 * n + 6 * s * m - 7 * s + 27, 27)
