"""Fast trigonometric transforms with exact operation accounting.

Power-of-two DCT-II/III and DST-II/III kernels built on a rescaled
conjugate-pair split-radix FFT, instrumented so every real addition and
multiplication is counted, plus O(N^2) definitional oracles and a
verification CLI.  Signals are plain sequences: real transforms take and
return sequences of floats, complex ones sequences of complex numbers,
always of power-of-two length.  Sample values are not checked: a NaN or
infinity propagates through the arithmetic into the outputs.
"""

from .dct2 import (
    Normalization,
    ScaledDctOutput,
    dct2_classic,
    dct2_new,
    dct2_scaled,
    reorder_even_odd,
)
from .fft_complex import fft_conjpair, fft_scaled, fft_scaled4
from .fft_real import HalfSpectrum, rfft_conjpair, rfft_scaled, rfft_scaled4
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
from .oracle import embed_4n, naive_dct2, naive_dct3, naive_dst2, naive_dst3, naive_dft
from .scale_factors import ScaleTables, build_tables, scale, t_factor, unit_root
from .transpose_net import LinearNetwork, TraceError, record
from .trig_family import dct3_new, dst2_new, dst3_new

__all__ = [
    "Normalization",
    "ScaledDctOutput",
    "dct2_classic",
    "dct2_new",
    "dct2_scaled",
    "reorder_even_odd",
    "fft_conjpair",
    "fft_scaled",
    "fft_scaled4",
    "HalfSpectrum",
    "rfft_conjpair",
    "rfft_scaled",
    "rfft_scaled4",
    "FlopLedger",
    "formula_M",
    "formula_MS",
    "formula_classic_dct2",
    "formula_new_dct2",
    "formula_new_fft_complex",
    "formula_splitradix_complex",
    "formula_splitradix_real",
    "embed_4n",
    "naive_dct2",
    "naive_dct3",
    "naive_dst2",
    "naive_dst3",
    "naive_dft",
    "ScaleTables",
    "build_tables",
    "scale",
    "t_factor",
    "unit_root",
    "LinearNetwork",
    "TraceError",
    "record",
    "dct3_new",
    "dst2_new",
    "dst3_new",
]

__version__ = "0.1.0"
