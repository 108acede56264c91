from fractions import Fraction

import pytest

from fastdcst import (
    FlopLedger,
    formula_M,
    formula_MS,
    formula_classic_dct2,
    formula_new_dct2,
    formula_new_fft_complex,
    formula_splitradix_complex,
    formula_splitradix_real,
)

# flop counts of the previous-best and the rescaled DCT-II, N = 16..4096
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


def test_ledger_basics():
    led = FlopLedger()
    assert led.total() == 0
    led.count(adds=3, mults=2)
    led.adds += 1
    assert led.as_tuple() == (4, 2)
    assert led.total() == 6
    assert led == FlopLedger(adds=4, mults=2)


@pytest.mark.parametrize("n,expected", [(n, v[1]) for n, v in TABLE1.items()])
def test_new_dct2_table_values(n, expected):
    assert formula_new_dct2(n) == expected


@pytest.mark.parametrize("n,expected", [(n, v[0]) for n, v in TABLE1.items()])
def test_classic_dct2_table_values(n, expected):
    assert formula_classic_dct2(n) == expected


def test_classic_dct2_small():
    # N=2 by hand: C0 = 2(x0+x1), C1 = sqrt(2)(x0-x1) -> 2 adds + 2 mults
    assert formula_classic_dct2(2) == 4


def test_splitradix_complex_values():
    assert formula_splitradix_complex(2) == 4  # one complex butterfly
    assert formula_splitradix_complex(16) == 168
    assert formula_splitradix_complex(64) == 1160


def test_new_fft_complex_values():
    assert formula_new_fft_complex(4) == 16
    assert formula_new_fft_complex(16) == 168  # no savings yet: M(16) = 0
    assert formula_new_fft_complex(64) == 1152
    assert formula_new_fft_complex(64) == formula_splitradix_complex(64) - formula_M(64)


def test_mult_savings_values():
    assert formula_M(16) == 0
    assert formula_MS(16) == 4
    assert formula_MS(32) == 12
    assert formula_MS(64) == 40


def test_savings_nonnegative_and_integral_up_to_2_20():
    for m in range(1, 21):
        n = 1 << m
        assert formula_MS(n) - formula_M(n) >= 0
        # the evaluators raise if any numerator leaves a remainder
        for f in (
            formula_new_dct2,
            formula_classic_dct2,
            formula_splitradix_complex,
            formula_splitradix_real,
            formula_new_fft_complex,
            formula_M,
            formula_MS,
        ):
            assert isinstance(f(n), int)


def _sign(m):
    return -1 if m & 1 else 1


# the paper's closed forms as it writes them, in exact rational arithmetic
PAPER_FORMS = {
    formula_new_dct2: lambda n, m: (
        Fraction(17, 9) * n * m - Fraction(17, 27) * n - Fraction(1, 9) * _sign(m) * m
        + Fraction(7, 54) * _sign(m) + Fraction(3, 2)),
    formula_new_fft_complex: lambda n, m: (
        Fraction(34, 9) * n * m - Fraction(124, 27) * n - 2 * m
        - Fraction(2, 9) * _sign(m) * m + Fraction(16, 27) * _sign(m) + 8),
    formula_M: lambda n, m: (
        Fraction(2, 9) * n * m - Fraction(38, 27) * n + 2 * m
        + Fraction(2, 9) * _sign(m) * m - Fraction(16, 27) * _sign(m)),
    formula_MS: lambda n, m: (
        Fraction(2, 9) * n * m - Fraction(20, 27) * n
        + Fraction(2, 9) * _sign(m) * m - Fraction(7, 27) * _sign(m) + 1),
}


@pytest.mark.parametrize("formula", PAPER_FORMS, ids=lambda f: f.__name__)
def test_integer_forms_equal_the_papers_rational_forms_up_to_2_20(formula):
    for m in range(1, 21):
        want = PAPER_FORMS[formula](1 << m, m)
        assert want.denominator == 1
        got = formula(1 << m)
        assert type(got) is int and got == want


def test_a_non_integer_count_raises():
    from fastdcst.flops import _exact

    assert _exact(108, 54) == 2
    with pytest.raises(ArithmeticError, match="non-integer: 109/54"):
        _exact(109, 54)


def test_table1_gap_is_half_MS():
    for n, (classic, new) in TABLE1.items():
        assert classic - new == formula_MS(n) // 2
        assert formula_MS(n) % 2 == 0


@pytest.mark.parametrize("bad", [0, 1, 3, 12, 100, -8])
def test_rejects_non_powers_of_two(bad):
    with pytest.raises(ValueError):
        formula_new_dct2(bad)
    with pytest.raises(ValueError):
        formula_splitradix_complex(bad)
