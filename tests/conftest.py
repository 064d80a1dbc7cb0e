import decimal
import math
import random
import shutil
from fractions import Fraction

import pytest

from roundtrap import _compiled, schemes
from roundtrap.fpcore import PrecisionConfig


def rand_operand(rng: random.Random, p: int) -> Fraction:
    """A random sign * (p-bit significand) * 2**e value whose exponent stays
    within +-60 of zero, exactly representable at precision p."""
    m = rng.getrandbits(p) | (1 << (p - 1))
    e = rng.randint(-60, 60) - (p - 1)
    sign = rng.choice((1, -1))
    return Fraction(sign * m << e) if e >= 0 else Fraction(sign * m, 1 << -e)


def decimal_sqrt(x: Fraction, digits: int = 60) -> Fraction:
    """Independent high-precision sqrt oracle via the decimal module."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = (decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)).sqrt()
    return Fraction(d)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpmath float."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError("non-finite value has no rational representation")
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def rel_diff(a: Fraction, b: Fraction) -> Fraction:
    if b == 0:
        return abs(a)
    return abs(a - b) / abs(b)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def p24():
    return PrecisionConfig(24)


@pytest.fixture(scope="session")
def p53():
    return PrecisionConfig(53)


@pytest.fixture(scope="session")
def p113():
    return PrecisionConfig(113)


@pytest.fixture
def compiled():
    """The compiled kernels.  The test is skipped where no compiler is on
    PATH, and fails where one is but the kernels did not build, load or
    pass their known-answer check, so that a wrong kernel shows as a
    failure and not as skipped tests."""
    kernels = schemes._load_kernels()
    if kernels is None:
        if shutil.which(_compiled.CC):
            pytest.fail(f"{_compiled.CC} is on PATH, but the compiled kernels did not build, load or "
                        "pass their known-answer check")
        pytest.skip(f"no {_compiled.CC} on PATH to build the compiled kernels")
    return kernels
