import sys

import pytest

from psroth import hfun, sieve


@pytest.fixture
def fast_switching():
    """Switch threads as often as possible, so an ordering race shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture(scope="session")
def table_1e6():
    return sieve.sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def table_1e7():
    return sieve.sieve_primes(10 ** 7)


@pytest.fixture(scope="session")
def inv95():
    return hfun.inverse_of(hfun.ps_exponent_spec(0.95))


@pytest.fixture(scope="session")
def inv99():
    return hfun.inverse_of(hfun.ps_exponent_spec(0.99))


@pytest.fixture(scope="session")
def ps95_1e7(inv95, table_1e7):
    return sieve.enumerate_ps_primes(inv95, 10 ** 7, table_1e7)
