import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

# Property tests draw the same examples on every run and keep no example
# database, so they cannot make the suite flaky.
settings.register_profile("speclab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("speclab")

from speclab import self_affine, triple


@pytest.fixture(scope="session")
def quarter_cantor():
    """Scale-4 singular measure with digits {0, 2}."""
    return triple(4, [0, 2], [0, 1])


@pytest.fixture(scope="session")
def lebesgue_triple():
    """Binary digits: the measure is Lebesgue on [0, 1]."""
    return triple(2, [0, 1], [0, 1])


@pytest.fixture(scope="session")
def two_digit_family():
    """The two-state family B(0) = {0,1}, B(1) = {0,3} at scale 2."""
    return [triple(2, [0, 1], [0, 1]), triple(2, [0, 3], [0, 1])]


@pytest.fixture(scope="session")
def quarter_cantor_system(quarter_cantor):
    return self_affine(quarter_cantor)


@pytest.fixture(scope="session")
def lebesgue_system(lebesgue_triple):
    return self_affine(lebesgue_triple)
