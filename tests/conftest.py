import numpy as np
import pytest

from cantornormal import ConstantSequence, PeriodicSequence, PresetSequence, generate_digits
from cantornormal.ladder import PartitionIndex


@pytest.fixture(scope="session")
def c2():
    return ConstantSequence(2)


@pytest.fixture(scope="session")
def c2_index(c2):
    return PartitionIndex(c2)


@pytest.fixture(scope="session")
def c2_digits_1m(c2):
    """Digits 1..10**6 + 1 of the construction over constant:2."""
    return generate_digits(c2, 10**6 + 1)


@pytest.fixture(scope="session")
def p23():
    return PeriodicSequence([2, 3])


@pytest.fixture(scope="session")
def log_preset():
    return PresetSequence("log")


@pytest.fixture(scope="session")
def iterated_log():
    return PresetSequence("iterated-log")
