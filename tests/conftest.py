import pytest

from cantornormal import ConstantSequence, PeriodicSequence, PresetSequence, constructed_digits
from cantornormal.ladder import PartitionIndex


@pytest.fixture(scope="session")
def c2():
    return ConstantSequence(2)


@pytest.fixture(scope="session")
def c2_index(c2):
    return PartitionIndex(c2)


@pytest.fixture(scope="session")
def c2_digits_1m(c2):
    """The construction's stream over constant:2, with digits 1..10**6 + 1
    already read."""
    E = constructed_digits(c2)
    E.prefix(10**6 + 1)
    return E


@pytest.fixture(scope="session")
def p23():
    return PeriodicSequence([2, 3])


@pytest.fixture(scope="session")
def log_preset():
    return PresetSequence("log")


@pytest.fixture(scope="session")
def iterated_log():
    return PresetSequence("iterated-log")
