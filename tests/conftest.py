import pytest

from rankedrev import RankedRevision, enumerate_rank_functions, random_rank_function

from helpers import R0, SIG1, SIG2, SIG3, SIG16


@pytest.fixture
def sig1():
    return SIG1


@pytest.fixture
def sig2():
    return SIG2


@pytest.fixture
def sig3():
    return SIG3


@pytest.fixture
def r0():
    return R0


@pytest.fixture
def rv0():
    return RankedRevision(R0)


@pytest.fixture(scope="session")
def ranks75():
    return list(enumerate_rank_functions(SIG2))


@pytest.fixture(scope="session")
def revs75(ranks75):
    return [RankedRevision(r) for r in ranks75]


@pytest.fixture(scope="session")
def rank16():
    """A seeded rank function with 16 levels over 16 atoms."""
    return random_rank_function(SIG16, 16, 11)
