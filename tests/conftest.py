import numpy as np
import pytest

from renyi_extract import HashFamily, Pmf, Source
from renyi_extract.fields import FieldParams


@pytest.fixture(scope="session")
def gf4():
    return FieldParams.create(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return FieldParams.create(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return FieldParams.create(3, 2)


def make_source(field, probs, side_channel=None):
    return Source(Pmf(np.asarray(probs, dtype=float), field.q), side_channel)


def uniform_source(field, side_channel=None):
    n = field.size
    return make_source(field, np.full(n, 1.0 / n), side_channel)


def poly_family(field, k, m):
    return HashFamily("polynomial", field, k, m)
