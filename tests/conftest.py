import pytest

from nicolai import ModelSpec


@pytest.fixture(scope="session")
def ring():
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = ModelSpec.ring(m)
        return cache[m]

    return get
