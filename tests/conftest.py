import pytest

from gen import load


@pytest.fixture
def fig_a():
    return load("fig_a.net")


@pytest.fixture
def fig_b():
    return load("fig_b.net")


@pytest.fixture
def fig_c():
    return load("fig_c.net")


@pytest.fixture
def fig_chain():
    return load("fig_chain.net")
