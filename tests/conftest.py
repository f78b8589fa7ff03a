import math

import pytest

from dualgain import DualNumber, DualScalar, GainGraph, UnderlyingGraph

S2 = math.sqrt(2.0)


def complex_triangle(g01, g02, g12):
    graph = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
    return GainGraph(graph, "complex", {(0, 1): g01, (0, 2): g02, (1, 2): g12})


@pytest.fixture
def balanced_triangle():
    """Triangle whose cycle gain is 1; spectrum {2, -1, -1}."""
    return complex_triangle(
        DualScalar.complex(1, -1j),
        DualScalar.complex(-1j, 0),
        DualScalar.complex(-1j, 1),
    )


@pytest.fixture
def real_spectrum_triangle():
    """Unbalanced triangle with purely real eigenvalues."""
    return complex_triangle(
        DualScalar.complex(1, -1j),
        DualScalar.complex((1 - 1j) / S2, 0),
        DualScalar.complex(-1j, 1),
    )


@pytest.fixture
def dual_spectrum_triangle():
    """Unbalanced triangle with genuinely dual eigenvalues."""
    return complex_triangle(
        DualScalar.complex(1, -1j),
        DualScalar.complex((1 - 1j) / S2, 0),
        DualScalar.complex(-1j, 2),
    )


def _construction_count(monkeypatch, cls):
    """A list that grows by one entry at every construction of `cls`."""
    built = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.fixture
def scalar_count(monkeypatch):
    """A list that grows by one entry at every DualScalar construction."""
    return _construction_count(monkeypatch, DualScalar)


@pytest.fixture
def dual_number_count(monkeypatch):
    """A list that grows by one entry at every DualNumber construction."""
    return _construction_count(monkeypatch, DualNumber)
