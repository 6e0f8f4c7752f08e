"""Uniform angle grids, plus the two special functions the toolkit needs
(third Jacobi theta, modified Bessel I0).

Everything here works on 2*pi-periodic data sampled on uniform nodes
``phi_j = -pi + 2*pi*j/n_phi``.  The rectangle rule on them,
``grid.spacing * f(grid.nodes).sum()``, integrates trigonometric polynomials
of degree < n_phi exactly: the only integrands the package produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# where the series of theta3 and bessel_i0 stop
SERIES_TOL = 1e-16

__all__ = [
    "TWO_PI",
    "AngleGrid",
    "theta3",
    "bessel_i0",
]


@dataclass(frozen=True)
class AngleGrid:
    """Uniform grid of ``n_phi`` nodes ``phi_j = -pi + 2*pi*j/n_phi``.

    ``n_phi`` must be even and at least 4 so that half-angle shifts map one
    uniform grid onto another.
    """

    n_phi: int

    def __post_init__(self):
        if self.n_phi < 4 or self.n_phi % 2 != 0:
            raise ValueError(
                f"n_phi must be an even integer >= 4, got {self.n_phi}"
            )

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_phi

    @property
    def nodes(self) -> np.ndarray:
        phi = -np.pi + TWO_PI * np.arange(self.n_phi) / self.n_phi
        phi.flags.writeable = False
        return phi

    def node(self, j: int) -> float:
        return -np.pi + TWO_PI * j / self.n_phi


def theta3(z: float, q: float) -> float:
    """Third Jacobi theta function ``theta3(z|q) = sum_n q^(n^2) e^(2 i n z)``.

    Real for real ``z``; the lattice sum stops once ``q^(n^2) < SERIES_TOL``.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"nome q must satisfy 0 <= q < 1, got {q}")
    total = 1.0
    n = 1
    while True:
        term = q ** (n * n)
        if term < SERIES_TOL:
            break
        total += 2.0 * term * np.cos(2.0 * n * z)
        n += 1
    return total


def bessel_i0(x: float) -> float:
    """Modified Bessel function ``I0(x)`` by its power series.

    Terms ``(x/2)^(2m) / (m!)^2`` are accumulated until they drop below
    ``SERIES_TOL`` relative to the running sum, or until the sum overflows to
    ``inf`` (beyond about ``x = 713``; ``inf`` itself returns at once).
    """
    if not x >= 0:
        raise ValueError(f"bessel_i0 requires x >= 0, got {x}")
    # Python floats overflow to inf silently, where numpy scalars would warn.
    x = float(x)
    quarter_x2 = 0.25 * x * x
    total = 1.0
    term = 1.0
    m = 1
    while True:
        term *= quarter_x2 / (m * m)
        if term < SERIES_TOL * total:
            break
        total += term
        if total == np.inf:
            break
        m += 1
    return total
