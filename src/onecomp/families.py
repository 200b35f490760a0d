"""The example families used by the regression and acceptance suites.

Each factory returns fresh objects.  An infinite family is a listed prefix
plus a declared tail, the same object ``onecomp seed-examples`` writes: the
Example 1 atoms n <= 64, whose masses stay normal doubles, the geometric
zeros n <= 48 and the sparse zeros n <= 7, near the double-precision depth
floor.  The tail bounds what is left, so every truncation is certified.
"""

from __future__ import annotations

import math

from .geometry import BoundaryArc
from .inner import BlaschkeProduct, InnerFunction, SingularInner, ZeroSequence
from .measures import AtomicMeasure, CantorMeasure


def single_atom_measure() -> AtomicMeasure:
    return AtomicMeasure([(0.0, 1.0)])


def single_atom() -> InnerFunction:
    """Unit point mass at angle 0: |S(r)| = exp(-(1+r)/(1-r)) on the radius."""
    return InnerFunction(singular=SingularInner(single_atom_measure()))


def two_atoms() -> InnerFunction:
    return InnerFunction(singular=SingularInner(
        AtomicMeasure([(0.0, 1.0), (math.pi, 1.0)])))


def example1_measure() -> AtomicMeasure:
    """Atoms alpha_n = 8^{-n} at angles theta_n = 2^{-n}, n >= 1.

    sum alpha_n theta_n^{-2} = sum 2^{-n} = 1, so the associated singular
    inner function satisfies |S(r)| >= exp(-3 (1 - r^2)) for r >= 1/2.
    Atoms n <= 64 are listed; the rest, of mass 8^-64 / 7, lie in the hull
    [0, 1/8].
    """
    listed = 64
    return AtomicMeasure([(2.0 ** -n, 8.0 ** -n) for n in range(1, listed + 1)],
                         tail_mass=(8.0 ** -listed) / 7.0,
                         tail_hull=[BoundaryArc.from_endpoints(0.0, 2.0 ** -3)],
                         accumulation=[0.0])


def example1() -> InnerFunction:
    return InnerFunction(singular=SingularInner(example1_measure()))


def cantor_inner() -> InnerFunction:
    return InnerFunction(singular=SingularInner(CantorMeasure.middle_thirds()))


def radial_geometric_zeros() -> ZeroSequence:
    """Zeros 1 - 2^{-n}, n >= 1, listed to n = 48; the exact tail 2^-48."""
    listed = 48
    return ZeroSequence([complex(1.0 - 2.0 ** -n, 0.0) for n in range(1, listed + 1)],
                        tail_blaschke_sum=2.0 ** -listed, accumulation_angles=[0.0])


def radial_geometric() -> InnerFunction:
    return InnerFunction(blaschke=BlaschkeProduct(radial_geometric_zeros()))


def radial_sparse_zeros() -> ZeroSequence:
    """Zeros 1 - 2^{-n^2}, n >= 1, listed to n = 7; super-geometric gaps,
    tail ratio -> 0, and the tail 2 * 2^-64 bounds the rest."""
    listed = 7
    return ZeroSequence([complex(1.0 - 2.0 ** -(n * n), 0.0) for n in range(1, listed + 1)],
                        tail_blaschke_sum=2.0 * 2.0 ** -((listed + 1) ** 2),
                        accumulation_angles=[0.0])


def radial_sparse() -> InnerFunction:
    return InnerFunction(blaschke=BlaschkeProduct(radial_sparse_zeros()))


def finite_blaschke(zeros, unimodular: complex = 1.0 + 0.0j) -> InnerFunction:
    return InnerFunction(unimodular=unimodular,
                         blaschke=BlaschkeProduct(ZeroSequence(zeros)))


SEEDED_FAMILY_BUILDERS = {
    "atom1": single_atom,
    "atoms2": two_atoms,
    "example1": example1,
    "cantor": cantor_inner,
    "radial_geometric": radial_geometric,
    "radial_sparse": radial_sparse,
}
