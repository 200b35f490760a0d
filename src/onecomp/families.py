"""The example families used by the regression and acceptance suites.

Each factory returns fresh objects (generators are single-use).  Radial
families stop at the double-precision depth floor; the remaining Blaschke
sum stays declared as a tail bound, so every truncation is certified.
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
    The first two atoms are listed; the rest come from the generator.
    """
    n0 = 2
    atoms = [(2.0 ** -n, 8.0 ** -n) for n in range(1, n0 + 1)]

    def gen(start=n0 + 1):
        # cap where 8^-n stays a normal double; the remainder is the tail
        n = start
        while n <= 100:
            yield (2.0 ** -n, 8.0 ** -n, (8.0 ** -n) / 7.0)
            n += 1

    return AtomicMeasure(atoms, generator=gen(),
                         tail_mass=(8.0 ** -n0) / 7.0,
                         tail_hull=[BoundaryArc.from_endpoints(0.0, 2.0 ** -(n0 + 1))],
                         accumulation=[0.0])


def example1() -> InnerFunction:
    return InnerFunction(singular=SingularInner(example1_measure()))


def cantor_inner() -> InnerFunction:
    return InnerFunction(singular=SingularInner(CantorMeasure.middle_thirds()))


def radial_geometric_zeros() -> ZeroSequence:
    """Zeros 1 - 2^{-n}, n >= 1, generated to n = 50; exact geometric tail budget."""

    def gen():
        for n in range(1, 51):
            yield (complex(1.0 - 2.0 ** -n, 0.0), 2.0 ** -n)

    return ZeroSequence(generator=gen(), tail_blaschke_sum=1.0,
                        ordered_by_modulus=True, accumulation_angles=[0.0])


def radial_geometric() -> InnerFunction:
    return InnerFunction(blaschke=BlaschkeProduct(radial_geometric_zeros()))


def radial_sparse_zeros() -> ZeroSequence:
    """Zeros 1 - 2^{-n^2}, n >= 1, generated to n = 7; super-geometric gaps,
    tail ratio -> 0."""

    def gen():
        for n in range(1, 8):
            yield (complex(1.0 - 2.0 ** -(n * n), 0.0), 2.0 * 2.0 ** -((n + 1) ** 2))

    return ZeroSequence(generator=gen(), tail_blaschke_sum=1.0,
                        ordered_by_modulus=True, accumulation_angles=[0.0])


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
