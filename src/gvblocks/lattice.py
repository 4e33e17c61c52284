"""Even lattices and their discriminant groups and forms.

A lattice is given by its Gram matrix on a basis (symmetric, even diagonal,
nonzero determinant) plus a distinguished dual vector xi in basis
coordinates.  The discriminant group is the quotient of the dual lattice by
the lattice, presented through the Smith normal form of the Gram matrix;
the discriminant form is q(x) = <x, x>/2 mod 1 evaluated on rational lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ValidationError
from .forms import (
    Element,
    FinAbGroup,
    QForm,
    _as_items,
    as_fraction,
    as_int,
    make_group,
    make_qform,
    smith_normal_form,
)
from .pointed import PointedGVCategory, make_category


@dataclass(frozen=True)
class LatticeData:
    """Even Gram matrix plus xi in the dual lattice (basis coordinates),
    validated on construction as :func:`make_lattice` says.  The lattice's one
    exact elimination is the Smith form U·gram·V = D, s = det(U)·det(V): the
    determinant s·d_1·...·d_k, the discriminant data and h0 are read off it.
    """

    gram: tuple[tuple[int, ...], ...]
    xi: tuple[Fraction, ...]

    def __post_init__(self):
        rows = tuple(
            tuple(
                as_int(x, "lattice.bad_matrix", "Gram entry")
                for x in _as_items(row, "lattice.bad_matrix", "Gram row")
            )
            for row in _as_items(self.gram, "lattice.bad_matrix", "Gram matrix")
        )
        k = len(rows)
        if any(len(row) != k for row in rows):
            raise ValidationError("lattice.bad_matrix", "Gram matrix must be square")
        for i in range(k):
            for j in range(k):
                if rows[i][j] != rows[j][i]:
                    raise ValidationError(
                        "lattice.bad_matrix", f"Gram matrix not symmetric at ({i},{j})"
                    )
        for i in range(k):
            if rows[i][i] % 2 != 0:
                raise ValidationError(
                    "lattice.not_even", f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd"
                )
        object.__setattr__(self, "gram", rows)
        if self.determinant == 0:
            raise ValidationError("lattice.degenerate", "Gram matrix has determinant 0")
        object.__setattr__(self, "xi", _dual_coordinates(self.xi, k))
        self.h0  # refuses an xi outside the dual lattice

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def _smith(self) -> tuple:
        return smith_normal_form(self.gram)

    @cached_property
    def determinant(self) -> int:
        _, d, _, sign = self._smith
        return sign * math.prod(d[i][i] for i in range(self.rank))

    @cached_property
    def _discriminant(self) -> DiscriminantData:
        u, d, v, _ = self._smith
        k = self.rank
        nontrivial = [i for i in range(k) if d[i][i] != 1]
        factors = [d[i][i] for i in nontrivial]
        lifts = tuple(
            tuple(Fraction(v[r][i], d[i][i]) for r in range(k)) for i in nontrivial
        )
        proj_rows = tuple(tuple(u[i]) for i in nontrivial)
        return DiscriminantData(make_group(factors), lifts, proj_rows)

    @cached_property
    def h0(self) -> Element:
        """The class of xi in the discriminant group."""
        return self._discriminant.element_of(self, self.xi)


def _dual_coordinates(y, k: int) -> tuple[Fraction, ...]:
    """``y`` as k exact rationals (:func:`~gvblocks.forms.as_fraction`);
    another item or another length raises ``ValidationError("lattice.bad_xi")``."""
    vec = tuple(as_fraction(c, "lattice.bad_xi") for c in _as_items(y, "lattice.bad_xi", "xi"))
    if len(vec) != k:
        raise ValidationError(
            "lattice.bad_xi", f"xi has {len(vec)} coordinates, lattice has rank {k}"
        )
    return vec


def make_lattice(gram, xi) -> LatticeData:
    """Validate bosonic lattice input.

    Rejects odd diagonal entries (NotEven), zero determinant (Degenerate),
    an xi entry that is not an exact rational (a float or a bool, say), and
    xi with gram @ xi not integral (XiNotDual), in this order.
    """
    return LatticeData(gram, xi)


@dataclass(frozen=True)
class DiscriminantData:
    """Discriminant group with generator lifts and the projection map.

    ``lifts[i]`` is a rational vector in the lattice basis representing the
    i-th generator; a dual vector y maps to coordinates U @ (gram @ y)
    reduced modulo the invariant factors (rows of U restricted to the
    nontrivial Smith factors).
    """

    group: FinAbGroup
    lifts: tuple[tuple[Fraction, ...], ...]
    proj_rows: tuple[tuple[int, ...], ...]

    def element_of(self, lattice: LatticeData, y: Sequence[Fraction]) -> Element:
        """Class in the discriminant group of a dual vector y (basis coords),
        read as :func:`make_lattice` reads xi."""
        k = lattice.rank
        y = _dual_coordinates(y, k)
        x = [sum(Fraction(lattice.gram[i][j]) * y[j] for j in range(k)) for i in range(k)]
        for i, c in enumerate(x):
            if c.denominator != 1:
                raise ValidationError("lattice.xi_not_dual", f"<e_{i}, xi> = {c} is not an integer")
        coords = [sum(row[j] * int(x[j]) for j in range(k)) for row in self.proj_rows]
        return self.group.reduce(coords)


def discriminant_data(lattice: LatticeData) -> DiscriminantData:
    """The discriminant group of ``lattice`` with its lifts and projection,
    from the Smith normal form of the Gram matrix, computed once per
    lattice."""
    return lattice._discriminant


def discriminant_form(lattice: LatticeData) -> QForm:
    """q(x) = <lift(x), lift(x)>/2 mod 1 on the discriminant group.

    Evenness of the lattice makes this independent of the choice of lifts;
    the result passes full quadratic-form validation.
    """
    data = discriminant_data(lattice)
    k = lattice.rank
    r = data.group.rank
    mat = [[Fraction(0)] * r for _ in range(r)]
    for a in range(r):
        for b in range(r):
            pair = sum(
                data.lifts[a][i] * lattice.gram[i][j] * data.lifts[b][j]
                for i in range(k)
                for j in range(k)
            )
            mat[a][b] = pair / 2
    return make_qform(data.group, mat)


def to_pointed_gv(lattice: LatticeData) -> PointedGVCategory:
    """The pointed category of the lattice data, with h0 the class of xi."""
    q = discriminant_form(lattice)
    return make_category(q.group, q, lattice.h0)
