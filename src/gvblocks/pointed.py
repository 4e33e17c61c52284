"""Pointed ribbon Grothendieck-Verdier categories (G, q, h0).

Simple objects are the elements of a finite abelian group G, the monoidal
product is addition with unit 0, and a quadratic form q encodes the braided
structure up to braided equivalence (its polarization b is the double
braiding).  The distinguished element h0 fixes the dualizing object
g0 = 2*h0, the duality D(x) = g0 - x, the twist
theta(x) = q(x) - b(x, h0), and the pairing kappa(x, y) = [x + y == g0].

Individual braiding scalars and the associator are never represented; all
formulas use q and b only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .forms import (
    BilinearForm,
    Element,
    FinAbGroup,
    QForm,
    Subgroup,
    _chunks,
    as_fraction,
    bilinear,
    radical,
)

#: Largest group order the exhaustive axiom checker accepts.
AXIOM_CAP = 2**12


@dataclass(frozen=True)
class PointedGVCategory:
    group: FinAbGroup
    qform: QForm
    h0: Element

    @cached_property
    def bform(self) -> BilinearForm:
        return bilinear(self.qform)

    @cached_property
    def radical(self) -> Subgroup:
        """Transparent objects: the radical of the double braiding b."""
        return radical(self.bform)

    @cached_property
    def twist_numerators(self) -> tuple[int, np.ndarray]:
        """Denominator T and the numerators T*theta(x) for x in sorted order."""
        qden, bden = self.qform.int_form[0], self.bform.int_form[0]
        tden = math.lcm(qden, bden)
        # b(x, h0) = sum_j h0_j b(x, e_j)
        b_h0 = self.bform.weights @ np.array(self.h0, dtype=np.int64) % bden
        return tden, (self.qform.values * (tden // qden) - b_h0 * (tden // bden)) % tden

    @cached_property
    def g0(self) -> Element:
        """Degree of the dualizing object."""
        return self.group.scale(2, self.h0)

    def dual(self, x: Sequence[int]) -> Element:
        return self.group.add(self.g0, self.group.neg(self.group.reduce(x)))

    def theta(self, x: Sequence[int]) -> Fraction:
        return (self.qform(x) - self.bform(x, self.h0)) % 1

    def kappa(self, x: Sequence[int], y: Sequence[int]) -> int:
        return 1 if self.group.add(self.group.reduce(x), self.group.reduce(y)) == self.g0 else 0


def make_category(group: FinAbGroup, qform: QForm, h0: Sequence[int]) -> PointedGVCategory:
    """Assemble the category; q must be a validated form on ``group``."""
    if qform.group != group:
        raise ValidationError(
            "pointed.group_mismatch", "quadratic form lives on a different group"
        )
    return PointedGVCategory(group, qform, group.reduce(h0))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def check_axioms(
    C: PointedGVCategory, twist: Callable[[Element], Fraction] | None = None
) -> AxiomReport:
    """Exhaustively verify the balanced braided / ribbon axioms.

    ``twist`` substitutes an alternative balancing map, which is how a
    deliberately broken structure can be probed; by default the derived
    twist of the category is used.  Each of its values is read through
    :func:`~gvblocks.forms.as_fraction`.  Groups of order up to
    ``AXIOM_CAP`` are covered; twist values whose common denominator
    reaches 2^61 are held as Python integers.  A failed check reports its
    lexicographically first witness in sorted element order, at every
    group order.

    - Biadditivity, b(x + y, z) = b(x, z) + b(y, z), is decided from b's
      integer matrix B over its denominator M in O(rank²).  b is linear
      on representatives, and x + y in G is x + y - sum_i c_i n_i e_i
      with a carry c_i = [x_i + y_i >= n_i], so the defect is
      -sum_{i,j} c_i z_j n_i B_ij mod M.  Any carry pattern occurs, and
      only factors n_i > 1 have nonzero coordinates (e_i = 0 when
      n_i = 1), so b is biadditive iff n_i B_ij = 0 mod M for all i, j
      with n_i, n_j > 1.  A carry at i needs x_i != 0, so the first
      failing x is e_i for the last failing row i; the first y carrying
      there alone is (n_i - 1) e_i; the defect is linear in z's
      coordinates, so the first failing z is e_j for the last failing
      column j of row i.
    - Given biadditivity, multiplicativity holds iff theta(0) = 0 and
      theta(x + e_i) = theta(x) + theta(e_i) + b(x, e_i) for every x and
      every factor n_i > 1.  These are its cases x = y = 0 and y = e_i.
      Given them, summing the identity along x, x + e_i, ...,
      x + n_i e_i = x and subtracting the same sum at x = 0 gives
      n_i phi_i(x) = 0 for phi_j = b(-, e_j); as b(x, z) =
      sum_j z_j phi_j(x) on representatives, a carry in coordinate i
      changes it by that, so b(x, -) is additive too.  Expanding
      theta(x + y' + e_i) and theta(y' + e_i) by the identity and
      b(x + y', e_i), b(x, y' + e_i) by additivity then carries
      multiplicativity at (x, y') over to (x, y' + e_i), from y' = 0.
      Only when b is not biadditive or an identity fails are the pairs
      scanned for the witness, comparing exact integer value tables built in the row
      blocks of :func:`~gvblocks.forms._chunks`, with theta(x + y) read by
      :meth:`~gvblocks.forms.FinAbGroup.translates`.
    """
    group = C.group
    m = group.order
    if m > AXIOM_CAP:
        raise CapacityError(
            "pointed.capacity", f"group order {m} exceeds axiom cap {AXIOM_CAP}"
        )
    b = C.bform
    bden, B = b.int_form
    if twist is None:
        tden, tnum = C.twist_numerators
    else:
        tvals = [as_fraction(twist(x)) % 1 for x in group.elements]
        tden = math.lcm(bden, *(t.denominator for t in tvals))
        # the multiplicativity sum adds three values below tden
        dtype = object if tden >= 2**61 else np.int64
        tnum = np.array([int(t * tden) for t in tvals], dtype=dtype) % tden
    scale = tden // bden

    shape = group.invariant_factors
    axes = [i for i, n in enumerate(shape) if n > 1]
    failing = [(i, j) for i in axes for j in axes if shape[i] * B[i][j] % bden]
    biadditive = None
    if failing:
        i, j = failing[-1]
        e = group.generator(i)
        biadditive = (e, group.scale(shape[i] - 1, e), group.generator(j))

    # theta(x + e_i) for every x and every axis i with n_i > 1, one row per
    # axis; its column 0 is theta(e_i)
    steps = np.eye(group.rank, dtype=np.int64)[axes, None]
    shifted = tnum[group.index_of(group.element_array + steps)]
    Vg = b.weights[:, axes].T.astype(tnum.dtype) * scale
    scan = failing or not (
        tnum[0] == 0 and np.array_equal(shifted, (tnum + shifted[:, :1] + Vg) % tden)
    )
    multiplicative = None
    if scan:
        wrapped = tnum[group.wrap_index]
        for chunk in _chunks(m):
            V = b.table_rows(chunk).astype(tnum.dtype, copy=False) * scale
            total = (tnum[chunk, None] + tnum[None, :] + V) % tden
            bad = np.argwhere(group.translates(wrapped, chunk) != total)
            if bad.size:
                x, y = chunk.start + bad[0][0], bad[0][1]
                multiplicative = (group.elements[x], group.elements[y])
                break

    dual_idx = group.index_of(np.array(C.g0, dtype=np.int64) - group.element_array)
    unbalanced = np.flatnonzero(tnum[dual_idx] != tnum)
    odd = np.flatnonzero(C.qform.values[group.neg_index] != C.qform.values)
    u = group.elements[unbalanced[0]] if unbalanced.size else None
    witnesses = {
        "braiding biadditive": biadditive,
        "twist multiplicative": multiplicative,
        "twist unit": None if tnum[0] == 0 else (group.zero,),
        "ribbon": None if u is None else (u,),
        "pairing balance": None if u is None else (u, C.dual(u)),
        "quadratic even": (group.elements[odd[0]],) if odd.size else None,
    }
    return AxiomReport(
        tuple(AxiomCheck(name, w is None, w) for name, w in witnesses.items())
    )


@dataclass(frozen=True)
class MuegerCenter:
    """Transparent objects and the balanced part among them."""

    radical: Subgroup
    balanced: Subgroup


def mueger_center(C: PointedGVCategory) -> MuegerCenter:
    """Radical of b, and within it the elements with trivial twist."""
    rad = C.radical
    index = np.array(rad.index, dtype=np.int64)
    balanced = index[C.twist_numerators[1][index] == 0]
    return MuegerCenter(rad, Subgroup(C.group, tuple(balanced.tolist())))


@dataclass(frozen=True)
class Verdicts:
    """Structured modularity verdicts; ``None`` means undetermined.

    Cofactorizability is equivalent to non-degeneracy of the double
    braiding here, and is a sufficient (not necessary) condition for
    connectedness, hence the tri-state.
    """

    nondegenerate: bool
    cofactorizable: bool
    modular: bool
    connected: bool | None
    extension_unique: bool | None


def verdicts(C: PointedGVCategory) -> Verdicts:
    nondeg = C.radical.is_trivial
    modular = nondeg and C.g0 == C.group.zero
    connected = True if nondeg else None
    return Verdicts(
        nondegenerate=nondeg,
        cofactorizable=nondeg,
        modular=modular,
        connected=connected,
        extension_unique=True if connected else None,
    )
