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
    bilinear,
    radical,
    subgroup_invariants,
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
        h0_idx = int(self.group.index_of(np.array(self.h0, dtype=np.int64)))
        b_h0 = self.bform.table_rows(slice(h0_idx, h0_idx + 1))[0]
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
    twist of the category is used.  Groups of order up to ``AXIOM_CAP`` are
    covered; twist values whose common denominator reaches 2^61 are held as
    Python integers.

    Biadditivity and multiplicativity are decided from generator
    identities in O(|G|·rank²).  With phi_j = b(-, e_j), b(x, z) =
    sum_j z_j phi_j(x) exactly on representatives.

    - Biadditivity, b(x + y, z) = b(x, z) + b(y, z), holds iff every
      phi_j(x + e_i) = phi_j(x) + phi_j(e_i).  These are its cases
      y = e_i, z = e_j; given them, induction over y as a sum of
      generators makes each phi_j additive (phi_j(0) = 0), hence b.
    - Given biadditivity, multiplicativity holds iff theta(0) = 0 and
      every theta(x + e_i) = theta(x) + theta(e_i) + b(x, e_i).  These are
      its cases x = y = 0 and y = e_i.  Given them, summing the identity
      along x, x + e_i, ..., x + n_i e_i = x and subtracting the same sum
      at x = 0 gives n_i phi_i(x) = 0; a carry in coordinate i changes
      sum_j z_j phi_j(x) by that, so b(x, -) is additive too.  Expanding
      theta(x + y' + e_i) and theta(y' + e_i) by the identity and
      b(x + y', e_i), b(x, y' + e_i) by additivity then carries
      multiplicativity at (x, y') over to (x, y' + e_i), from y' = 0.

    Only a check that fails is scanned, to report its lexicographically
    first witness: over all triples up to order 128 for biadditivity and
    against the generators above that, comparing exact integer value
    tables built in the row blocks of :func:`~gvblocks.forms._chunks`.
    """
    group = C.group
    m = group.order
    if m > AXIOM_CAP:
        raise CapacityError(
            "pointed.capacity", f"group order {m} exceeds axiom cap {AXIOM_CAP}"
        )
    elements = group.sorted_elements
    b = C.bform
    bden = b.int_form[0]
    if twist is None:
        tden, tnum = C.twist_numerators
    else:
        tvals = [twist(x) % 1 for x in elements]
        tden = math.lcm(bden, *(t.denominator for t in tvals))
        # the multiplicativity sum adds three values below tden
        dtype = object if tden >= 2**61 else np.int64
        tnum = np.array([int(t * tden) for t in tvals], dtype=dtype) % tden
    scale = tden // bden

    # x -> x + e_i is a roll along axis i of the sorted-order grid
    shape = group.invariant_factors
    gens = group.index_of(np.eye(group.rank, dtype=np.int64))
    Vg = b.against_generators()
    VgB = Vg.reshape(shape + (group.rank,))
    scan_bi = not all(
        np.array_equal(np.roll(VgB, -1, axis=i).reshape(Vg.shape), (Vg + Vg[g]) % bden)
        for i, g in enumerate(gens)
    )
    tgrid = tnum.reshape(shape)
    scan_mult = scan_bi or not (
        tnum[0] == 0
        and all(
            np.array_equal(
                np.roll(tgrid, -1, axis=i).reshape(m),
                (tnum + tnum[g] + Vg[:, i].astype(tnum.dtype) * scale) % tden,
            )
            for i, g in enumerate(gens)
        )
    )

    triple = m <= 128
    biadditive = multiplicative = None
    for chunk in _chunks(m):
        if not (scan_bi or scan_mult):
            break
        V = b.table_rows(chunk)
        add = group.add_index(chunk)
        if scan_bi and triple:
            # m <= 128 is a single block: V is the whole table
            bad = np.argwhere(V[add] != (V[:, None, :] + V[None, :, :]) % bden)
            if bad.size:
                biadditive = tuple(elements[i] for i in bad[0])
        elif scan_bi:
            ok = np.ones(add.shape, dtype=bool)
            for j in range(group.rank):
                ok &= Vg[add, j] == (Vg[chunk, j, None] + Vg[None, :, j]) % bden
            bad = np.argwhere(~ok)
            if bad.size:
                r, y = bad[0]
                x = chunk.start + r
                j = np.flatnonzero(Vg[add[r, y]] != (Vg[x] + Vg[y]) % bden)[0]
                biadditive = (elements[x], elements[y], group.generator(int(j)))
        if scan_mult:
            V = V.astype(tnum.dtype, copy=False) * scale
            bad = np.argwhere(tnum[add] != (tnum[chunk, None] + tnum[None, :] + V) % tden)
            if bad.size:
                multiplicative = (elements[chunk.start + bad[0][0]], elements[bad[0][1]])
        scan_bi = scan_bi and biadditive is None
        scan_mult = scan_mult and multiplicative is None

    dual_idx = group.index_of(np.array(C.g0, dtype=np.int64) - group.element_array)
    unbalanced = np.flatnonzero(tnum[dual_idx] != tnum)
    odd = np.flatnonzero(C.qform.values[group.neg_index] != C.qform.values)
    u = elements[unbalanced[0]] if unbalanced.size else None
    witnesses = {
        "braiding biadditive": biadditive,
        "twist multiplicative": multiplicative,
        "twist unit": None if tnum[0] == 0 else (group.zero,),
        "ribbon": None if u is None else (u,),
        "pairing balance": None if u is None else (u, C.dual(u)),
        "quadratic even": (elements[odd[0]],) if odd.size else None,
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
    coords = np.array(rad.elements, dtype=np.int64).reshape(rad.order, C.group.rank)
    theta = C.twist_numerators[1][C.group.index_of(coords)]
    bal = tuple(x for x, t in zip(rad.elements, theta) if t == 0)
    return MuegerCenter(
        rad, Subgroup(C.group, bal, subgroup_invariants(C.group, bal))
    )


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
