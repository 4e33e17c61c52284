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

from .errors import CapacityError
from .forms import (
    BilinearForm,
    Element,
    FinAbGroup,
    QForm,
    Subgroup,
    _np_safe,
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
    assert qform.group == group, "quadratic form lives on a different group"
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
    twist of the category is used.  Groups of order up to 4096 are
    exhausted; biadditivity uses the full triple loop up to order 128 and
    the equivalent generator form above that.  The checks run on exact
    integer value tables; a plain loop fallback covers inputs whose
    denominators exceed the table range.
    """
    group = C.group
    if group.order > AXIOM_CAP:
        raise CapacityError(
            "pointed.capacity", f"group order {group.order} exceeds axiom cap {AXIOM_CAP}"
        )
    bden, _ = C.bform.int_form
    qden, _ = C.qform.int_form
    max_coord = max(group.invariant_factors, default=1)
    use_tables = group.order <= 1024 and _np_safe(
        max(bden, qden), max_coord, group.rank
    )
    if use_tables:
        return _check_axioms_tables(C, twist)
    return _check_axioms_loops(C, twist)


def _check_axioms_tables(C: PointedGVCategory, twist) -> AxiomReport:
    import numpy as np

    from .forms import _element_array

    group = C.group
    m = group.order
    k = group.rank
    elements = group.sorted_elements
    X = _element_array(group)
    factors = np.array(group.invariant_factors, dtype=np.int64).reshape(k)
    strides = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        strides[i] = strides[i + 1] * factors[i + 1]

    def idx_of(rows: np.ndarray) -> np.ndarray:
        return rows @ strides if k else np.zeros(len(rows), dtype=np.int64)

    bden, bint = C.bform.int_form
    qden, qint = C.qform.int_form
    B = np.array(bint, dtype=np.int64).reshape(k, k)
    Q = np.array(qint, dtype=np.int64).reshape(k, k)
    V = (X @ B @ X.T) % bden
    qv = np.einsum("ij,jk,ik->i", X, Q, X) % qden
    add_idx = np.zeros((m, m), dtype=np.int64)
    for i in range(k):
        add_idx += ((X[:, None, i] + X[None, :, i]) % int(factors[i])) * int(strides[i])
    neg_idx = idx_of((-X) % factors) if k else np.zeros(m, dtype=np.int64)
    g0 = np.array(C.g0, dtype=np.int64)
    dual_idx = idx_of((g0 - X) % factors) if k else np.zeros(m, dtype=np.int64)

    if twist is None:
        tden = math.lcm(qden, bden)
        h0_idx = int(idx_of(np.array([C.h0], dtype=np.int64).reshape(1, k))[0])
        tnum = (qv * (tden // qden) - V[:, h0_idx] * (tden // bden)) % tden
    else:
        tvals = [twist(x) % 1 for x in elements]
        tden0 = 1
        for t in tvals:
            tden0 = math.lcm(tden0, t.denominator)
        tden = math.lcm(tden0, bden)
        tnum = np.array([int(t * tden) for t in tvals], dtype=np.int64) % tden

    checks = []

    def report(name, mask, witness_fn):
        bad = np.argwhere(~mask)
        if bad.size:
            checks.append(AxiomCheck(name, False, witness_fn(bad[0])))
        else:
            checks.append(AxiomCheck(name, True, None))

    if m <= 128:
        lhs = V[add_idx]  # b(x+y, z) numerators
        rhs = (V[:, None, :] + V[None, :, :]) % bden
        report(
            "braiding biadditive",
            lhs == rhs,
            lambda w: (elements[w[0]], elements[w[1]], elements[w[2]]),
        )
    else:
        gidx = idx_of(np.array(group.generators(), dtype=np.int64).reshape(k, k))
        Vg = V[:, gidx]
        lhs = Vg[add_idx]
        rhs = (Vg[:, None, :] + Vg[None, :, :]) % bden
        report(
            "braiding biadditive",
            lhs == rhs,
            lambda w: (elements[w[0]], elements[w[1]], group.generator(int(w[2]))),
        )
    scale = tden // bden
    mult_ok = tnum[add_idx] == (tnum[:, None] + tnum[None, :] + V * scale) % tden
    report("twist multiplicative", mult_ok, lambda w: (elements[w[0]], elements[w[1]]))
    zero_idx = int(idx_of(np.zeros((1, k), dtype=np.int64))[0])
    report("twist unit", np.array([tnum[zero_idx] == 0]), lambda w: (group.zero,))
    ribbon_ok = tnum[dual_idx] == tnum
    report("ribbon", ribbon_ok, lambda w: (elements[w[0]],))
    report(
        "pairing balance",
        ribbon_ok,
        lambda w: (elements[w[0]], C.dual(elements[w[0]])),
    )
    report("quadratic even", qv[neg_idx] == qv, lambda w: (elements[w[0]],))
    return AxiomReport(tuple(checks))


def _check_axioms_loops(C: PointedGVCategory, twist) -> AxiomReport:
    group = C.group
    th = twist if twist is not None else C.theta
    b = C.bform
    elements = list(group.elements())
    checks = []

    def run(name, witness_iter):
        witness = next(witness_iter, None)
        checks.append(AxiomCheck(name, witness is None, witness))

    if group.order <= 128:
        run(
            "braiding biadditive",
            (
                (x, y, z)
                for x in elements
                for y in elements
                for z in elements
                if b(group.add(x, y), z) != (b(x, z) + b(y, z)) % 1
            ),
        )
    else:
        gens = group.generators()
        run(
            "braiding biadditive",
            (
                (x, y, z)
                for x in elements
                for y in elements
                for z in gens
                if b(group.add(x, y), z) != (b(x, z) + b(y, z)) % 1
            ),
        )
    run(
        "twist multiplicative",
        (
            (x, y)
            for x in elements
            for y in elements
            if th(group.add(x, y)) % 1 != (th(x) + th(y) + b(x, y)) % 1
        ),
    )
    run("twist unit", ((group.zero,) for _ in range(1) if th(group.zero) % 1 != 0))
    run("ribbon", ((x,) for x in elements if th(C.dual(x)) % 1 != th(x) % 1))
    run(
        "pairing balance",
        (
            (x, y)
            for x in elements
            for y in [C.dual(x)]
            if C.kappa(x, y) == 1 and th(x) % 1 != th(y) % 1
        ),
    )
    run("quadratic even", ((x,) for x in elements if C.qform(group.neg(x)) != C.qform(x)))
    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class MuegerCenter:
    """Transparent objects and the balanced part among them."""

    radical: Subgroup
    balanced: Subgroup


def mueger_center(C: PointedGVCategory) -> MuegerCenter:
    """Radical of b, and within it the elements with trivial twist."""
    rad = C.radical
    bal = tuple(x for x in rad.elements if C.theta(x) == 0)
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
