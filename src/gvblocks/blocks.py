"""Conformal-block dimensions: direct formula, gluing count, Verlinde.

For a pointed category every simple object x pairs with D(x) to g0, so the
canonical coend collapses to |G| copies of g0 and the dimension for genus g
with boundary labels X_1..X_n is |G|^g when X_1 + ... + X_n + (g-1)*g0 = 0
and zero otherwise.  Gluing over a pants decomposition gives the same
count, as :func:`block_dim_glued` proves, so it is that formula read on the
genus of the dual graph; the brute-force count over every labelling of the
internal edges in the tests is its independent check.  The Verlinde sum
reads modular data in the (S, T) format of :mod:`gvblocks.torus`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DegenerateDataError, ValidationError
from .forms import _as_items, as_int
from .pointed import PointedGVCategory
from .surfaces import PantsDecomposition, SurfaceSpec
from .torus import ModularData


def meets_condition(C: PointedGVCategory, spec: SurfaceSpec) -> bool:
    """Whether the total boundary degree plus (g-1)*g0 vanishes."""
    group = C.group
    total = group.zero
    for lab in spec.boundary_labels:
        total = group.add(total, group.reduce(lab))
    return group.add(total, group.scale(spec.genus - 1, C.g0)) == group.zero


def block_dim_direct(C: PointedGVCategory, spec: SurfaceSpec) -> int:
    """|G|^g when :func:`meets_condition`, else 0."""
    return C.group.order**spec.genus if meets_condition(C, spec) else 0


def pants_multiplicity(C: PointedGVCategory, x, y, z) -> int:
    """Dimension of the three-point space: 1 iff x + y + z = g0."""
    g = C.group
    s = g.add(g.add(g.reduce(x), g.reduce(y)), g.reduce(z))
    return 1 if s == C.g0 else 0


def block_dim_glued(
    C: PointedGVCategory, pd: PantsDecomposition, labels: Sequence[Sequence[int]]
) -> int:
    """Factorization count: the labellings of the internal edges of the dual
    graph for which every pants vertex has a non-zero multiplicity.

    Each internal edge (a, b) carries some e on a and D(e) = g0 - e on b;
    a vertex asks its three values, legs reading the boundary labels, to
    sum to g0.  On the E non-loop edges this is A e = c for e in G^E, with
    A the signed incidence matrix of the V vertices and c_v = g0 - (labels
    at v) - (second halves at v, loops included) * g0.  A loop carries
    e + D(e) = g0 whatever e is, so it leaves the system and multiplies the
    count by |G|.

    A signed incidence matrix is totally unimodular, and the graph is
    connected, so A has rank V - 1 with one relation, that its rows sum to
    zero; its Smith form is V - 1 ones and zeros.  So A e = c is solvable in G^E iff sum_v c_v = 0,
    and then has |G|^(E - V + 1) solutions.  With L loops, every one of the
    E + L edges has one second half, so sum_v c_v = (V - E - L) g0 -
    sum(labels), and E + L - V + 1 is the genus g: the condition is
    sum(labels) + (g - 1) g0 = 0 and the count |G|^g.  That is
    :func:`block_dim_direct` on the genus of the dual graph.
    """
    labels = _as_items(labels, "blocks.label_mismatch", "labels")
    if len(labels) != pd.n:
        raise ValidationError(
            "blocks.label_mismatch",
            f"decomposition has {pd.n} boundary legs, got {len(labels)} labels",
        )
    return block_dim_direct(C, SurfaceSpec(pd.genus, labels))


@dataclass(frozen=True)
class VerlindeReport:
    """Raw Verlinde number with its integer rounding and residual."""

    value: complex
    rounded: int
    residual: float


def verlinde_dim(
    md: ModularData, genus: int, boundary_indices: Sequence[int] = (), tol: float = 1e-9
) -> VerlindeReport:
    """Sum over j of S_0j^(2-2g-n) * prod_k S_{i_k j}, for genus g >= 0 and
    boundary label indices i_k in [0, rank).  A sum past the float range
    raises ``CapacityError("blocks.overflow")``."""
    genus = as_int(genus, "blocks.bad_genus", "genus")
    if genus < 0:
        raise ValidationError("blocks.bad_genus", f"genus must be >= 0, got {genus}")
    indices = _as_items(boundary_indices, "blocks.bad_index", "boundary indices")
    for i in indices:
        if not 0 <= as_int(i, "blocks.bad_index", "boundary index") < md.rank:
            raise ValidationError(
                "blocks.bad_index", f"boundary index {i!r} is not a label index in [0, {md.rank})"
            )
    s0 = md.S[0]
    if np.abs(s0).min() < tol:
        raise DegenerateDataError("blocks.degenerate", "a vacuum S-matrix entry vanishes")
    exponent = 2 - 2 * genus - len(indices)
    # the product over no boundary is 1.0, which multiplies exactly; a power
    # or sum past the float range is inf or nan, refused below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(s0**exponent * np.prod([md.S[i] for i in indices], axis=0)))
    if not cmath.isfinite(value):
        raise CapacityError("blocks.overflow", f"the Verlinde sum overflows at genus {genus}")
    rounded = int(round(value.real))
    return VerlindeReport(value, rounded, abs(value - rounded))
