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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .forms import _as_items, as_coordinates, as_int
from .pointed import PointedGVCategory
from .surfaces import PantsDecomposition, SurfaceSpec, _genus
from .torus import ModularData, _vacuum

#: Bits of the largest |G|^g computed; a larger one is refused before the power.
DIM_BITS_CAP = 2**24


def _vanishes(C: PointedGVCategory, genus: int, labels: tuple) -> bool:
    """Whether ``labels`` plus (genus - 1)*g0 sum to zero: the one reader of
    a surface's label degree.  Each label is read once, as
    :meth:`~gvblocks.forms.FinAbGroup.reduce` reads it, with its refusal
    codes, messages and order; the coordinates are added as Python ints and
    reduced once mod each n_i, which is the same test, as a sum of the
    a_i mod n is congruent to the sum of the a_i."""
    rank = C.group.rank
    total = [(genus - 1) * a for a in C.g0]
    for lab in labels:
        vec = lab if type(lab) is tuple else as_coordinates(lab, "coordinate")
        if len(vec) != rank:
            raise ValidationError(
                "forms.bad_element", f"element has {len(vec)} coordinates, group has rank {rank}"
            )
        for i, v in enumerate(vec):
            total[i] += as_int(v, "forms.bad_element", "coordinate")
    return not any(t % n for t, n in zip(total, C.group.invariant_factors))


def _dimension(C: PointedGVCategory, genus: int, labels: tuple) -> int:
    """:func:`block_dim_direct` on a genus and labels already read."""
    if not _vanishes(C, genus, labels):
        return 0
    order = C.group.order
    if genus * math.log2(order) >= DIM_BITS_CAP:
        raise CapacityError("blocks.overflow", f"{order}^{genus} has more than 2^24 bits")
    return order**genus


def meets_condition(C: PointedGVCategory, spec: SurfaceSpec) -> bool:
    """Whether the total boundary degree plus (g-1)*g0 vanishes; ``spec`` is
    read as :func:`~gvblocks.surfaces.make_surface` reads its arguments."""
    genus = _genus(spec.genus)
    return _vanishes(C, genus, _as_items(spec.boundary_labels, "forms.bad_element", "labels"))


def block_dim_direct(C: PointedGVCategory, spec: SurfaceSpec) -> int:
    """|G|^g when :func:`meets_condition`, else 0.  A |G|^g of more than
    :data:`DIM_BITS_CAP` bits raises ``CapacityError("blocks.overflow")``."""
    genus = _genus(spec.genus)
    return _dimension(C, genus, _as_items(spec.boundary_labels, "forms.bad_element", "labels"))


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
    return _dimension(C, pd.genus, labels)


@dataclass(frozen=True)
class VerlindeReport:
    """Raw Verlinde number with its integer rounding and residual."""

    value: complex
    rounded: int
    residual: float


def verlinde_dim(
    md: ModularData, genus: int, boundary_indices: Sequence[int] = ()
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
    s0 = _vacuum(md.S[0])
    exponent = 2 - 2 * genus - len(indices)
    # the product over no boundary is 1.0, which multiplies exactly; a power
    # or sum past the float range is inf or nan, refused below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(s0**exponent * np.prod([md.S[i] for i in indices], axis=0)))
    if not cmath.isfinite(value):
        raise CapacityError("blocks.overflow", f"the Verlinde sum overflows at genus {genus}")
    rounded = int(round(value.real))
    return VerlindeReport(value, rounded, abs(value - rounded))
