"""Conformal-block dimensions: direct formula, gluing count, Verlinde.

For a pointed category every simple object x pairs with D(x) to g0, so the
canonical coend collapses to |G| copies of g0 and the dimension for genus g
with boundary labels X_1..X_n is |G|^g when X_1 + ... + X_n + (g-1)*g0 = 0
and zero otherwise.  Gluing over a pants decomposition gives the same
count, as :func:`block_dim_glued` proves, so it is that formula read on the
genus of the dual graph; the brute-force count over every labelling of the
internal edges in the tests is its independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError, DegenerateDataError, InternalError, ValidationError
from .forms import Element, FinAbGroup, _as_items, as_int
from .pointed import PointedGVCategory
from .surfaces import PantsDecomposition, SurfaceSpec


@dataclass(frozen=True)
class ModularData:
    """Labels with distinguished unit 0, S-matrix, and the diagonal of the
    T-matrix as a vector of length rank.

    ``conjugation`` is the charge-conjugation permutation as an index tuple;
    for pointed data it realizes x -> -x.  ``group`` is set when the data
    comes from a pointed category, whose labels are then its elements in
    sorted order.  :func:`make_modular_data` returns ``S`` and ``T``
    read-only.  ``_table`` is the character table that
    :func:`gvblocks.torus.st_matrices` builds ``S`` from; data built any
    other way, ``dataclasses.replace`` included, carries none.
    """

    labels: tuple[str, ...]
    S: np.ndarray
    T: np.ndarray
    conjugation: tuple[int, ...]
    group: FinAbGroup | None = None
    _table: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def elements(self) -> tuple[Element, ...] | None:
        """The group elements behind the labels, for pointed data."""
        return None if self.group is None else self.group.sorted_elements


#: Largest rank of modular data, and group order of pointed (S, T): an S of
#: 4096 labels holds 256 MB.
MATRIX_CAP = 4096


def _sq_norm(M: np.ndarray) -> float:
    """Squared Frobenius norm; square roots of sums of these are the one
    matrix norm used for residuals."""
    return float(np.vdot(M, M).real)


def _chunks(n: int) -> list[slice]:
    """Slices of ``range(n)`` whose rows or columns of an n x n matrix hold
    about 2^16 entries (1 MB of complex) each."""
    step = max(1, 2**16 // max(n, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _asymmetry(S: np.ndarray) -> float:
    """max |S - Sᵀ|: each row block is compared from its first column on,
    which meets every pair once.  It is NaN or inf exactly when S holds a
    non-finite entry, as a difference with a non-finite term is never
    finite."""
    with np.errstate(invalid="ignore"):  # inf - inf
        blocks = [np.abs(S[r, r.start :] - S[r.start :, r].T).max() for r in _chunks(len(S))]
    return float(np.max(blocks, initial=0.0))


def make_modular_data(
    labels: Sequence[str], S, T, conjugation: Sequence[int]
) -> ModularData:
    """Validate shape, finite entries, symmetry of S (in row blocks),
    unitary T, and S·S̄ᵀ = 1, each to within 1e-9.  ``T`` is the diagonal
    of the T-matrix, a vector of label size; more than :data:`MATRIX_CAP`
    labels are refused before S is read.

    S and T are kept as read-only copies, so the caller's arrays stay
    writable.
    """
    tol = 1e-9
    n = len(labels)
    if n == 0:
        raise ValidationError("blocks.bad_modular_data", "there must be at least the unit label")
    if n > MATRIX_CAP:
        raise CapacityError(
            "blocks.capacity", f"{n} labels exceed the matrix cap {MATRIX_CAP}"
        )
    S = np.array(S, dtype=complex)
    S.flags.writeable = False
    T = np.array(T, dtype=complex)
    T.flags.writeable = False
    if S.shape != (n, n):
        raise ValidationError("blocks.bad_modular_data", "S must be square of label size")
    if T.shape != (n,):
        raise ValidationError("blocks.bad_modular_data", "T must be a vector of label size")
    asymmetry = _asymmetry(S)
    if not math.isfinite(asymmetry):
        raise ValidationError("blocks.bad_modular_data", "S has a non-finite entry")
    if asymmetry > tol:
        raise ValidationError("blocks.bad_modular_data", "S is not symmetric")
    if not np.isfinite(T).all():
        raise ValidationError("blocks.bad_modular_data", "T has a non-finite entry")
    if np.abs(np.abs(T) - 1).max() > tol:
        raise ValidationError("blocks.bad_modular_data", "T diagonal is not unitary")
    if sorted(conjugation) != list(range(n)):
        raise ValidationError("blocks.bad_modular_data", "conjugation is not a permutation")
    if np.abs(S @ S.conj().T - np.eye(n)).max() > tol:
        raise ValidationError("blocks.bad_modular_data", "S is not unitary")
    return ModularData(
        tuple(str(lab) for lab in labels), S, T, tuple(int(i) for i in conjugation)
    )


def block_dim_direct(C: PointedGVCategory, spec: SurfaceSpec) -> int:
    """|G|^g when the total boundary degree plus (g-1)*g0 vanishes, else 0."""
    group = C.group
    total = group.zero
    for lab in spec.boundary_labels:
        total = group.add(total, group.reduce(lab))
    total = group.add(total, group.scale(spec.genus - 1, C.g0))
    return group.order**spec.genus if total == group.zero else 0


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
    boundary label indices i_k in [0, rank)."""
    genus = as_int(genus, "blocks.bad_genus", "genus")
    if genus < 0:
        raise ValidationError("blocks.bad_genus", f"genus must be >= 0, got {genus}")
    for i in boundary_indices:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < md.rank:
            raise ValidationError(
                "blocks.bad_index", f"boundary index {i!r} is not a label index in [0, {md.rank})"
            )
    s0 = md.S[0]
    if np.abs(s0).min() < tol:
        raise DegenerateDataError("blocks.degenerate", "a vacuum S-matrix entry vanishes")
    n = len(boundary_indices)
    exponent = 2 - 2 * genus - n
    total = np.sum(
        s0**exponent * np.prod([md.S[i] for i in boundary_indices], axis=0)
        if n
        else s0**exponent
    )
    value = complex(total)
    rounded = int(round(value.real))
    return VerlindeReport(value, rounded, abs(value - rounded))


#: Names of the embedded modular data tables, in the order the CLI lists them.
BUILTIN_NAMES = ("fibonacci", "ising")

_GOLDEN = (1 + math.sqrt(5)) / 2


def _fibonacci_data() -> ModularData:
    norm = math.sqrt(2 + _GOLDEN)
    S = np.array([[1, _GOLDEN], [_GOLDEN, -1]], dtype=complex) / norm
    T = [1, cmath.exp(4j * math.pi / 5)]
    return make_modular_data(("1", "tau"), S, T, (0, 1))


def _ising_data() -> ModularData:
    r = math.sqrt(2)
    S = np.array([[1, r, 1], [r, 0, -r], [1, -r, 1]], dtype=complex) / 2
    T = [1, cmath.exp(1j * math.pi / 8), -1]
    return make_modular_data(("1", "sigma", "psi"), S, T, (0, 1, 2))


def builtin_modular_data(name: str) -> ModularData:
    """One of the embedded (S, T) tables in :data:`BUILTIN_NAMES`,
    relation-checked at load.  Pointed data comes from
    :func:`gvblocks.torus.st_matrices`."""
    from .torus import check_relations

    name = name.lower()
    if name not in BUILTIN_NAMES:
        raise ValidationError("blocks.bad_builtin", f"unknown modular data {name!r}")
    md = _fibonacci_data() if name == "fibonacci" else _ising_data()
    report = check_relations(md, tol=1e-9)
    if not report.passed:
        raise InternalError(
            "blocks.builtin_relations", f"embedded table {name} fails relations: {report}"
        )
    return md
