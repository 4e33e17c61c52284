"""Modular data (S, T), its validation and embedded tables, and the
projective SL(2,Z) data of modular pointed categories.  Every producer and
check of the (S, T) format lives here; this module never imports blocks.

For h0 = 0 and non-degenerate double braiding the torus representation is
T_xx = exp(2 pi i q(x)) and S_xy = |G|^(-1/2) exp(-2 pi i b(x, y)).  All
relation checks are projective: residuals are measured against the fitted
unit scalar, mirroring the central extensions through which mapping class
groups act.  Nothing is produced for h0 != 0 (dimension-only regime).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateDataError,
    InternalError,
    UnsupportedError,
    ValidationError,
)
from .forms import Element, FinAbGroup, _as_items, _chunks, as_int, gauss_sum
from .pointed import PointedGVCategory


@dataclass(frozen=True)
class ModularData:
    """Labels with distinguished unit 0, S-matrix, and the diagonal of the
    T-matrix as a vector of length rank.

    ``conjugation`` is the charge-conjugation permutation as an index tuple;
    for pointed data it realizes x -> -x.  ``group`` is set when the data
    comes from a pointed category, whose labels are then its elements in
    sorted order.  :func:`make_modular_data` returns ``S`` and ``T``
    read-only.  ``_table``, the sorted-order index of k(x) for the character
    table K_xy = |G|^(-1/2) e(-k(x)·y) that S is, comes from
    :func:`st_matrices`; data built any other way, ``dataclasses.replace``
    included, carries none.  ``residual_s2`` and ``residual_unitary`` are
    measured once per data set (:func:`_scan`; 0.0 from :func:`st_matrices`).
    """

    labels: tuple[str, ...]
    S: np.ndarray
    T: np.ndarray
    conjugation: tuple[int, ...]
    group: FinAbGroup | None = None
    _table: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def elements(self) -> tuple[Element, ...] | None:
        """The group elements behind the labels, for pointed data."""
        return None if self.group is None else self.group.elements

    @functools.cached_property
    def _norms(self) -> tuple[float, float]:
        return _scan(self.S, self.conjugation)[2:]

    @property
    def residual_s2(self) -> float:
        """||S - C·S̄||, C the conjugation: ||S² - C|| for unitary S."""
        return self._norms[0]

    @property
    def residual_unitary(self) -> float:
        """||S·S̄ᵀ - 1||."""
        return self._norms[1]


#: Largest rank of modular data, and group order of pointed (S, T): an S of
#: 4096 labels holds 256 MB.
MATRIX_CAP = 4096

#: Tolerance of the float checks of modular data: validation, the SL(2,Z)
#: relations and the vacuum entries divided by.
TOL = 1e-9


def _vacuum(entries: np.ndarray) -> np.ndarray:
    """``entries`` of the vacuum row of S, which lam, the fusion rules and
    the Verlinde sum divide by; one below :data:`TOL` is refused."""
    if np.abs(entries).min() < TOL:
        raise DegenerateDataError("torus.degenerate", "S has a vanishing vacuum entry")
    return entries


def _sq_norm(M: np.ndarray) -> float:
    """Squared Frobenius norm; square roots of sums of these are the one
    matrix norm used for residuals."""
    return float(np.vdot(M, M).real)


def _scan(S: np.ndarray, conjugation: Sequence[int]) -> tuple[float, float, float, float]:
    """The largest entries of |S - Sᵀ| and |S·S̄ᵀ - 1|, then ||S - C·S̄||
    (C·S̄ the row gather ``conjugation`` of S̄) and ||S·S̄ᵀ - 1||, in one pass
    over the row blocks r of S, each read from column r.start on; no
    temporary exceeds a block.  S[r, r.start:] - S[r.start:, r]ᵀ is NaN or
    inf exactly when S holds a non-finite entry.  S̄[r]·S[r.start:]ᵀ is the
    conjugate of that part of the Hermitian S·S̄ᵀ, whose mirror image right
    of the diagonal block counts twice in the norm."""
    gather = np.asarray(conjugation)
    asymmetry = defect = sq_s2 = sq_unitary = 0.0  # np.maximum keeps a NaN
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0
        for r in _chunks(len(S)):
            w = r.stop - r.start
            asymmetry = np.maximum(asymmetry, np.abs(S[r, r.start :] - S[r.start :, r].T).max())
            unitary = S[r].conj() @ S[r.start :].T
            unitary[:, :w] -= np.eye(w)
            defect = np.maximum(defect, np.abs(unitary).max())
            sq_unitary += _sq_norm(unitary[:, :w]) + 2 * _sq_norm(unitary[:, w:])
            sq_s2 += _sq_norm(S[r] - S[gather[r]].conj())
    return asymmetry, defect, math.sqrt(sq_s2), math.sqrt(sq_unitary)


def make_modular_data(
    labels: Sequence[str], S, T, conjugation: Sequence[int]
) -> ModularData:
    """Validate shape, a conjugation permutation, finite entries, symmetry
    of S, unitary T, and S·S̄ᵀ = 1 to within 1e-9, S in one :func:`_scan`.
    ``T`` is the diagonal of the T-matrix.  Over :data:`MATRIX_CAP` labels
    are refused before S is read; S and T are kept as read-only copies."""
    labels = _as_items(labels, "blocks.bad_modular_data", "labels")
    n = len(labels)
    if n == 0:
        raise ValidationError("blocks.bad_modular_data", "there must be at least the unit label")
    if n > MATRIX_CAP:
        raise CapacityError("blocks.capacity", f"{n} labels exceed the matrix cap {MATRIX_CAP}")
    try:
        S, T = np.array(S, dtype=complex), np.array(T, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError("blocks.bad_modular_data", "S and T must hold numbers") from None
    S.flags.writeable = T.flags.writeable = False
    if S.shape != (n, n):
        raise ValidationError("blocks.bad_modular_data", "S must be square of label size")
    if T.shape != (n,):
        raise ValidationError("blocks.bad_modular_data", "T must be a vector of label size")
    conjugation = tuple(
        as_int(i, "blocks.bad_modular_data", "conjugation entry")
        for i in _as_items(conjugation, "blocks.bad_modular_data", "conjugation")
    )
    if sorted(conjugation) != list(range(n)):
        raise ValidationError("blocks.bad_modular_data", "conjugation is not a permutation")
    asymmetry, defect, *norms = _scan(S, conjugation)
    if not math.isfinite(asymmetry):
        raise ValidationError("blocks.bad_modular_data", "S has a non-finite entry")
    if asymmetry > TOL:
        raise ValidationError("blocks.bad_modular_data", "S is not symmetric")
    if not np.isfinite(T).all():
        raise ValidationError("blocks.bad_modular_data", "T has a non-finite entry")
    if np.abs(np.abs(T) - 1).max() > TOL:
        raise ValidationError("blocks.bad_modular_data", "T diagonal is not unitary")
    if defect > TOL:
        raise ValidationError("blocks.bad_modular_data", "S is not unitary")
    md = ModularData(tuple(str(lab) for lab in labels), S, T, conjugation)
    object.__setattr__(md, "_norms", tuple(norms))
    return md


def st_preflight(C: PointedGVCategory) -> None:
    """Raise the coded error :func:`st_matrices` gives for ``C``, if any,
    without building anything."""
    group = C.group
    if C.h0 != group.zero:
        raise UnsupportedError(
            "torus.unsupported",
            "h0 != 0: only block dimensions are defined in this regime, not (S, T)",
        )
    if group.order > MATRIX_CAP:
        raise CapacityError(
            "torus.capacity", f"group order {group.order} exceeds the matrix cap {MATRIX_CAP}"
        )
    if not C.radical.is_trivial:
        raise DegenerateDataError(
            "torus.degenerate", "double braiding is degenerate; no torus representation"
        )


def st_matrices(C: PointedGVCategory) -> ModularData:
    """The (S, T) pair of a modular pointed category, with the character
    table that S is.

    Labels are the group elements in sorted order (unit first), joined
    from per-factor digit strings; the conjugation permutation realizes
    x -> -x.  S is filled one row block of :func:`~gvblocks.forms._chunks`
    at a time by polarization, b(x, y) = q(x + y) - q(x) - q(y): with Q the
    numerators of q over its denominator M, Q[x + y] - Q[x] - Q[y] + 2M lies
    in [2, 3M) and indexes the roots of unity over M tiled three times, so
    no reduction mod M is needed; Q[x + y] comes from
    :meth:`~gvblocks.forms.FinAbGroup.translates`.  A numerator j over b's
    denominator M' (which divides M) reads the root at j·(M/M')/M, the same
    correctly rounded float as j/M', so S is bit for bit the table of
    e(-b(x, y))/sqrt(|G|) over M'.  T is the diagonal vector.  As
    b(x, y) = sum_j y_j b(x, e_j) and n_j e_j = 0, S is the character table
    with k_j(x) = n_j b(x, e_j), an integer read exactly off the form's
    generator weights; k is a bijection because b is non-degenerate.  S and
    T are read-only.  ``residual_unitary`` and ``residual_s2`` are recorded
    as 0: (K·K̄ᵀ)_xz = (1/|G|) sum_y e(-b(x - z, y)) is 1 if b(x - z, ·) is
    the trivial character, that is if x = z as b is non-degenerate, and
    else 0, as a non-trivial character sums to 0; K is symmetric, as b is,
    and likewise K² = P, the conjugation x -> -x, so K = P·K̄.
    """
    st_preflight(C)
    group = C.group
    n = group.order
    Q, qden = C.qform.values, C.qform.int_form[0]
    roots = np.exp(-2j * math.pi * np.arange(qden) / qden) / math.sqrt(n)
    roots = np.concatenate((roots, roots, roots))
    wrapped = Q[group.wrap_index]
    S = np.empty((n, n), dtype=complex)
    for rows in _chunks(n):
        m = group.translates(wrapped, rows)  # Q[x + y]
        m -= Q
        m += 2 * qden - Q[rows, None]  # in [2, 3·qden)
        # every index is in range, and mode "raise" would copy out through a buffer
        np.take(roots, m, out=S[rows], mode="clip")
    S.flags.writeable = False
    T = np.exp(2j * math.pi * Q / qden)
    T.flags.writeable = False
    k = C.bform.weights * np.array(group.invariant_factors, dtype=np.int64) // C.bform.int_form[0]
    digits = [[str(a) for a in range(f)] for f in group.invariant_factors]
    labels = tuple(map(",".join, itertools.product(*digits)))
    md = ModularData(labels, S, T, tuple(group.neg_index.tolist()), group=group)
    object.__setattr__(md, "_table", group.index_of(k))
    object.__setattr__(md, "_norms", (0.0, 0.0))
    return md


@dataclass(frozen=True)
class RelationReport:
    """Residuals (Frobenius norms) of the projective SL(2,Z) relations;
    ``residual_s2`` and ``residual_unitary`` are those of the data.
    ``path`` says how Cᵀ·S·T·S was formed: ``"fourier"`` from the character
    table, ``"dense"`` by matrix products.
    """

    lam: complex
    residual_st3: float  # ||S T S - lam C T* S* T*|| for the conjugation C
    residual_s2: float  # ||S - C S*||
    residual_unitary: float  # ||S S*^T - 1||
    path: str

    @property
    def max_residual(self) -> float:
        return max(self.residual_st3, self.residual_s2, self.residual_unitary)

    @property
    def passed(self) -> bool:
        return self.max_residual < TOL


def check_relations(md: ModularData) -> RelationReport:
    """Fit the projective scalar lam and measure (ST)³ = lam·C, C the
    conjugation permutation; the relations pass below :data:`TOL`.

    For symmetric unitary S (S⁻¹ = S̄), (ST)³ - lam·C =
    (S·T·S - lam·C·T̄·S̄·T̄)·T·S·T with T·S·T unitary, so ``residual_st3``
    = ||Cᵀ·S·T·S - lam·T̄·S̄·T̄|| is ||(ST)³ - lam·C||, as S - C·S̄ =
    (S² - C)·S̄ makes ``residual_s2`` ||S² - C||.  If u = ||S·S̄ᵀ - 1|| <= 1/2
    (validation allows entries of 1e-9), ||S||₂ and ||S⁻¹||₂ are <= 1 + u
    and the identities gain terms of norm |lam|·u and (1 + u)·u, so
    R = ||(ST)³ - lam·C|| <= (1 + u)·r + |lam|·u and
    r <= (1 + u)·(R + |lam|·u) for r = ``residual_st3``; the S² residuals
    differ alike.  T is taken exactly unitary; its 1e-9 slack adds terms of
    that order.

    The two paths differ only in how they form Cᵀ·S·T·S, a block at a
    time; each compares it with lam·T̄·S̄·T̄, read off every entry of the
    data's S and T, in one sum.  lam is (Cᵀ·S·T·S)_00 over
    conj(t_0·S_00·t_0).

    Data that carries the character table its S is built from (only
    :func:`st_matrices` attaches one) takes one transform.  S is then
    K_xy = |G|^(-1/2) e(-k(x)·y), k(x)·y = sum_j k_j(x) y_j / n_j, with k a
    bijective homomorphism and K symmetric.  K is thus a row permutation of
    the unitary DFT of G: K·v is the DFT of v gathered at ``_table``.  For
    any diagonal T

        (K·T·K)_xz = sum_y K_xy t_y K_zy = |G|^(-1) sum_y t_y e(-k(x + z)·y)
                   = |G|^(-1/2) h[x + z],  h = K·t,

    and (Cᵀ·S·T·S)[x, z] = |G|^(-1/2) h[back[x] + z].  This is the exact
    product, not a use of the relation it checks: it holds whatever T is.
    Row block r is h at back[r] + z, read by
    :meth:`~gvblocks.forms.FinAbGroup.translates` as strided windows of h,
    so the check is one O(|G| log |G|) transform of t and O(|G|²) streaming
    with no index table and no temporary above a block; the blocks are
    compared as conjugates, ||X - Ȳ|| = ||X̄ - Y||.  Data without a table
    multiplies T·S[:, cols] by S as a matmul once per column block.
    """
    S, t = md.S, md.T
    back = np.argsort(md.conjugation)  # (Cᵀ·M)[i] = M[back[i]]
    _vacuum(S[0, :1])
    lam = complex((S[back[0]] * t * S[:, 0]).sum() / np.conj(t[0] * S[0, 0] * t[0]))
    sq_st3 = 0.0
    if md._table is None:
        path = "dense"
        for cols in _chunks(md.rank):
            block = t[:, None] * S[:, cols]  # T·S[:, cols]
            X = (S @ block)[back]  # Cᵀ·S·T·S[:, cols]
            block *= lam.conjugate() * t[cols]
            X -= np.conjugate(block, out=block)  # lam·T̄·S̄·T̄[:, cols]
            sq_st3 += _sq_norm(X)
    else:
        path, group = "fourier", md.group
        factors = group.invariant_factors
        F = np.fft.fftn(t.reshape(factors), axes=range(len(factors)), norm="ortho")
        h = np.conjugate(F.reshape(-1)[md._table]) / math.sqrt(md.rank)  # K·t, conjugated
        wrapped = h[group.wrap_index]
        for rows in _chunks(md.rank):
            X = group.translates(wrapped, back[rows])  # conj of (Cᵀ·S·T·S)[rows]
            block = S[rows] * t
            block *= lam.conjugate() * t[rows, None]  # conj of (lam·T̄·S̄·T̄)[rows]
            X -= block
            sq_st3 += _sq_norm(X)
    return RelationReport(lam, math.sqrt(sq_st3), md.residual_s2, md.residual_unitary, path)


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
    """One of the embedded (S, T) tables in :data:`BUILTIN_NAMES`, named in
    any case and relation-checked at load; any other ``name``, a non-string
    included, raises ``ValidationError("blocks.bad_builtin")``.  Pointed
    data comes from :func:`st_matrices`."""
    if not isinstance(name, str) or name.lower() not in BUILTIN_NAMES:
        raise ValidationError(
            "blocks.bad_builtin", f"unknown modular data {name!r}; choose from {list(BUILTIN_NAMES)}"
        )
    name = name.lower()
    md = _fibonacci_data() if name == "fibonacci" else _ising_data()
    report = check_relations(md)
    if not report.passed:
        raise InternalError(
            "blocks.builtin_relations", f"embedded table {name} fails relations: {report}"
        )
    return md


def central_charge_mod8(z: complex) -> float:
    """(4/pi)·arg(z) mod 8, rounded to 12 digits before the mod, so that a
    phase of rounding noise just below 0 reads 0.0, not 8.0."""
    return round((4 / math.pi) * cmath.phase(z), 12) % 8


@dataclass(frozen=True)
class AnomalyReport:
    """Gauss-sum phase; ``central_charge_mod8`` is (8/2pi) arg(gamma) mod 8."""

    gamma: complex
    central_charge_mod8: float


def anomaly(C: PointedGVCategory) -> AnomalyReport:
    """The framing-anomaly phase gamma(q) of a modular pointed category.

    |gamma| = 1 needs no check: q(y + z) - q(y) = q(z) + b(y, z) gives
    |gamma|² = (1/|G|)·sum_z e(q(z))·sum_y e(b(y, z)), and for trivial
    radical the inner sum is |G| at z = 0 and 0 otherwise.  A float sum of
    at most 2^16 unit terms stays far inside 1e-9 of that.
    """
    if C.h0 != C.group.zero:
        raise UnsupportedError("torus.unsupported", "h0 != 0: anomaly phase is not defined here")
    if not C.radical.is_trivial:
        raise DegenerateDataError("torus.degenerate", "degenerate double braiding")
    gamma = gauss_sum(C.qform)
    return AnomalyReport(gamma, central_charge_mod8(gamma))


@dataclass(frozen=True)
class FusionReport:
    """Fusion multiplicities recovered from S, with the rounding residual."""

    tensor: np.ndarray  # integer N[x, y, z]
    residual: float


#: Entries, pairs (x, y) times labels z, of one :func:`fusion_from_s` block.
#: The block holds five temporaries of that size, so it is a quarter of the
#: 2^16 entries of :func:`~gvblocks.forms._chunks`.  On a 2-vCPU Xeon with
#: one BLAS thread it was within 3% of the fastest of 2^12 to 2^16 at ranks
#: 36, 54, 64, 128 and 256; at rank 64, 2^16 took 5.9 ms against its 3.1 ms.
_FUSION_BLOCK = 2**14


def fusion_from_s(md: ModularData) -> FusionReport:
    """N_xy^z = sum_w S_xw S_yw conj(S_zw) / S_0w, rounded to integers.

    The dense tensor has rank^3 entries, so ranks above 256 (2^24 entries)
    are refused before anything is allocated.  The sum is symmetric in x
    and y, so each unordered pair {x, y} is formed once; in floats
    S_xw·S_yw and S_yw·S_xw have the same real part and imaginary parts at
    most an ulp apart (numpy may fuse a multiply-add), far inside the
    rounding to integers.  A block takes the rows x in [start, stop)
    against every y in [start, rank), at most :data:`_FUSION_BLOCK`
    entries but one row x at least, and is written to N[x, y] and, for y
    at or past stop, to N[y, x].  A rank whose tensor fits one block (up
    to 25) is one product, as when every pair was formed.  No temporary
    besides the int64 result exceeds a block.  k = rint(Re raw) is
    subtracted from raw in place, so ``residual``, the largest |raw - N|,
    comes from the rounding pass.

    For pointed data each row (x, y) must be the group-law delta at x + y,
    read through :meth:`~gvblocks.forms.FinAbGroup.translates`: its entry
    there is 1 and its sum of |N| is 1.  With |S_0w| >= :data:`TOL` and
    unit rows of S, |N| is about 1/TOL at most, below 2^30, so a row of at
    most 256 entries sums below 2^38 and the int64 sums are exact.  A
    mismatch is an internal inconsistency and raises at the first bad pair
    in row-major order, as a scan of whole rows would.  A block scans its
    pairs (x, y), y >= start, in row-major order.  The entries of row x
    left of start were written by earlier blocks as their pairs (y, x),
    which passed, and x + y = y + x, so they pass too: the first bad pair
    the scan meets is the first of the whole tensor.  Outside the blocks'
    diagonal squares N[x, y] = N[y, x] by construction, so there that pair
    has x <= y.
    """
    n = md.rank
    if n**3 > 2**24:
        raise CapacityError(
            "torus.capacity", f"rank {n} exceeds the fusion cap 256 (rank^3 entries)"
        )
    right = (md.S.conj() / _vacuum(md.S[0])).T
    tensor = np.empty((n, n, n), dtype=np.int64)
    residual = 0.0
    start = 0
    while start < n:
        stop = min(n, start + max(1, _FUSION_BLOCK // ((n - start) * n)))
        rows = slice(start, stop)
        raw = (md.S[rows, None] * md.S[start:]).reshape(-1, n) @ right
        k = np.rint(raw.real)
        raw.real -= k
        residual = max(residual, float(np.abs(raw).max()))
        N = k.astype(np.int64)
        block = N.reshape(stop - start, n - start, n)
        tensor[rows, start:] = block
        tensor[stop:, rows] = block[:, stop - start :].transpose(1, 0, 2)
        if md.group is not None:
            at = md.group.translates(md.group.wrap_index, rows)[:, start:].reshape(-1)
            good = (N[np.arange(len(at)), at] == 1) & (np.abs(N).sum(axis=1) == 1)
            if not good.all():
                i, j = divmod(int(good.argmin()), n - start)
                x, y = md.elements[start + i], md.elements[start + j]
                raise InternalError(
                    "torus.group_law", f"fusion from S disagrees with the group law at ({x}, {y})"
                )
        start = stop
    return FusionReport(tensor, residual)
