"""Projective SL(2,Z) data from modular pointed categories.

For h0 = 0 and non-degenerate double braiding the torus representation is
T_xx = exp(2 pi i q(x)) and S_xy = |G|^(-1/2) exp(-2 pi i b(x, y)).  All
relation checks are projective: residuals are measured against the fitted
unit scalar, mirroring the central extensions through which mapping class
groups act.  Nothing is produced for h0 != 0 (dimension-only regime).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    MATRIX_CAP,
    ModularData,
    _asymmetry,
    _character_table,
    _chunks,
    _root_table,
    _sq_norm,
    make_modular_data,
)
from .errors import CapacityError, DegenerateDataError, InternalError, UnsupportedError
from .forms import gauss_sum
from .pointed import PointedGVCategory


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
    """The (S, T) pair of a modular pointed category.

    Labels are the group elements in sorted order (unit first); the
    conjugation permutation realizes x -> -x.  S is built a row block at a
    time from the numerators of b(x, e_j); T is the diagonal vector.
    """
    st_preflight(C)
    group = C.group
    n = group.order
    bden, qden = C.bform.int_form[0], C.qform.int_form[0]
    roots = np.exp(-2j * math.pi * np.arange(bden) / bden) / math.sqrt(n)
    S = np.empty((n, n), dtype=complex)
    for rows, powers in _root_table(bden, C.bform.against_generators(), group):
        np.take(roots, powers, out=S[rows])
    S.flags.writeable = False  # fresh: make_modular_data keeps it uncopied
    T = np.exp(2j * math.pi * C.qform.values / qden)
    labels = tuple(",".join(str(c) for c in x) for x in group.sorted_elements)
    return make_modular_data(labels, S, T, tuple(group.neg_index.tolist()), group=group)


#: Largest Frobenius distance between S and its character table at which
#: the relation products run through the group Fourier transform.
FOURIER_DEFECT = 1e-12


@dataclass(frozen=True)
class RelationReport:
    """Residuals (Frobenius norms) of the projective SL(2,Z) relations.

    ``path`` is ``"fourier"`` when S was verified to be an exactly symmetric
    character table of the group with conjugation x -> -x: then (ST)^3 ran
    as one group Fourier transform per block of columns, and ``residual_s2``
    and ``residual_unitary`` both equal the table defect ||S - K||.  It is
    ``"dense"`` otherwise.
    """

    lam: complex
    residual_st3: float  # ||(ST)^3 - lam * S^2||
    residual_s2: float  # ||S^2 - P|| for the conjugation permutation P
    residual_unitary: float  # ||S S*^T - 1||
    tol: float
    path: str

    @property
    def max_residual(self) -> float:
        return max(self.residual_st3, self.residual_s2, self.residual_unitary)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def check_relations(md: ModularData, tol: float = 1e-9) -> RelationReport:
    """Fit the projective scalar and measure the relation residuals.

    Products are formed a block of columns at a time, T acting as a
    diagonal scaling.  The dense path forms (ST)^3 as S·(T·S·(T·(S·T))),
    S² and S·S̄ᵀ by matmuls.  The Fourier path is taken for group-backed
    data whose S is exactly symmetric, whose conjugation is x -> -x, and
    whose distance D = ||S - K||_F to its character table K is at most
    :data:`FOURIER_DEFECT`; the table stored by :func:`make_modular_data`
    is used when present.  There every product with S is one with K, a
    DFT of G plus a row gather, and three facts reduce the work:

    1. K is symmetric.  Its entries are N-th roots of unity over sqrt(n),
       with n = |G| and N the exponent of G, so two unequal entries differ
       by at least 2 sin(pi/N)/sqrt(n) >= 4 n^(-3/2), 1.5e-5 at the cap
       n = 4096 and above 2e-12 for every n below 10^8.  As S = Sᵀ,
       ||K - Kᵀ||_F <= ||K - S||_F + ||Sᵀ - Kᵀ||_F = 2D <= 2e-12, so no
       entry of K differs from its transpose.
    2. K² = P, the conjugation.  K_xy = e(-k(x)·y)/sqrt(n), where the
       pairing k(x)·y = sum_j k_j(x) y_j / n_j mod 1 is additive in y and,
       by symmetry, k(x)·y = k(y)·x is additive in x too; so
       k(x + x')·y = (k(x) + k(x'))·y for every y, and the pairing being
       non-degenerate, k is a homomorphism.  It is a bijection (the table
       requires it), and (K·K)_xz = (K·Kᵀ)_xz = (1/n) sum_y
       e(-(k(x) + k(z))·y) is 1 exactly when k(z) = -k(x), i.e. z = -x.
    3. K is exactly unitary, a row permutation of the unitary DFT, and
       symmetric, so K⁻¹ = K̄ and multiplying by K keeps Frobenius norms.
       The path's S² is K·S and its S·S̄ᵀ is K·S̄ (S̄ᵀ = S̄), each within
       ||(S - K)·S||_F <= D ||S||_2 of the dense product, and
       ||K·S - P|| = ||K·S - K·K|| = D, ||K·S̄ - 1|| = ||K·S̄ - K·K̄|| = D,
       ||K·T·K·T·S·T - lam K·S|| = ||T·K·(T·S·T) - lam S||.

    So both ``residual_s2`` and ``residual_unitary`` are D, and each column
    block costs one transform and one gather, of T·S·T.  Row 0 of K is
    1/sqrt(n) (k(0) = 0), so lam = (K·T·K·T·S·T)_00 / (K·S)_00 is
    sum_y (T·K·T·S·T)_y0 / sum_y S_y0; the denominator is
    sqrt(n)·(1 + (K·(S - K))_00), never 0 for D <= 1e-12.  Residuals are
    Frobenius norms, never below the 2-norm.
    """
    S, t = md.S, md.T
    tc = t[:, None]
    table = md._table
    if table is None and md.group is not None:
        table = _character_table(S, md.group, _asymmetry(S) == 0)
    lam = None
    sq_st3 = 0.0
    if (
        table is not None
        and table.symmetric
        and table.defect <= FOURIER_DEFECT
        and np.array_equal(md.conjugation, md.group.neg_index)
    ):
        for cols in _chunks(md.rank):
            block = S[cols].T  # S[:, cols], read as rows: S is symmetric
            u = tc * table.apply(tc * (block * t[cols]))
            if lam is None:
                lam = complex(u[:, 0].sum() / S[0].sum())
            sq_st3 += _sq_norm(u - lam * block)
        residual_s2 = residual_unitary = table.defect
        path = "fourier"
    else:
        rows_of_p = np.argsort(md.conjugation)  # P[i, conjugation[i]] = 1
        sq_s2 = sq_unitary = 0.0
        for cols in _chunks(md.rank):
            diag = np.arange(cols.stop - cols.start)
            st3 = S @ (tc * (S @ (tc * (S[:, cols] * t[cols]))))
            s2 = S @ S[:, cols]
            if lam is None:
                if abs(s2[0, 0]) < 1e-12:
                    raise DegenerateDataError("torus.degenerate", "S^2 has vanishing vacuum entry")
                lam = complex(st3[0, 0] / s2[0, 0])
            sq_st3 += _sq_norm(st3 - lam * s2)
            s2[rows_of_p[cols], diag] -= 1
            sq_s2 += _sq_norm(s2)
            unitary = S @ S[cols].conj().T
            unitary[diag + cols.start, diag] -= 1
            sq_unitary += _sq_norm(unitary)
        residual_s2, residual_unitary = math.sqrt(sq_s2), math.sqrt(sq_unitary)
        path = "dense"
    return RelationReport(
        lam=lam,
        residual_st3=math.sqrt(sq_st3),
        residual_s2=residual_s2,
        residual_unitary=residual_unitary,
        tol=tol,
        path=path,
    )


@dataclass(frozen=True)
class AnomalyReport:
    """Gauss-sum phase; ``central_charge_mod8`` is (8/2pi) arg(gamma) mod 8."""

    gamma: complex
    central_charge_mod8: float


def anomaly(C: PointedGVCategory) -> AnomalyReport:
    """The framing-anomaly phase gamma(q) of a modular pointed category."""
    if C.h0 != C.group.zero:
        raise UnsupportedError(
            "torus.unsupported", "h0 != 0: anomaly phase is not defined here"
        )
    if not C.radical.is_trivial:
        raise DegenerateDataError("torus.degenerate", "degenerate double braiding")
    gamma = gauss_sum(C.qform)
    if abs(abs(gamma) - 1) > 1e-9:
        raise DegenerateDataError(
            "torus.degenerate", f"|gauss sum| = {abs(gamma)} is not 1"
        )
    c = (4 / math.pi) * cmath.phase(gamma) % 8
    return AnomalyReport(gamma, c)


@dataclass(frozen=True)
class FusionReport:
    """Fusion multiplicities recovered from S, with the rounding residual."""

    tensor: np.ndarray  # integer N[x, y, z]
    residual: float


def fusion_from_s(md: ModularData) -> FusionReport:
    """N_xy^z = sum_w S_xw S_yw conj(S_zw) / S_0w, rounded to integers.

    The dense tensor has rank^3 entries, so ranks above 256 (2^24 entries)
    are refused before anything is allocated.  For pointed data the result
    must be the group-law delta; a mismatch is an internal inconsistency
    and raises.
    """
    if md.rank**3 > 2**24:
        raise CapacityError(
            "torus.capacity", f"rank {md.rank} exceeds the fusion cap 256 (rank^3 entries)"
        )
    s0 = md.S[0]
    if np.abs(s0).min() < 1e-12:
        raise DegenerateDataError("torus.degenerate", "a vacuum S-matrix entry vanishes")
    n = md.rank
    raw = ((md.S[:, None] * md.S).reshape(n * n, n) @ (md.S.conj() / s0).T).reshape(n, n, n)
    tensor = np.round(raw.real).astype(np.int64)
    residual = float(np.abs(raw - tensor).max())
    if md.group is not None:
        add = md.group.add_index()
        bad = np.argwhere((tensor != (add[:, :, None] == np.arange(md.rank))).any(axis=2))
        if bad.size:
            x, y = (md.elements[i] for i in bad[0])
            raise InternalError(
                "torus.group_law", f"fusion from S disagrees with the group law at ({x}, {y})"
            )
    return FusionReport(tensor, residual)
