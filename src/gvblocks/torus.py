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

from .blocks import ModularData, make_modular_data
from .errors import CapacityError, DegenerateDataError, UnsupportedError
from .forms import _element_array, gauss_sum
from .pointed import PointedGVCategory, verdicts


def st_matrices(C: PointedGVCategory) -> ModularData:
    """The (S, T) pair of a modular pointed category.

    Labels are the group elements in sorted order (unit first); the
    conjugation permutation realizes x -> -x.
    """
    group = C.group
    if C.h0 != group.zero:
        raise UnsupportedError(
            "torus.unsupported",
            "h0 != 0: only block dimensions are defined in this regime, not (S, T)",
        )
    if group.order > 4096:
        raise CapacityError(
            "torus.capacity", f"group order {group.order} exceeds the matrix cap 4096"
        )
    if not C.radical.is_trivial:
        raise DegenerateDataError(
            "torus.degenerate", "double braiding is degenerate; no torus representation"
        )
    elements = group.sorted_elements
    m = len(elements)
    k = group.rank
    X = _element_array(group)
    bden, bint = C.bform.int_form
    qden, qint = C.qform.int_form
    bvals = (X @ np.array(bint, dtype=np.int64).reshape(k, k) @ X.T) % bden
    S = np.exp(-2j * math.pi * bvals / bden) / math.sqrt(m)
    qvals = np.einsum("ij,jk,ik->i", X, np.array(qint, dtype=np.int64).reshape(k, k), X) % qden
    T = np.diag(np.exp(2j * math.pi * qvals / qden))
    index_of = {x: i for i, x in enumerate(elements)}
    conj = tuple(index_of[group.neg(x)] for x in elements)
    labels = tuple(",".join(str(c) for c in x) for x in elements)
    return make_modular_data(labels, S, T, conj, elements=elements)


def _opnorm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class RelationReport:
    """Residuals of the projective SL(2,Z) relations."""

    lam: complex
    residual_st3: float  # ||(ST)^3 - lam * S^2||
    residual_s2: float  # ||S^2 - P|| for the conjugation permutation P
    residual_unitary: float  # ||S S*^T - 1||
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_st3, self.residual_s2, self.residual_unitary)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def check_relations(md: ModularData, tol: float = 1e-9) -> RelationReport:
    """Fit the projective scalar and measure the relation residuals."""
    S, T = md.S, md.T
    st3 = np.linalg.matrix_power(S @ T, 3)
    s2 = S @ S
    if abs(s2[0, 0]) < 1e-12:
        raise DegenerateDataError("torus.degenerate", "S^2 has vanishing vacuum entry")
    lam = complex(st3[0, 0] / s2[0, 0])
    n = md.rank
    P = np.zeros((n, n))
    P[np.arange(n), np.array(md.conjugation)] = 1.0
    return RelationReport(
        lam=lam,
        residual_st3=_opnorm(st3 - lam * s2),
        residual_s2=_opnorm(s2 - P),
        residual_unitary=_opnorm(S @ S.conj().T - np.eye(n)),
        tol=tol,
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


def fusion_from_s(md: ModularData, tol: float = 1e-9) -> FusionReport:
    """N_xy^z = sum_w S_xw S_yw conj(S_zw) / S_0w, rounded to integers.

    For pointed data the result must be the group-law delta; a mismatch is
    an internal inconsistency and raises.
    """
    s0 = md.S[0]
    if np.abs(s0).min() < 1e-12:
        raise DegenerateDataError("torus.degenerate", "a vacuum S-matrix entry vanishes")
    raw = np.einsum("xw,yw,zw->xyz", md.S, md.S, md.S.conj() / s0)
    tensor = np.round(raw.real).astype(np.int64)
    residual = float(np.abs(raw - tensor).max())
    if md.elements is not None:
        # the group of pointed data is recoverable from its element list
        factors = tuple(max(x[i] for x in md.elements) + 1 for i in range(len(md.elements[0])))
        index_of = {x: i for i, x in enumerate(md.elements)}
        for i, x in enumerate(md.elements):
            for j, y in enumerate(md.elements):
                s = tuple((a + b) % nmod for a, b, nmod in zip(x, y, factors))
                expected = np.zeros(md.rank, dtype=np.int64)
                expected[index_of[s]] = 1
                if not np.array_equal(tensor[i, j], expected):
                    raise RuntimeError(
                        f"fusion from S disagrees with the group law at ({x}, {y})"
                    )
    return FusionReport(tensor, residual)


@dataclass(frozen=True)
class ConnectednessVerdict:
    connected: bool | None  # None = undetermined
    justification: str


def connectedness_verdict(C: PointedGVCategory) -> ConnectednessVerdict:
    """Sufficient-condition verdict: cofactorizability settles connectedness.

    When the double braiding is degenerate the genus-one comparison of
    handlebody module maps is not computable in this artifact, so the
    verdict stays undetermined.
    """
    v = verdicts(C)
    if v.cofactorizable:
        return ConnectednessVerdict(True, "cofactorizable (non-degenerate b)")
    return ConnectednessVerdict(
        None,
        "undetermined: braiding is degenerate and the genus-one module-map "
        "comparison is out of computational reach",
    )
