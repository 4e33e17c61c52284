"""Independent arithmetic for checking gvblocks outputs.

Nothing here imports gvblocks: forms, radicals, Gauss sums, Smith invariants
and the direct dimension formula are recomputed from the raw inputs with
plain Python integers, ``fractions.Fraction`` and numpy, so a defect in a
library layer cannot also hide in the check of that layer.

Every check returns ``None`` when it holds and a short message when it does
not.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-6


def all_elements(factors) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(n) for n in factors)))


def add(factors, x, y) -> tuple[int, ...]:
    return tuple((a + b) % n for a, b, n in zip(x, y, factors))


def q_value(A, x) -> Fraction:
    """x^T A x mod 1 for an unreduced integer vector x."""
    k = len(x)
    return sum(A[i][j] * x[i] * x[j] for i in range(k) for j in range(k)) % 1


def b_value(A, x, y) -> Fraction:
    k = len(x)
    return sum(2 * A[i][j] * x[i] * y[j] for i in range(k) for j in range(k)) % 1


def _integer_matrix(A) -> tuple[int, np.ndarray]:
    den = math.lcm(*(a.denominator for row in A for a in row)) if A else 1
    k = len(A)
    return den, np.array([[int(a * den) for a in row] for row in A], dtype=np.int64).reshape(k, k)


def _element_matrix(factors) -> np.ndarray:
    elements = all_elements(factors)
    return np.array(elements, dtype=np.int64).reshape(len(elements), len(factors))


def radical_mask(factors, A) -> np.ndarray:
    """Boolean mask over ``all_elements(factors)`` of x with b(x, -) = 0."""
    X = _element_matrix(factors)
    den, M = _integer_matrix(A)
    return ~((2 * X @ M) % den).any(axis=1)


def theta_table(factors, A, h0) -> dict[tuple[int, ...], Fraction]:
    return {x: (q_value(A, x) - b_value(A, x, h0)) % 1 for x in all_elements(factors)}


def gauss_sum(factors, A) -> complex:
    X = _element_matrix(factors)
    den, M = _integer_matrix(A)
    vals = np.einsum("ij,jk,ik->i", X, M, X) % den
    return complex(np.exp(2j * math.pi * vals / den).sum()) / math.sqrt(len(X))


def milgram_gamma(gram) -> complex:
    """exp(2 pi i sigma / 8) with sigma the signature of the Gram matrix."""
    eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
    sigma = int((eig > 0).sum() - (eig < 0).sum())
    return cmath.exp(2j * math.pi * sigma / 8)


def _det(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(n)
    )


def smith_invariants(gram) -> tuple[int, ...]:
    """Nontrivial invariant factors of Z^r / gram Z^r from determinantal divisors."""
    r = len(gram)
    divisors = [1]
    for k in range(1, r + 1):
        g = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(r), k):
                g = math.gcd(g, _det([[gram[i][j] for j in cols] for i in rows]))
        divisors.append(g)
    inv = [divisors[k] // divisors[k - 1] for k in range(1, r + 1)]
    return tuple(d for d in inv if d != 1)


def inverse(gram) -> list[list[Fraction]]:
    """Exact inverse of a small integer matrix by the adjugate."""
    r = len(gram)
    det = _det(gram)
    minor = lambda i, j: [row[:j] + row[j + 1 :] for k, row in enumerate(gram) if k != i]  # noqa: E731
    return [[Fraction((-1) ** (i + j) * _det(minor(j, i)), det) for j in range(r)] for i in range(r)]


def direct_dim(factors, h0, genus, labels) -> int:
    """|G|^g when the labels plus (g-1)*2*h0 sum to zero, else 0."""
    total = tuple(((genus - 1) * 2 * h) % n for h, n in zip(h0, factors))
    for lab in labels:
        total = add(factors, total, lab)
    return math.prod(factors) ** genus if not any(total) else 0


def close(a: complex, b: complex, what: str):
    if abs(a - b) > TOL:
        return f"{what}: {a} != {b}"
    return None


def fusion_is_group_law(tensor, elements, factors):
    """N[x, y, z] must be 1 exactly when z = x + y."""
    m = len(elements)
    if tuple(tensor.shape) != (m, m, m) or int(tensor.sum()) != m * m:
        return "fusion tensor has the wrong shape or total"
    index = {tuple(x): i for i, x in enumerate(elements)}
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if tensor[i, j, index[add(factors, x, y)]] != 1:
                return f"fusion of {x} and {y} is not their sum"
    return None


def twist_witness_holds(factors, A, h0, twist, check_name, witness):
    """True when ``witness`` really breaks the named axiom under ``twist``."""
    if check_name == "twist multiplicative":
        x, y = witness
        return twist[add(factors, x, y)] != (twist[x] + twist[y] + b_value(A, x, y)) % 1
    if check_name in ("ribbon", "pairing balance"):
        x = witness[0]
        return twist[tuple((2 * h - a) % n for a, h, n in zip(x, h0, factors))] != twist[x]
    if check_name == "twist unit":
        return twist[witness[0]] != 0
    return False
