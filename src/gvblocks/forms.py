"""Finite abelian groups and Q/Z-valued quadratic forms.

Values in Q/Z are exact ``fractions.Fraction`` objects reduced into ``[0, 1)``;
only :func:`gauss_sum` leaves exact arithmetic.  Group elements are plain
integer tuples with the i-th coordinate reduced modulo the i-th invariant
factor.  Invariant factors are kept in the shape the caller supplied (no
forced divisibility chain); only :func:`smith_normal_form` output follows the
chain.

Whole-group computations index the elements one way: position in sorted
(mixed-radix) order, through :attr:`FinAbGroup.element_array`,
:meth:`FinAbGroup.index_of` and the add/neg index tables.  A form is
evaluated on those arrays through its integer matrix M*A reduced modulo its
common denominator M; for a validated form M divides 2*lcm(n_i), so within
the group-order caps every int64 product stays below 2^62 and the tables
are exact.
"""

from __future__ import annotations

import itertools
import math
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidQForm, ValidationError

Element = tuple[int, ...]

#: Largest group order enumerated by radical / subgroup computations.
ENUMERATION_CAP = 2**16


def as_int(x, code: str, what: str) -> int:
    """``x`` as a Python int when it is a Python int (a bool is not) or a
    numpy integer; anything else raises ``ValidationError(code)`` rather
    than being truncated."""
    if type(x) is int or isinstance(x, np.integer):
        return int(x)
    raise ValidationError(code, f"{what} {x!r} is not an integer")


def as_coordinates(vec, what: str) -> tuple[int, ...]:
    """The coordinates of a group element as Python ints, each read by
    :func:`as_int`; a ``vec`` that is neither a sequence nor a 1-d numpy
    array (a scalar, a set) raises ``ValidationError("forms.bad_element")``."""
    if not isinstance(vec, abc.Sequence) and getattr(vec, "ndim", 0) != 1:
        raise ValidationError(
            "forms.bad_element", f"element {vec!r} is not a sequence of coordinates"
        )
    return tuple(as_int(c, "forms.bad_element", what) for c in vec)


def _as_items(x, code: str, what: str) -> tuple:
    """The items of a container argument as a tuple; an ``x`` that cannot
    be iterated (a scalar), or a string, which would split into its
    characters, raises ``ValidationError(code)``."""
    try:
        if isinstance(x, (str, bytes)):
            raise TypeError
        items = iter(x)
    except TypeError:
        raise ValidationError(code, f"{what} must be a sequence, got {x!r}") from None
    return tuple(items)


def _chunks(n: int) -> list[slice]:
    """Slices of ``range(n)`` whose rows of an n x n table hold about 2^16
    entries (1 MB of complex) each: the one block size of every |G|²-sized
    table, such as :meth:`FinAbGroup.add_index` and ``table_rows`` take."""
    step = max(1, 2**16 // max(n, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def as_fraction(x, code: str = "forms.bad_rational") -> Fraction:
    """``x`` as a Fraction when it is one, an int (a bool is not), a numpy
    integer or a rational string such as ``"3/8"``; anything else, floats
    included, raises ``ValidationError(code)`` rather than being read as
    its binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, np.integer)) and not isinstance(x, bool):
        try:
            return Fraction(int(x) if isinstance(x, np.integer) else x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(code, f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class FinAbGroup:
    """Product of cyclic groups Z/n_1 x ... x Z/n_k."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, vec: Sequence[int]) -> Element:
        if type(vec) is not tuple:
            vec = as_coordinates(vec, "coordinate")
        if len(vec) != self.rank:
            raise ValidationError(
                "forms.bad_element",
                f"element has {len(vec)} coordinates, group has rank {self.rank}",
            )
        return tuple(
            as_int(v, "forms.bad_element", "coordinate") % n
            for v, n in zip(vec, self.invariant_factors)
        )

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.invariant_factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % n for a, n in zip(x, self.invariant_factors))

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % n for a, n in zip(x, self.invariant_factors))

    def generator(self, i: int) -> Element:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def generators(self) -> list[Element]:
        return [self.generator(i) for i in range(self.rank)]

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(n) for n in self.invariant_factors))

    @cached_property
    def sorted_elements(self) -> tuple[Element, ...]:
        return tuple(self.elements())

    @cached_property
    def element_array(self) -> np.ndarray:
        """All elements as an (order, rank) int64 array, in sorted order."""
        grid = np.indices(self.invariant_factors, dtype=np.int64)
        return grid.reshape(self.rank, self.order).T

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        factors = np.array(self.invariant_factors, dtype=np.int64).reshape(self.rank)
        strides = np.ones(self.rank, dtype=np.int64)
        for i in range(self.rank - 2, -1, -1):
            strides[i] = strides[i + 1] * factors[i + 1]
        return factors, strides

    def index_of(self, coords: np.ndarray) -> np.ndarray:
        """Sorted-order index of each integer vector along the last axis,
        reduced into the group first."""
        factors, strides = self._radix
        return (coords % factors) @ strides

    def add_index(self, rows: slice = slice(None)) -> np.ndarray:
        """Index of x + y for x in ``element_array[rows]`` and every y."""
        X = self.element_array
        factors, strides = self._radix
        out = np.zeros((X[rows].shape[0], self.order), dtype=np.int64)
        for i in range(self.rank):
            out += (X[rows, None, i] + X[None, :, i]) % factors[i] * strides[i]
        return out

    @cached_property
    def neg_index(self) -> np.ndarray:
        """Index of -x for every x."""
        return self.index_of(-self.element_array)


def make_group(invariant_factors: Iterable[int]) -> FinAbGroup:
    """Build the group with the given cyclic factors (each n_i >= 1)."""
    factors = tuple(
        as_int(n, "forms.invalid_factor", "invariant factor")
        for n in _as_items(invariant_factors, "forms.invalid_factor", "invariant factors")
    )
    for n in factors:
        if n <= 0:
            raise ValidationError("forms.invalid_factor", f"invariant factor {n} is not >= 1")
    return FinAbGroup(factors)


def _integerize(matrix: tuple[tuple[Fraction, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Common denominator M and the integer matrix M * A reduced modulo M.

    The reduction changes x^T (M A) y only by multiples of M for integer
    x and y, so every value mod 1 is unchanged.
    """
    den = 1
    for row in matrix:
        for a in row:
            den = den * a.denominator // math.gcd(den, a.denominator)
    return den, tuple(
        tuple(a.numerator * (den // a.denominator) % den for a in row) for row in matrix
    )


@dataclass(frozen=True)
class _MatrixForm:
    group: FinAbGroup
    matrix: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def int_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _integerize(self.matrix)

    @cached_property
    def int_array(self) -> np.ndarray:
        """The reduced integer matrix of :attr:`int_form` as int64."""
        k = self.group.rank
        return np.array(self.int_form[1], dtype=np.int64).reshape(k, k)

    def _pair(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """x^T A y mod 1 on integer vectors, through the integerized matrix."""
        den, rows = self.int_form
        total = 0
        for i, row in enumerate(rows):
            if x[i]:
                total += x[i] * sum(a * yj for a, yj in zip(row, y) if a)
        return Fraction(total % den, den)


@dataclass(frozen=True)
class QForm(_MatrixForm):
    """Quadratic form q(x) = x^T A x mod 1 on a finite abelian group.

    ``matrix`` is symmetric with exact rational entries; construct through
    :func:`make_qform`, which checks well-definedness on the group.
    Evaluation goes through the integerized matrix M*A, which keeps the
    arithmetic exact and cheap.
    """

    @cached_property
    def values(self) -> np.ndarray:
        """Numerators of q over all elements in sorted order (denominator M)."""
        X = self.group.element_array
        return np.einsum("ij,jk,ik->i", X, self.int_array, X) % self.int_form[0]

    def eval_raw(self, vec: Sequence[int]) -> Fraction:
        """Evaluate on an arbitrary (unreduced) integer vector."""
        return self._pair(vec, vec)

    def __call__(self, x: Sequence[int]) -> Fraction:
        return self.eval_raw(self.group.reduce(x))


@dataclass(frozen=True)
class BilinearForm(_MatrixForm):
    """Symmetric biadditive form b(x, y) = x^T B y mod 1."""

    def against_generators(self) -> np.ndarray:
        """Numerators of b(x, e_j): one row per element in sorted order."""
        return (self.group.element_array @ self.int_array) % self.int_form[0]

    def table_rows(self, rows: slice = slice(None)) -> np.ndarray:
        """Numerators of b(x, y) for x in ``element_array[rows]`` and every y."""
        X = self.group.element_array
        return (X[rows] @ self.int_array @ X.T) % self.int_form[0]

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return self._pair(self.group.reduce(x), self.group.reduce(y))


def _check_matrix_shape(group: FinAbGroup, matrix) -> tuple[tuple[Fraction, ...], ...]:
    rows = [
        tuple(as_fraction(a) for a in _as_items(row, "forms.bad_matrix", "matrix row"))
        for row in _as_items(matrix, "forms.bad_matrix", "matrix")
    ]
    k = group.rank
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ValidationError(
            "forms.bad_matrix", f"matrix must be {k}x{k} to match the group rank"
        )
    for i in range(k):
        for j in range(k):
            if rows[i][j] != rows[j][i]:
                raise ValidationError(
                    "forms.bad_matrix", f"matrix not symmetric at ({i},{j})"
                )
    return tuple(rows)


def make_qform(group: FinAbGroup, matrix) -> QForm:
    """Validate and build a quadratic form from a symmetric rational matrix.

    Well-definedness on the group requires, for each factor n_i, that
    n_i * 2*A e_i is integral componentwise and n_i^2 * A_ii is integral.
    The rule is also sufficient: q(x + n_i e_i) - q(x) = 2 n_i (A x)_i +
    n_i^2 A_ii is then an integer for every integer vector x.
    """
    rows = _check_matrix_shape(group, matrix)
    q = QForm(group, rows)
    k = group.rank
    for i, n in enumerate(group.invariant_factors):
        ok = (n * n * rows[i][i]).denominator == 1 and all(
            (n * 2 * rows[j][i]).denominator == 1 for j in range(k)
        )
        if not ok:
            witness = _qform_witness(q, i)
            raise InvalidQForm(
                "forms.invalid_qform",
                f"q(x + {n}*e_{i}) != q(x); witness vector {witness}",
                witness=witness,
            )
    return q


def _qform_witness(q: QForm, i: int) -> tuple[int, ...]:
    # A violation of the factor-i rule shows up against x = 0 or x = e_j.
    group = q.group
    n = group.invariant_factors[i]
    shift = tuple(n if j == i else 0 for j in range(group.rank))
    if q.eval_raw(shift) != 0:
        return shift
    for j in range(group.rank):
        x = group.generator(j)
        moved = tuple(a + s for a, s in zip(x, shift))
        if q.eval_raw(moved) != q.eval_raw(x):
            return moved


def bilinear(q: QForm) -> BilinearForm:
    """Polarization b(x, y) = q(x+y) - q(x) - q(y) = 2 x^T A y mod 1."""
    return BilinearForm(
        q.group, tuple(tuple(2 * a for a in row) for row in q.matrix)
    )


def make_bilinear(group: FinAbGroup, matrix) -> BilinearForm:
    """Validate and build a symmetric bilinear form from its matrix."""
    rows = _check_matrix_shape(group, matrix)
    for i, n in enumerate(group.invariant_factors):
        for j in range(group.rank):
            if (n * rows[j][i]).denominator != 1:
                raise ValidationError(
                    "forms.bad_bilinear",
                    f"b(e_{j}, {n}*e_{i}) = {n * rows[j][i]} is not 0 mod 1",
                )
    return BilinearForm(group, rows)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its full element list plus abstract invariants."""

    ambient: FinAbGroup
    elements: tuple[Element, ...]
    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def _check_enumerable(group: FinAbGroup) -> None:
    if group.order > ENUMERATION_CAP:
        raise CapacityError(
            "forms.capacity", f"group order {group.order} exceeds {ENUMERATION_CAP}"
        )


def radical(b: BilinearForm) -> Subgroup:
    """All x with b(x, -) = 0, found by enumeration.

    Biadditivity makes it enough to test x against the generators.
    """
    group = b.group
    _check_enumerable(group)
    mask = ~b.against_generators().any(axis=1)
    elems = tuple(map(tuple, group.element_array[mask].tolist()))
    return Subgroup(group, elems, subgroup_invariants(group, elems))


def subgroup_invariants(group: FinAbGroup, elements: Sequence[Element]) -> tuple[int, ...]:
    """Invariant factors (ascending divisibility chain) of a subgroup.

    Works from the element-order statistics: for each prime p the count of
    elements killed by p^j determines the partition of the p-part.
    """
    order = len(elements)
    if order <= 1:
        return ()
    # p^j <= order, so coords * p^j stays below max(factors) * order
    dtype = np.int64 if max(group.invariant_factors) * order < 2**63 else object
    coords = np.array(elements, dtype=dtype).reshape(order, group.rank)
    factors = np.array(group.invariant_factors, dtype=dtype)
    powers_by_prime: list[list[int]] = []
    for p in _prime_factors(order):
        p_part = 1
        o = order
        while o % p == 0:
            p_part *= p
            o //= p
        # e_j = number of cyclic p-factors of order >= p^j
        exps = []
        prev = 0
        j = 1
        while True:
            killed = int(np.count_nonzero(~(coords * p**j % factors).any(axis=1)))
            cur = round(math.log(killed, p))
            exps.append(cur - prev)
            if killed == p_part:
                break
            prev = cur
            j += 1
        # conjugate partition: sizes of the cyclic factors, descending
        sizes = [sum(1 for e in exps if e >= k) for k in range(1, max(exps) + 1)]
        powers_by_prime.append(sorted((p**a for a in sizes), reverse=True))
    n_factors = max(len(ps) for ps in powers_by_prime)
    chain = []
    for i in range(n_factors):
        d = 1
        for ps in powers_by_prime:
            if i < len(ps):
                d *= ps[i]
        chain.append(d)
    return tuple(reversed(chain))


def _prime_factors(n: int) -> list[int]:
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def gauss_sum(q: QForm) -> complex:
    """gamma(q) = |G|^(-1/2) * sum over x of exp(2 pi i q(x))."""
    group = q.group
    _check_enumerable(group)
    total = complex(np.exp(2j * math.pi * q.values / q.int_form[0]).sum())
    return total / math.sqrt(group.order)


def enumerate_qforms(group: FinAbGroup) -> Iterator[QForm]:
    """All well-defined quadratic forms on the group, without repetition.

    A form is determined by q(e_i) together with the pairings b(e_i, e_j),
    and the grids below are exactly the admissible values, so the forms are
    built directly (``make_qform`` would accept every one of them).
    """
    factors = group.invariant_factors
    k = group.rank
    diag_choices = []
    for n in factors:
        # q(e_i) = A_ii with 2n*A_ii and n^2*A_ii integral
        choices = [
            Fraction(t, 2 * n) for t in range(2 * n) if (n * t) % 2 == 0
        ]
        diag_choices.append(choices)
    off_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    off_choices = []
    for i, j in off_pairs:
        g = math.gcd(factors[i], factors[j])
        off_choices.append([Fraction(t, 2 * g) for t in range(g)])
    for diag in itertools.product(*diag_choices):
        for off in itertools.product(*off_choices) if off_pairs else [()]:
            mat = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                mat[i][i] = diag[i]
            for (i, j), a in zip(off_pairs, off):
                mat[i][j] = a
                mat[j][i] = a
            yield QForm(group, tuple(tuple(row) for row in mat))


# --- exact integer matrices -------------------------------------------------


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix, exactly (Bareiss elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    if any(len(row) != n for row in a):
        raise ValidationError("forms.bad_matrix", "determinant needs a square matrix")
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (U, D, V) with U*A*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d_1 | d_2 | ... .  Works for arbitrary (also rectangular) integer
    matrices.
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValidationError("forms.bad_matrix", "ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        for t in range(n):
            a[i][t] += c * a[j][t]
        for t in range(m):
            u[i][t] += c * u[j][t]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    for t in range(min(m, n)):
        while True:
            # move the entry of smallest nonzero magnitude to (t, t)
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain to hold
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return u, d, v
