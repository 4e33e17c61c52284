"""Finite abelian groups and Q/Z-valued quadratic forms.

Values in Q/Z are exact ``fractions.Fraction`` objects reduced into ``[0, 1)``;
only :func:`gauss_sum` leaves exact arithmetic.  Group elements are plain
integer tuples with the i-th coordinate reduced modulo the i-th invariant
factor.  Invariant factors are kept in the shape the caller supplied (no
forced divisibility chain); only :func:`smith_normal_form` output follows the
chain.

Whole-group computations index the elements one way: position in sorted
(mixed-radix) order, through :attr:`FinAbGroup.element_array`,
:meth:`FinAbGroup.index_of` and :attr:`FinAbGroup.neg_index`; values at
x + y are read by :meth:`FinAbGroup.translates` as strided windows of the
periodically extended grid, with no addition table; a
:class:`Subgroup` is a tuple of such indices.  A form is
evaluated on those arrays through its integer matrix M*A reduced modulo its
common denominator M; for a validated form M divides 2*lcm(n_i), so within
the group-order caps every int64 product stays below 2^62 and the tables
are exact.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    array (a scalar, a set) or is a string raises
    ``ValidationError("forms.bad_element")``."""
    is_sequence = isinstance(vec, abc.Sequence) and not isinstance(vec, (str, bytes))
    if not is_sequence and getattr(vec, "ndim", 0) != 1:
        raise ValidationError(
            "forms.bad_element", f"element {vec!r} is not a sequence of coordinates"
        )
    return tuple(as_int(c, "forms.bad_element", what) for c in vec)


def _as_items(x, code: str, what: str) -> tuple:
    """The items of a container argument as a tuple; an ``x`` that cannot
    be iterated (a scalar), a string, which would split into its
    characters, or a mapping, which would give its keys, raises
    ``ValidationError(code)``.  A tuple is returned as it is."""
    if type(x) is tuple:
        return x
    try:
        if isinstance(x, (str, bytes, abc.Mapping)):
            raise TypeError
        items = iter(x)
    except TypeError:
        raise ValidationError(code, f"{what} must be a sequence, got {x!r}") from None
    return tuple(items)


def _chunks(n: int) -> list[slice]:
    """Slices of ``range(n)`` whose rows of an n x n table hold about 2^16
    entries (1 MB of complex) each: the one block size of every |G|²-sized
    table, such as :meth:`FinAbGroup.translates` and ``table_rows`` take."""
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

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements as tuples in sorted order: the rows of :attr:`element_array`."""
        return tuple(itertools.product(*(range(n) for n in self.invariant_factors)))

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

    @property
    def wrap_index(self) -> np.ndarray:
        """Sorted-order index of each point of the group grid extended
        periodically by n_i - 1 along each axis, (2n_1 - 1) x ... x
        (2n_k - 1) points in C order (at most 3^12 = 531 441 within the
        group caps); ``values[wrap_index]`` is what :meth:`translates`
        reads."""
        return self._windows[0]

    @cached_property
    def _windows(self) -> tuple[np.ndarray, np.ndarray, int, tuple[int, ...]]:
        """:attr:`wrap_index`, built by padding the sorted-order grid
        periodically along one axis at a time; the offset of each element,
        in sorted order, in the extended grid (the positions of its box
        [0, n_1) x ... x [0, n_k)); one past the largest offset; and the
        extended grid's strides in entries."""
        wrap = np.arange(self.order).reshape(self.invariant_factors)
        for axis, n in enumerate(self.invariant_factors):
            wrap = wrap.take(np.arange(2 * n - 1), axis=axis, mode="wrap")
        positions = np.arange(wrap.size).reshape(wrap.shape)
        offsets = positions[tuple(slice(n) for n in self.invariant_factors)].reshape(-1)
        strides = tuple(s // positions.itemsize for s in positions.strides)
        return wrap.reshape(-1), offsets, int(offsets[-1]) + 1, strides

    def translates(self, wrapped: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
        """``values[x + y]`` for x in ``element_array[rows]`` and every y in
        sorted order, as a fresh (len(rows), order) array; ``wrapped`` is
        ``values[wrap_index]``, of any dtype, and ``rows`` a slice or an
        index array.

        The values at x + y, y running over the group, are the box
        x + [0, n_1) x ... x [0, n_k) of the extended grid, so row x is the
        box at x's offset in one plain strided view of ``wrapped``: no index
        table is built.
        """
        _, offsets, span, strides = self._windows
        item = wrapped.itemsize
        boxes = np.ndarray(
            (span, *self.invariant_factors),
            wrapped.dtype,
            wrapped,
            strides=(item, *(s * item for s in strides)),
        )
        return boxes[offsets[rows]].reshape(-1, self.order)

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

    @cached_property
    def weights(self) -> np.ndarray:
        """Numerators of b(x, e_j): one row per element in sorted order,
        computed once per form and read-only."""
        weights = (self.group.element_array @ self.int_array) % self.int_form[0]
        weights.flags.writeable = False
        return weights

    def table_rows(self, rows: slice = slice(None)) -> np.ndarray:
        """Numerators of b(x, y) for x in ``element_array[rows]`` and every y:
        b(x, y) = sum_j y_j b(x, e_j), so the rows are the weights of x
        against the coordinates of y.  Read by the axiom scan, which tests
        b against the twist and so must not derive it from q."""
        out = self.weights[rows] @ self.group.element_array.T
        out %= self.int_form[0]
        return out

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


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``ambient`` as the ascending sorted-order indices of its
    elements in ``ambient.element_array``; its elements and invariant
    factors are derived when first read, over an ambient group of order at
    most :data:`ENUMERATION_CAP` (else ``CapacityError("forms.capacity")``).
    Entries are read by :func:`as_int`, so numpy integers become ints.  An
    ``index`` with an entry that is not an integer (a float, a bool), or
    that is empty, not strictly ascending, out of range or without 0,
    raises ``ValidationError("forms.bad_subgroup")``."""

    ambient: FinAbGroup
    index: tuple[int, ...]

    def __post_init__(self):
        order = self.ambient.order
        index = tuple(as_int(i, "forms.bad_subgroup", "subgroup index entry") for i in self.index)
        object.__setattr__(self, "index", index)
        # one C-level pass over the pairs, cheaper than np.asarray at any size
        ascending = all(map(operator.lt, index, index[1:]))
        if not (index and index[0] == 0 and index[-1] < order and ascending):
            raise ValidationError(
                "forms.bad_subgroup", f"index {index!r} does not ascend from 0 below {order}"
            )

    @property
    def order(self) -> int:
        return len(self.index)

    @property
    def is_trivial(self) -> bool:
        return len(self.index) == 1

    @property
    def _coords(self) -> np.ndarray:
        _check_enumerable(self.ambient)
        return self.ambient.element_array[list(self.index)]

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(map(tuple, self._coords.tolist()))

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors (ascending divisibility chain), from the
        element-order statistics: for each prime p the p^j-torsion has
        p^(e_1 + ... + e_j) elements, e_j the number of cyclic p-factors of
        order >= p^j, whose conjugate partition is the p-part.  Coordinates
        are below max(n_i) <= |G| <= 2^16 and p^j divides the order, so every
        ``coords * p**j`` stays below 2^32.  Counts no subgroup has raise
        ``ValidationError("forms.bad_subgroup")``, which bounds the loop by
        the p-part; this is not a full closure test."""
        coords = self._coords
        factors = np.array(self.ambient.invariant_factors, dtype=np.int64)
        powers_by_prime = []
        for p in _prime_factors(self.order):
            p_part = math.gcd(self.order, p ** self.order.bit_length())
            exps = []  # e_1, e_2, ...: the p^j-torsion has p^sum(exps[:j]) elements
            while p ** sum(exps) < p_part:
                killed = np.count_nonzero(~(coords * p ** (len(exps) + 1) % factors).any(axis=1))
                exps.append((round(math.log(killed, p)) if killed else 0) - sum(exps))
                # a subgroup's counts are powers of p up to the p-part, e_1 >= e_2 >= ... > 0
                if p ** sum(exps) != killed or killed > p_part or not 0 < exps[-1] == min(exps):
                    raise ValidationError(
                        "forms.bad_subgroup",
                        f"not a subgroup of {self.ambient.invariant_factors}: {killed} of its "
                        f"{self.order} elements are killed by {p}^{len(exps)}",
                    )
            # conjugate partition: sizes of the cyclic factors, descending
            sizes = [sum(e >= k for e in exps) for k in range(1, max(exps) + 1)]
            powers_by_prime.append([p**a for a in sizes])
        chain = [math.prod(ps) for ps in itertools.zip_longest(*powers_by_prime, fillvalue=1)]
        return tuple(reversed(chain))


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
    mask = ~b.weights.any(axis=1)
    return Subgroup(group, tuple(np.flatnonzero(mask).tolist()))


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


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (U, D, V, s) with U*A*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d_1 | d_2 | ... .  Works for arbitrary (also rectangular) integer
    matrices.  s = det(U)·det(V) = ±1, flipped on each row swap, column
    swap and row negation, so det(A) = s·d_1·...·d_n for square A.
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValidationError("forms.bad_matrix", "ragged matrix")
    u = _identity(m)
    v = _identity(n)
    sign = 1

    def add_row(i, j, c):
        # row_i += c * row_j
        for t in range(n):
            a[i][t] += c * a[j][t]
        for t in range(m):
            u[i][t] += c * u[j][t]

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
            i, j = best
            if i != t:  # swap rows t and i
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
                sign = -sign
            if j != t:  # swap columns t and j
                for row in a + v:
                    row[t], row[j] = row[j], row[t]
                sign = -sign
            if a[t][t] < 0:  # negate row t
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
                sign = -sign
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
    return u, d, v, sign
