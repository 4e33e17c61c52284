"""Shared fixtures and generators for the test suite."""

import cmath
import functools
import itertools
import math
from fractions import Fraction

import pytest

import gvblocks as gv


def make_pointed(factors, matrix, h0):
    group = gv.make_group(factors)
    q = gv.make_qform(group, matrix)
    return gv.make_category(group, q, h0)


@pytest.fixture
def semion():
    return make_pointed([2], [[Fraction(1, 4)]], (0,))


@pytest.fixture
def z3():
    return make_pointed([3], [[Fraction(1, 3)]], (0,))


@pytest.fixture
def z8_ff():
    # Feigin-Fuchs style: q(k) = k^2/16 with h0 = 1, so g0 = 2
    return make_pointed([8], [[Fraction(1, 16)]], (1,))


@pytest.fixture
def klein():
    return make_pointed([2, 2], [[0, Fraction(1, 4)], [Fraction(1, 4), 0]], (0, 0))


@pytest.fixture
def trivial_cat():
    return make_pointed([1], [[0]], (0,))


@pytest.fixture
def z2_flat():
    # q = 0: fully transparent category
    return make_pointed([2], [[0]], (0,))


def random_qform(rng, group):
    """A uniformly random well-defined quadratic form on the group."""
    factors = group.invariant_factors
    k = group.rank
    mat = [[Fraction(0)] * k for _ in range(k)]
    for i, n in enumerate(factors):
        choices = [Fraction(t, 2 * n) for t in range(2 * n) if (n * t) % 2 == 0]
        mat[i][i] = rng.choice(choices)
    for i in range(k):
        for j in range(i + 1, k):
            import math

            g = math.gcd(factors[i], factors[j])
            mat[i][j] = mat[j][i] = Fraction(rng.randrange(g), 2 * g)
    return gv.make_qform(group, mat)


def group_shapes(max_order):
    """All invariant-factor chains d1 | d2 | ... with product <= max_order."""
    out = []

    def rec(chain, prod):
        if chain:
            out.append(tuple(chain))
        d = chain[-1] if chain else 2
        while prod * d <= max_order:
            if d % (chain[-1] if chain else 1) == 0:
                rec(chain + [d], prod * d)
            d += 1

    rec([], 1)
    return out


def random_graph(rng, max_vertices=8, max_degree=4):
    """Random half-edge graph: random degrees, random partial pairing."""
    nv = rng.randint(1, max_vertices)
    vhe = {}
    counter = 0
    halves = []
    for i in range(nv):
        deg = rng.randint(0, max_degree)
        hs = [f"h{counter + t}" for t in range(deg)]
        counter += deg
        vhe[f"v{i}"] = hs
        halves.extend(hs)
    rng.shuffle(halves)
    n_edges = rng.randint(0, len(halves) // 2)
    edges = [(halves[2 * i], halves[2 * i + 1]) for i in range(n_edges)]
    return gv.make_graph(vhe, edges)


def attach_morphism(corollas, leg_pairs):
    """Morphism out of the given corollas that glues the listed leg pairs.

    ``leg_pairs`` is a list of ((cid, leg), (cid, leg)) pairs; legs not
    mentioned stay free.
    """
    vhe = {c.id: [f"{c.id}|{leg}" for leg in c.legs] for c in corollas}
    edges = [
        (f"{c1}|{l1}", f"{c2}|{l2}") for (c1, l1), (c2, l2) in leg_pairs
    ]
    g = gv.make_graph(vhe, edges)
    src = {(c.id, leg): f"{c.id}|{leg}" for c in corollas for leg in c.legs}
    target = gv.contract_edges(g)
    tgt = {(c.id, leg): leg for c in target for leg in c.legs}
    return gv.make_morphism(corollas, target, g, src, tgt)


def random_leg_pairing(rng, corollas, max_pairs=None):
    """A random set of disjoint leg pairs across the given corollas."""
    keys = [(c.id, leg) for c in corollas for leg in c.legs]
    rng.shuffle(keys)
    limit = len(keys) // 2 if max_pairs is None else min(max_pairs, len(keys) // 2)
    n = rng.randint(0, limit)
    return [(keys[2 * i], keys[2 * i + 1]) for i in range(n)]


def glued_dim_oracle(C, pd, labels):
    """Brute-force gluing count, independent of the library contraction."""
    import itertools

    group = C.group
    label_of_leg = {h: group.reduce(labels[i]) for h, i in pd.leg_map.items()}
    edges = list(pd.dual.pairing)
    total = 0
    for assign in itertools.product(group.elements, repeat=len(edges)):
        val = {}
        for (a, b), e in zip(edges, assign):
            val[a] = e
            val[b] = C.dual(e)
        ok = True
        for v in pd.dual.vertices:
            s = group.zero
            for h in pd.dual.vertex_half_edges[v]:
                s = group.add(s, label_of_leg[h] if h in label_of_leg else val[h])
            if s != C.g0:
                ok = False
                break
        if ok:
            total += 1
    return total


# --- brute-force Fraction references for the group-table kernels ----------


def _pairing(matrix, x, y):
    total = Fraction(0)
    for row, xi in zip(matrix, x):
        for a, yj in zip(row, y):
            if a and xi and yj:
                total += a * (xi * yj)
    return total % 1


def q_reference(q, x):
    """q(x) = x^T A x mod 1 straight from the rational matrix."""
    return _pairing(q.matrix, x, x)


def b_reference(q, x, y):
    """b(x, y) = 2 x^T A y mod 1, the polarization of q."""
    return 2 * _pairing(q.matrix, x, y) % 1


def radical_reference(q):
    """Elements x with b(x, y) = 0 for every y, in sorted order."""
    els = q.group.elements
    return tuple(x for x in els if all(b_reference(q, x, y) == 0 for y in els))


def gauss_sum_reference(q):
    total = sum(cmath.exp(2j * math.pi * q_reference(q, x)) for x in q.group.elements)
    return total / math.sqrt(q.group.order)


def twist_table(C, twist=None):
    """The twist on every element: ``twist`` if given, else q(x) - b(x, h0)."""
    if twist is None:
        q = C.qform
        twist = lambda x: q_reference(q, x) - b_reference(q, x, C.h0)
    return {x: twist(x) % 1 for x in C.group.elements}


def axiom_violation(C, th, name, witness, b=None):
    """True when ``witness`` breaks the named axiom under the twist table
    ``th``, in exact arithmetic; ``b`` may pass a memoized ``b_reference``."""
    group, q = C.group, C.qform
    b = b or functools.partial(b_reference, q)
    if name == "braiding biadditive":
        x, y, z = witness
        return b(group.add(x, y), z) != (b(x, z) + b(y, z)) % 1
    if name == "twist multiplicative":
        x, y = witness
        return th[group.add(x, y)] != (th[x] + th[y] + b(x, y)) % 1
    if name == "twist unit":
        return witness == (group.zero,) and th[group.zero] != 0
    if name == "ribbon":
        return th[C.dual(witness[0])] != th[witness[0]]
    if name == "pairing balance":
        x, y = witness
        return C.kappa(x, y) == 1 and th[x] != th[y]
    if name == "quadratic even":
        return q_reference(q, group.neg(witness[0])) != q_reference(q, witness[0])
    raise KeyError(name)


def axioms_reference(C, twist=None):
    """First witness of each axiom check in lexicographic element order.

    Biadditivity runs over all triples up to order 128.  Above that, the
    first failing pair (x, y) is found against the generators e_j with
    n_j > 1 (the defect b(x + y, z) - b(x, z) - b(y, z) is linear in the
    coordinates of z), and then its first failing z over all of G.
    """
    group = C.group
    th = twist_table(C, twist)
    b = functools.cache(functools.partial(b_reference, C.qform))
    els = group.elements
    triples = itertools.product(els, els, els)
    if group.order > 128:
        gens = [group.generator(i) for i, n in enumerate(group.invariant_factors) if n > 1]
        pair = next(
            (
                (x, y)
                for x, y in itertools.product(els, els)
                if any(axiom_violation(C, th, "braiding biadditive", (x, y, e), b) for e in gens)
            ),
            None,
        )
        triples = [] if pair is None else (pair + (z,) for z in els)
    candidates = {
        "braiding biadditive": triples,
        "twist multiplicative": itertools.product(els, els),
        "twist unit": [(group.zero,)],
        "ribbon": ((x,) for x in els),
        "pairing balance": ((x, C.dual(x)) for x in els),
        "quadratic even": ((x,) for x in els),
    }
    return {
        name: next((w for w in ws if axiom_violation(C, th, name, w, b)), None)
        for name, ws in candidates.items()
    }


# --- brute-force references for the pants-decomposition enumeration ------


def canonical_form_reference(g, leg_marks=None):
    """Lexicographic minimum over all vertex relabelings of (sorted edges,
    sorted (vertex, repr(mark)) legs), in the return shape of
    ``gv.canonical_form``."""
    marks = dict(leg_marks) if leg_marks else {}
    edge_at = [(g.attach_map[a], g.attach_map[b]) for a, b in g.pairing]
    leg_at = [(g.attach_map[h], marks.get(h)) for h in g.legs]
    best = None
    for perm in itertools.permutations(range(len(g.vertices))):
        num = dict(zip(g.vertices, perm))
        edges = sorted((min(num[x], num[y]), max(num[x], num[y])) for x, y in edge_at)
        legs = sorted((num[v], repr(mark)) for v, mark in leg_at)
        rep = (tuple(edges), tuple(legs))
        if best is None or rep < best:
            best = rep
    return (len(g.vertices),) + best


def reference_key(pd):
    return canonical_form_reference(pd.dual, pd.leg_map)


def _edge_multisets(n_vertices, n_edges):
    """Multisets of internal edges over vertex pairs with degree <= 3."""
    pairs = [(i, j) for i in range(n_vertices) for j in range(i, n_vertices)]
    degree = [0] * n_vertices

    def rec(idx, remaining, counts):
        if remaining == 0:
            yield counts + [0] * (len(pairs) - idx)
            return
        if idx == len(pairs):
            return
        i, j = pairs[idx]
        for m in range(remaining + 1):
            degree[i] += 2 * m if i == j else m
            if i != j:
                degree[j] += m
            if degree[i] <= 3 and degree[j] <= 3:
                yield from rec(idx + 1, remaining - m, counts + [m])
            degree[i] -= 2 * m if i == j else m
            if i != j:
                degree[j] -= m

    for counts in rec(0, n_edges, []):
        yield pairs, counts


def _connected(nv, pairs, counts):
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (i, j), m in zip(pairs, counts):
        if m and i != j:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(nv)}) == 1


def _leg_assignments(capacity, n):
    """Functions {0..n-1} -> vertices respecting per-vertex leg capacities."""
    used = [0] * len(capacity)

    def rec(idx):
        if idx == n:
            yield ()
            return
        for v in range(len(capacity)):
            if used[v] < capacity[v]:
                used[v] += 1
                for rest in rec(idx + 1):
                    yield (v,) + rest
                used[v] -= 1

    yield from rec(0)


@functools.cache
def enumerate_classes_reference(genus, n):
    """Every connected trivalent multigraph with ``n`` numbered legs and
    first Betti number ``genus``, one per class of the reference key: edge
    multisets times leg assignments, deduplicated by a minimum over all
    vertex permutations."""
    nv = 2 * genus - 2 + n
    ne = 3 * genus - 3 + n
    perms = list(itertools.permutations(range(nv)))
    found = {}
    for pairs, counts in _edge_multisets(nv, ne):
        int_degree = [0] * nv
        for (i, j), m in zip(pairs, counts):
            int_degree[i] += m * (2 if i == j else 1)
            if i != j:
                int_degree[j] += m
        capacity = [3 - d for d in int_degree]
        if sum(capacity) != n or not _connected(nv, pairs, counts):
            continue
        edge_list = [(i, j) for (i, j), m in zip(pairs, counts) for _ in range(m)]
        for assignment in _leg_assignments(capacity, n):
            key = min(
                (
                    tuple(sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in edge_list)),
                    tuple(sorted((p[v], idx) for idx, v in enumerate(assignment))),
                )
                for p in perms
            )
            found.setdefault(key, (edge_list, assignment))
    out = []
    for edge_list, assignment in found.values():
        vhe = {f"v{i}": [] for i in range(nv)}
        edges = []
        for t, (i, j) in enumerate(edge_list):
            vhe[f"v{i}"].append(f"e{t}a")
            vhe[f"v{j}"].append(f"e{t}b")
            edges.append((f"e{t}a", f"e{t}b"))
        for idx, v in enumerate(assignment):
            vhe[f"v{v}"].append(f"b{idx}")
        leg_order = {f"b{idx}": idx for idx in range(n)}
        out.append(gv.make_pants_decomposition(gv.make_graph(vhe, edges), leg_order))
    return tuple(out)


def subgroup_invariants_reference(group, elements):
    """Invariant factors of a subgroup from element-order counts taken one
    element at a time with ``group.scale``."""
    order = len(elements)
    if order <= 1:
        return ()
    powers_by_prime = []
    for p in (d for d in range(2, order + 1) if order % d == 0 and all(d % e for e in range(2, d))):
        p_part = p ** max(k for k in range(order.bit_length()) if order % p**k == 0)
        exps, prev, j = [], 0, 1
        while True:
            killed = sum(1 for x in elements if group.scale(p**j, x) == group.zero)
            cur = round(math.log(killed, p))
            exps.append(cur - prev)
            if killed == p_part:
                break
            prev, j = cur, j + 1
        sizes = [sum(1 for e in exps if e >= k) for k in range(1, max(exps) + 1)]
        powers_by_prime.append(sorted((p**a for a in sizes), reverse=True))
    chain = [
        math.prod(ps[i] for ps in powers_by_prime if i < len(ps))
        for i in range(max(len(ps) for ps in powers_by_prime))
    ]
    return tuple(reversed(chain))


# --- dense reference for the torus relation residuals --------------------


def _conjugation_matrix(md):
    import numpy as np

    P = np.zeros((md.rank, md.rank))
    P[np.arange(md.rank), list(md.conjugation)] = 1
    return P


def relations_reference(md):
    """(lam, ||S T S - lam P T* S* T*||, ||S - P S*||, ||S S*^T - 1||) from
    dense products of ``md.S``, the T-matrix ``diag(md.T)`` and the
    conjugation permutation P, in the Frobenius norm; lam is read off the
    vacuum entry of P^T S T S = lam T* S* T*."""
    import numpy as np

    S, T, P = md.S, np.diag(md.T), _conjugation_matrix(md)
    sts, inverse = S @ T @ S, (T @ S @ T).conj()
    lam = complex((P.T @ sts)[0, 0] / inverse[0, 0])
    return (
        lam,
        np.linalg.norm(sts - lam * P @ inverse, "fro"),
        np.linalg.norm(S - P @ S.conj(), "fro"),
        np.linalg.norm(S @ S.conj().T - np.eye(md.rank), "fro"),
    )


def power_relations_reference(md):
    """(lam, ||(ST)^3 - lam S^2||, ||S^2 - P||) from dense products: the
    relations as powers, which for unitary S have the residuals of
    :func:`relations_reference`."""
    import numpy as np

    S, T = md.S, np.diag(md.T)
    st3, s2 = np.linalg.matrix_power(S @ T, 3), S @ S
    lam = complex(st3[0, 0] / s2[0, 0])
    return (
        lam,
        np.linalg.norm(st3 - lam * s2, "fro"),
        np.linalg.norm(s2 - _conjugation_matrix(md), "fro"),
    )


def det_reference(mat):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination, which shares no code with the library's Smith form."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[n - 1][n - 1] if n else 1


def mat_mul_int(a, b):
    """The product of two integer matrices given as lists of rows."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def s_reference(C):
    """S of a modular pointed ``C`` as e(-b(x, y))/sqrt(n) looked up at the
    b-numerators weights·element_arrayᵀ mod M, M the denominator of b."""
    import numpy as np

    group = C.group
    bden = C.bform.int_form[0]
    numerators = C.bform.weights @ group.element_array.T % bden
    return (np.exp(-2j * math.pi * np.arange(bden) / bden) / math.sqrt(group.order))[numerators]


def st_reference(C):
    """(S, ||S - K||_F, index) for a modular pointed ``C``: S from
    :func:`s_reference`, and K the character table read off its generator
    columns, k_j(x) from the angle of S_{x, e_j}, indexed in int64; the
    defect is summed over the library's row blocks, and ``index`` is the
    sorted-order position of k(x)."""
    import numpy as np

    from gvblocks.forms import _chunks
    from gvblocks.torus import _sq_norm

    group = C.group
    n = group.order
    S = s_reference(C)
    factors = np.array(group.invariant_factors, dtype=np.int64)
    gens = group.index_of(np.eye(group.rank, dtype=np.int64))
    k = np.rint(-np.angle(S[:, gens]) * factors / (2 * math.pi)).astype(np.int64) % factors
    N = math.lcm(*group.invariant_factors)
    roots = np.exp(-2j * math.pi * np.arange(N) / N) / math.sqrt(n)
    K = roots[k * (N // factors) @ group.element_array.T % N]
    defect = math.sqrt(sum(_sq_norm(S[rows] - K[rows]) for rows in _chunks(n)))
    return S, defect, group.index_of(k)
