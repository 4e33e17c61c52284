"""Surfaces, pants decompositions as trivalent dual graphs, and moves.

A pants decomposition of a genus-g surface with n boundary components is a
connected dual graph in which every vertex has total degree three; legs are
matched with boundary indices.  Only maximal cut systems are modeled; the
moves are the trivalent edge flip and the genus-one S-exchange (which fixes
the dual graph and is only recorded in the move log).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .errors import CapacityError, MoveNotApplicable, ValidationError
from .forms import Element, _as_items, as_coordinates, as_int
from .graphs import Graph, canonical_form, make_graph

#: Decomposition enumeration handles complexities 2g - 2 + n in this range.
COMPLEXITY_RANGE = (1, 5)


@dataclass(frozen=True)
class SurfaceSpec:
    """Genus plus ordered boundary labels (group elements; may be empty)."""

    genus: int
    boundary_labels: tuple[Element, ...] = ()

    @property
    def n(self) -> int:
        """The number of boundary labels, read as :func:`make_surface` reads
        them (else ``ValidationError("forms.bad_element")``)."""
        return len(_as_items(self.boundary_labels, "forms.bad_element", "labels"))


def _genus(genus) -> int:
    """``genus`` as an int >= 0, else ``ValidationError("surfaces.bad_genus")``."""
    genus = as_int(genus, "surfaces.bad_genus", "genus")
    if genus < 0:
        raise ValidationError("surfaces.bad_genus", f"genus {genus} is negative")
    return genus


def make_surface(genus: int, labels: Sequence[Sequence[int]] = ()) -> SurfaceSpec:
    return SurfaceSpec(
        _genus(genus),
        tuple(
            as_coordinates(lab, "label coordinate")
            for lab in _as_items(labels, "forms.bad_element", "labels")
        ),
    )


@dataclass(frozen=True)
class PantsDecomposition:
    """Connected trivalent dual graph plus a legs -> boundary-index bijection."""

    dual: Graph
    leg_order: tuple[tuple[str, int], ...]
    moves: tuple[str, ...] = ()

    @cached_property
    def leg_map(self) -> dict[str, int]:
        return dict(self.leg_order)

    @property
    def genus(self) -> int:
        return len(self.dual.pairing) - len(self.dual.vertices) + 1

    @property
    def n(self) -> int:
        return len(self.leg_order)

    @cached_property
    def canonical_key(self):
        return canonical_form(self.dual, leg_marks=self.leg_map)


def make_pants_decomposition(dual: Graph, leg_order: Mapping[str, int]) -> PantsDecomposition:
    """Validate trivalence, connectedness, and the boundary matching: the
    one check, for graphs from outside and the enumeration seed, as flips
    keep all three (:func:`_reassociate`)."""
    for v in dual.vertices:
        if dual.degree(v) != 3:
            raise ValidationError(
                "surfaces.not_trivalent", f"vertex {v!r} has degree {dual.degree(v)}, not 3"
            )
    if len(dual.components) != 1:
        raise ValidationError(
            "surfaces.disconnected", f"dual graph has {len(dual.components)} components"
        )
    if not isinstance(leg_order, Mapping):
        raise ValidationError("surfaces.bad_leg_order", f"leg order {leg_order!r} is not a mapping")
    legs = set(dual.legs)
    order = {
        str(h): as_int(i, "surfaces.bad_leg_order", "boundary index")
        for h, i in leg_order.items()
    }
    bijective = len(order) == len(leg_order) and set(order) == legs
    if not bijective or sorted(order.values()) != list(range(len(legs))):
        raise ValidationError(
            "surfaces.bad_leg_order",
            f"leg order must match the {len(legs)} legs bijectively onto 0..{len(legs) - 1}",
        )
    return PantsDecomposition(dual, tuple(sorted(order.items())))


def enumerate_decompositions(spec: SurfaceSpec) -> list[PantsDecomposition]:
    """All isomorphism classes of pants decompositions of the surface.

    Classes are distinguished up to dual-graph isomorphism preserving the
    boundary marking, sorted by canonical form; ``spec`` is read as
    :func:`make_surface` reads its arguments.
    """
    return list(_enumerate_classes(_genus(spec.genus), spec.n))


def _seed(genus: int, n: int) -> PantsDecomposition:
    """One decomposition: a path of 2g - 2 + n vertices, ``genus`` extra
    edges (a loop where a vertex has two free slots, else parallel to the
    path), and the legs b0..b{n-1} in the remaining slots."""
    nv = 2 * genus - 2 + n
    pairs = [(i, i + 1) for i in range(nv - 1)]
    free = [3 - (i > 0) - (i < nv - 1) for i in range(nv)]
    for _ in range(genus):
        loops = [i for i in range(nv) if free[i] >= 2]
        i, j = (loops[0],) * 2 if loops else next(
            (i, i + 1) for i in range(nv - 1) if free[i] and free[i + 1]
        )
        free[i] -= 1
        free[j] -= 1
        pairs.append((i, j))
    vhe: dict[str, list[str]] = {f"v{i}": [] for i in range(nv)}
    edges = []
    for t, (i, j) in enumerate(pairs):
        vhe[f"v{i}"].append(f"e{t}a")
        vhe[f"v{j}"].append(f"e{t}b")
        edges.append((f"e{t}a", f"e{t}b"))
    slots = [i for i in range(nv) for _ in range(free[i])]
    for idx, v in enumerate(slots):
        vhe[f"v{v}"].append(f"b{idx}")
    return make_pants_decomposition(
        make_graph(vhe, edges), {f"b{idx}": idx for idx in range(len(slots))}
    )


@lru_cache(maxsize=64)
def _enumerate_classes(genus: int, n: int) -> tuple[PantsDecomposition, ...]:
    """Breadth-first closure of one seed under both re-associations at every
    non-loop edge; the flip graph is connected (Hatcher-Thurston 1980), so
    this reaches every class."""
    c = 2 * genus - 2 + n
    lo, hi = COMPLEXITY_RANGE
    if not lo <= c <= hi:
        raise CapacityError(
            "surfaces.complexity",
            f"complexity 2g-2+n = {c} outside supported range [{lo}, {hi}]",
        )
    seed = _seed(genus, n)
    found = {seed.canonical_key: seed}
    queue = [seed]
    for pd in queue:
        for a, b in pd.dual.pairing:
            if pd.dual.attach_map[a] == pd.dual.attach_map[b]:
                continue
            for side in (0, 1):
                out = _flipped(pd, _reassociate(pd, a, side)[1], ())
                if out.canonical_key not in found:
                    found[out.canonical_key] = out
                    queue.append(out)
    return tuple(found[key] for key in sorted(found))


def _find_edge(pd: PantsDecomposition, half_edge: str) -> tuple[str, str]:
    inv = pd.dual.involution
    other = inv.get(half_edge, half_edge) if isinstance(half_edge, str) else half_edge
    if other == half_edge:
        raise ValidationError(
            "surfaces.unknown_edge", f"{half_edge!r} is not a half-edge of an internal edge"
        )
    return tuple(sorted((half_edge, other)))


def _reassociate(pd: PantsDecomposition, half_edge: str, side: int) -> tuple[str, Graph]:
    """The move-log entry and the flipped dual graph of a flip at an edge:
    ``side`` 1 is the re-association of :func:`whitehead_move`, ``side`` 0
    the other one, to (a, c) at u and (b, d) at v in its notation.

    A flip keeps all that :func:`make_pants_decomposition` checks.  One
    half-edge moves from u to v and one from v to u, so every degree stays.
    The edge still joins u and v and every moved half-edge stays on {u, v},
    so each path of ``pd`` maps to one of the flip, which stays connected.
    The half-edges and the pairing, so the legs and their order, are kept.
    Only the vertices of the two moved half-edges change, so ``attach``
    stays in half-edge order with two entries rewritten, ``attach_map`` is
    the source's with the same two entries rewritten, and the flipped graph
    takes the source's ``half_edges``, ``legs`` and ``involution`` as they
    are."""
    a_he, b_he = _find_edge(pd, half_edge)
    g = pd.dual
    at = g.attach_map
    u, v = at[a_he], at[b_he]
    if u == v:
        raise MoveNotApplicable(
            "surfaces.move_not_applicable", f"edge {a_he}-{b_he} is a loop at {u!r}"
        )
    rest_u = sorted(h for h in g.vertex_half_edges[u] if h != a_he)
    rest_v = sorted(h for h in g.vertex_half_edges[v] if h != b_he)
    moved = {rest_u[1]: v, rest_v[side]: u}
    attach = list(g.attach)
    for h, w in moved.items():
        attach[g.half_edges.index(h)] = (h, w)
    flipped = Graph(vertices=g.vertices, attach=tuple(attach), pairing=g.pairing)
    vars(flipped).update(
        half_edges=g.half_edges, legs=g.legs, involution=g.involution, attach_map={**at, **moved}
    )
    return f"F:{a_he}-{b_he}", flipped


def _flipped(pd: PantsDecomposition, flipped: Graph, moves: tuple[str, ...]) -> PantsDecomposition:
    """The decomposition of a flipped dual graph; a flip keeps the legs and
    their order, so it takes ``pd``'s ``leg_map`` when that is cached, as
    :func:`s_move` does."""
    out = PantsDecomposition(flipped, pd.leg_order, moves)
    if "leg_map" in vars(pd):
        vars(out)["leg_map"] = vars(pd)["leg_map"]
    return out


def whitehead_move(pd: PantsDecomposition, half_edge: str) -> PantsDecomposition:
    """Flip the decomposition at an internal edge joining distinct vertices.

    At the edge (u, v), the remaining half-edges (a, b) at u and (c, d) at v
    (each sorted by label) are re-associated to (a, d) at u and (b, c) at v;
    this convention keeps the three-edge theta configuration self-paired.
    Preserves genus and boundary count.
    """
    entry, flipped = _reassociate(pd, half_edge, 1)
    return _flipped(pd, flipped, pd.moves + (entry,))


def s_move(pd: PantsDecomposition, half_edge: str) -> PantsDecomposition:
    """Exchange the cut of a genus-one piece with a transversal one.

    Applies to loop edges only.  The dual graph is unchanged up to
    isomorphism; the move is recorded in the log, and the result keeps the
    cached ``leg_map`` and ``canonical_key`` of ``pd``.
    """
    a_he, b_he = _find_edge(pd, half_edge)
    g = pd.dual
    if g.attach_map[a_he] != g.attach_map[b_he]:
        raise MoveNotApplicable(
            "surfaces.move_not_applicable", f"edge {a_he}-{b_he} is not a loop"
        )
    out = replace(pd, moves=pd.moves + (f"S:{a_he}-{b_he}",))
    for name in ("leg_map", "canonical_key"):
        if name in vars(pd):
            vars(out)[name] = vars(pd)[name]
    return out
