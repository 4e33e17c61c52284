"""Corollas, graphs with half-edge involutions, cutting/contracting, and
composition by vertex substitution.

A graph is a finite set of half-edges, a finite set of vertices, an
attachment map half-edge -> vertex, and an involution on half-edges whose
fixed points are the legs and whose 2-cycles are the internal edges.  All
values here are immutable; operations are pure.

Text format (``graph_to_text`` / ``graph_from_text``)::

    graph       = line*
    line        = vertex-line | edge-line | blank | comment
    vertex-line = "vertex" name ":" name*        # vertex, then its half-edges
    edge-line   = "edge" name name               # the two halves of one edge
    comment     = "#" ... end of line
    name        = any whitespace-free string

Every half-edge appears on exactly one vertex line and in at most one edge
line; half-edges not mentioned on an edge line are legs.
"""

from __future__ import annotations

from collections import Counter, abc
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, CompositionError, ValidationError
from .forms import _as_items

#: Largest vertex count canonicalized (see :func:`canonical_form`).
CANONICAL_CAP = 8

#: Prefix for leg labels derived from cut internal edges.
CUT_PREFIX = "h:"


@dataclass(frozen=True)
class Corolla:
    """One vertex with an ordered tuple of distinct legs."""

    id: str
    legs: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.legs)


def new_corolla(legs: Sequence[str], id: str = "c") -> Corolla:
    """Build a corolla; leg labels must be pairwise distinct."""
    legs = tuple(str(leg) for leg in _as_items(legs, "graphs.bad_graph", "legs"))
    seen = set()
    for leg in legs:
        if leg in seen:
            raise ValidationError("graphs.duplicate_leg", f"duplicate leg label {leg!r}")
        seen.add(leg)
    return Corolla(str(id), legs)


@dataclass(frozen=True)
class Graph:
    """Half-edge graph; construct through :func:`make_graph`.

    ``attach`` is stored as a sorted tuple of (half_edge, vertex) pairs and
    ``pairing`` as a sorted tuple of internal edges (each a sorted pair), so
    instances hash and compare structurally.
    """

    vertices: tuple[str, ...]
    attach: tuple[tuple[str, str], ...]
    pairing: tuple[tuple[str, str], ...]

    @cached_property
    def attach_map(self) -> dict[str, str]:
        return dict(self.attach)

    @cached_property
    def half_edges(self) -> tuple[str, ...]:
        return tuple(h for h, _ in self.attach)

    @cached_property
    def involution(self) -> dict[str, str]:
        inv = {h: h for h in self.half_edges}
        for a, b in self.pairing:
            inv[a] = b
            inv[b] = a
        return inv

    @cached_property
    def legs(self) -> tuple[str, ...]:
        paired = {h for pair in self.pairing for h in pair}
        return tuple(h for h in self.half_edges if h not in paired)

    @cached_property
    def vertex_half_edges(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for h, v in self.attach:
            out[v].append(h)
        return {v: tuple(hs) for v, hs in out.items()}

    def degree(self, v: str) -> int:
        return len(self.vertex_half_edges[v])

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components as sorted tuples of vertices."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.pairing:
            ra, rb = find(self.attach_map[a]), find(self.attach_map[b])
            if ra != rb:
                parent[ra] = rb
        groups: dict[str, list[str]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def _as_mapping(x, what: str) -> Mapping:
    if not isinstance(x, abc.Mapping):
        raise ValidationError("graphs.bad_graph", f"{what} must be a mapping, got {x!r}")
    return x


def make_graph(
    vertex_half_edges: Mapping[str, Sequence[str]],
    edges: Iterable[tuple[str, str]] = (),
) -> Graph:
    """Build and validate a graph from per-vertex half-edge lists and edges."""
    attach: dict[str, str] = {}
    vertices: set[str] = set()
    for v, halves in _as_mapping(vertex_half_edges, "vertex half-edges").items():
        name = str(v)
        if name in vertices:
            raise ValidationError("graphs.bad_graph", f"two vertices are named {name!r}")
        vertices.add(name)
        for h in _as_items(halves, "graphs.bad_graph", f"half-edges of vertex {v!r}"):
            h = str(h)
            if h in attach:
                raise ValidationError(
                    "graphs.duplicate_half_edge", f"half-edge {h!r} attached twice"
                )
            attach[h] = name
    pairing = []
    used: set[str] = set()
    for edge in _as_items(edges, "graphs.bad_edge", "edges"):
        halves = _as_items(edge, "graphs.bad_edge", "edge")
        if len(halves) != 2:
            raise ValidationError("graphs.bad_edge", f"edge {edge!r} is not a pair of half-edges")
        a, b = (str(h) for h in halves)
        if a == b:
            raise ValidationError("graphs.bad_edge", f"edge pairs {a!r} with itself")
        for h in (a, b):
            if h not in attach:
                raise ValidationError("graphs.bad_edge", f"unknown half-edge {h!r}")
            if h in used:
                raise ValidationError("graphs.bad_edge", f"half-edge {h!r} glued twice")
        used.update((a, b))
        pairing.append(tuple(sorted((a, b))))
    return Graph(
        vertices=tuple(sorted(vertices)),
        attach=tuple(sorted(attach.items())),
        pairing=tuple(sorted(pairing)),
    )


def corolla_graph(c: Corolla) -> Graph:
    """The one-vertex graph of a corolla (all half-edges are legs)."""
    return make_graph({c.id: c.legs})


def _cut_leg(g: Graph, h: str) -> str:
    """The leg label :func:`cut_edges` gives half-edge ``h``."""
    return CUT_PREFIX + h if g.involution[h] != h else h


def cut_edges(g: Graph) -> tuple[Corolla, ...]:
    """Cut all internal edges: one corolla per vertex.

    Each cut half keeps its identity through the derived leg label
    ``"h:<half-edge>"``; original legs keep their labels.  The total leg
    count of the output equals the number of half-edges of ``g``.
    """
    return tuple(
        new_corolla(tuple(_cut_leg(g, h) for h in sorted(hs)), id=v)
        for v, hs in g.vertex_half_edges.items()
    )


def contract_edges(g: Graph) -> tuple[Corolla, ...]:
    """Contract all internal edges: one corolla per connected component.

    The component corolla is named after its smallest vertex and carries the
    legs of the component, in sorted order.
    """
    leg_set = set(g.legs)
    out = []
    for comp in g.components:
        legs = sorted(
            h for v in comp for h in g.vertex_half_edges[v] if h in leg_set
        )
        out.append(new_corolla(tuple(legs), id=comp[0]))
    return tuple(out)


def genus(g: Graph) -> dict[str, int]:
    """First Betti number E - V + 1 per component, keyed like contract_edges."""
    edge_count: dict[str, int] = {}
    comp_of: dict[str, str] = {}
    for comp in g.components:
        for v in comp:
            comp_of[v] = comp[0]
        edge_count[comp[0]] = 0
    for a, _ in g.pairing:
        edge_count[comp_of[g.attach_map[a]]] += 1
    return {
        comp[0]: edge_count[comp[0]] - len(comp) + 1 for comp in g.components
    }


def total_genus(g: Graph) -> int:
    return sum(genus(g).values())


def canonical_form(g: Graph, leg_marks: Mapping[str, object] | None = None):
    """Canonical representative of the isomorphism class of ``g``.

    The certificate of a vertex numbering is the pair (sorted internal-edge
    multiset, sorted multiset of (vertex, repr(mark)) legs); the canonical
    form is its minimum over the leaves of a colour-refinement search
    (McKay-Piperno, *Practical graph isomorphism II*, 2014).  A vertex
    starts with its loop count and the multiset of its leg marks as colour,
    and colours are refined by the multiset of neighbour colours, loops and
    parallel edges counted with multiplicity, until no class splits.  While
    a class holds several vertices, each in turn is given a colour of its
    own and the search recurses.  Of twins, vertices with the same start
    colour and the same number of edges to every other vertex, only one is
    tried: swapping them is an automorphism, so their subtrees give the
    same certificates.  With ``leg_marks`` the isomorphisms are required to
    preserve the marking; unmarked legs at the same vertex are
    interchangeable; only ``None`` means no marks, and anything else that is
    not a mapping, or a mapping with a key that is not a leg, is refused.
    Graphs with more than ``CANONICAL_CAP`` vertices are refused.

    Colours are the ranks 0..k-1 of the k classes throughout.  The search
    visits the same leaves, with the same certificates, as one that starts
    from the (loop count, marks) tuples, runs a refinement round on every
    colouring, discrete ones included, and individualises v in cell t by
    giving it 2t and every other w 2·colour(w) + 1:

    - A refinement round ranks the pairs (colour, sorted neighbour
      colours).  A strictly increasing relabelling of the colours keeps the
      order and the equalities of these pairs, so the round returns the
      same ranks on the start tuples as on their ranks.
    - Individualising v in cell t gives v rank t, the rest of its cell
      t + 1 and each later class one more: the ranks of the 2t, 2c + 1
      colouring, so again the next round returns the same ranks.
    - On a discrete colouring the pairs are ordered by their first entry,
      so a round would return the colouring's own ranks; the certificate is
      read off them at once.
    - Twins are tested when a cell is split, on two vertices of that cell,
      which refines the start colouring, so they have one start colour.
      What is left to test is the neighbour multiset once u and v are left
      out, which counts the edges from u and from v to every other vertex.
    """
    nv = len(g.vertices)
    if nv > CANONICAL_CAP:
        raise CapacityError(
            "graphs.capacity", f"{nv} vertices exceed canonical-form cap {CANONICAL_CAP}"
        )
    marks = {} if leg_marks is None else _as_mapping(leg_marks, "leg marks")
    stray = set(marks).difference(g.legs)
    if stray:
        raise ValidationError(
            "graphs.bad_graph", f"leg marks {sorted(map(repr, stray))} are not legs of the graph"
        )
    index = dict(zip(g.vertices, range(nv)))
    at = g.attach_map
    edges = [(index[at[a]], index[at[b]]) for a, b in g.pairing]
    legs = [(index[at[h]], repr(marks.get(h))) for h in g.legs]
    neighbours: list[list[int]] = [[] for _ in range(nv)]
    marks_at: list[list[str]] = [[] for _ in range(nv)]
    loops = [0] * nv
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
        loops[i] += i == j
    for v, mark in legs:
        marks_at[v].append(mark)
    start = [(loops[v], tuple(sorted(marks_at[v]))) for v in range(nv)]
    rank = {s: r for r, s in enumerate(sorted(set(start)))}
    start = [rank[s] for s in start]

    def twins(u, v):  # of one cell, so of one start colour
        return sorted([w for w in neighbours[u] if w != u and w != v]) == sorted(
            [w for w in neighbours[v] if w != u and w != v]
        )

    best = None

    def search(colour, classes):
        nonlocal best
        while classes < nv:  # refine until no class splits
            sig = [(c, tuple(sorted([colour[w] for w in nb]))) for c, nb in zip(colour, neighbours)]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            colour = [rank[s] for s in sig]
            if len(rank) == classes:
                break
            classes = len(rank)
        if classes == nv:
            c = colour
            cert = (
                tuple(sorted([(c[i], c[j]) if c[i] <= c[j] else (c[j], c[i]) for i, j in edges])),
                tuple(sorted([(c[v], mark) for v, mark in legs])),
            )
            if best is None or cert < best:
                best = cert
            return
        sizes = [0] * classes
        for c in colour:
            sizes[c] += 1
        target = min((n, c) for c, n in enumerate(sizes) if n > 1)[1]
        tried: list[int] = []
        for v in range(nv):
            if colour[v] == target and not any(twins(u, v) for u in tried):
                tried.append(v)
                search(
                    [c + (c > target or (c == target and w != v)) for w, c in enumerate(colour)],
                    classes + 1,
                )

    search(start, len(rank))
    return (nv,) + best


# --- morphisms ---------------------------------------------------------------

IdentKey = tuple[str, str]  # (corolla id, leg label)


@dataclass(frozen=True)
class GraphMorphism:
    """A graph together with identifications of its cut and contracted forms.

    ``source_ident`` takes every (corolla id, leg) of the source to a
    half-edge of the graph, one source corolla onto each vertex;
    ``target_ident`` takes every (corolla id, leg) of the target to a leg of
    the graph, one target corolla onto each component.  Build it through
    :func:`make_morphism`.
    """

    source: tuple[Corolla, ...]
    target: tuple[Corolla, ...]
    graph: Graph
    source_ident: tuple[tuple[IdentKey, str], ...]
    target_ident: tuple[tuple[IdentKey, str], ...]

    @cached_property
    def source_map(self) -> dict[IdentKey, str]:
        return dict(self.source_ident)

    @cached_property
    def target_map(self) -> dict[IdentKey, str]:
        return dict(self.target_ident)


def _corolla_keys(corollas: Sequence[Corolla]) -> set[IdentKey]:
    ids = [c.id for c in corollas]
    if len(set(ids)) != len(ids):
        raise ValidationError("graphs.duplicate_corolla", f"repeated corolla ids in {ids}")
    return {(c.id, leg) for c in corollas for leg in c.legs}


def _carries(corollas: Sequence[Corolla], ident: Mapping[IdentKey, str], blocks) -> bool:
    """Whether ``ident`` maps the legs of the corollas onto the blocks, one
    corolla onto each block.  Images sort by ``str``, so images of mixed
    types sort too, and one that is not a half-edge string matches no block."""
    images = (tuple(sorted((ident[(c.id, leg)] for leg in c.legs), key=str)) for c in corollas)
    return Counter(images) == Counter(tuple(sorted(b)) for b in blocks)


def make_morphism(
    source: Sequence[Corolla],
    target: Sequence[Corolla],
    graph: Graph,
    source_ident: Mapping[IdentKey, str],
    target_ident: Mapping[IdentKey, str],
) -> GraphMorphism:
    """The morphism whose identifications carry the source onto
    :func:`cut_edges` of ``graph`` and the target onto :func:`contract_edges`
    (Getzler-Kapranov, *Modular operads*, 1998): the legs of the source
    (target) corollas map onto the half-edges of the vertices (the legs of
    the components), one corolla onto each, as multisets of blocks.  The
    blocks partition the half-edges (the legs), so this makes each
    identification a bijection and pairs leg-free corollas with degree-0
    vertices (leg-free components) by count.
    """
    source, target = tuple(source), tuple(target)
    keys = _corolla_keys(source), _corolla_keys(target)
    for side, ident, side_keys in zip(("source", "target"), (source_ident, target_ident), keys):
        if set(ident) != side_keys:
            raise ValidationError(
                "graphs.bad_ident", f"{side} identification keys do not match the {side} legs"
            )
    if not _carries(source, source_ident, graph.vertex_half_edges.values()):
        raise ValidationError(
            "graphs.bad_ident", "source corollas do not match the vertices of the graph"
        )
    if not _carries(target, target_ident, (c.legs for c in contract_edges(graph))):
        raise ValidationError(
            "graphs.bad_ident", "target corollas do not match the components of the graph"
        )
    return GraphMorphism(
        source,
        target,
        graph,
        tuple(sorted(source_ident.items())),
        tuple(sorted(target_ident.items())),
    )


def morphism_from_graph(g: Graph) -> GraphMorphism:
    """The tautological morphism of a graph: cut form -> contracted form."""
    target = contract_edges(g)
    src_ident = {(g.attach_map[h], _cut_leg(g, h)): h for h in g.half_edges}
    tgt_ident = {(c.id, leg): leg for c in target for leg in c.legs}
    return make_morphism(cut_edges(g), target, g, src_ident, tgt_ident)


def identity_morphism(corollas: Sequence[Corolla]) -> GraphMorphism:
    """The identity of a disjoint union of corollas (edge-free graph)."""
    corollas = tuple(corollas)
    _corolla_keys(corollas)
    vhe = {c.id: [f"{c.id}|{leg}" for leg in c.legs] for c in corollas}
    g = make_graph(vhe)
    ident = {(c.id, leg): f"{c.id}|{leg}" for c in corollas for leg in c.legs}
    return make_morphism(corollas, corollas, g, ident, ident)


def _boundary_matches(a: Sequence[Corolla], b: Sequence[Corolla]) -> bool:
    da = {c.id: tuple(sorted(c.legs)) for c in a}
    db = {c.id: tuple(sorted(c.legs)) for c in b}
    return da == db


def compose(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """Substitute ``inner.graph`` into the vertices of ``outer.graph``.

    Requires the target of ``inner`` to be the source of ``outer``.  The
    composite keeps the half-edges of the inner graph and adds one internal
    edge per internal edge of the outer graph, glued through the boundary
    identifications.
    """
    if not _boundary_matches(inner.target, outer.source):
        raise CompositionError(
            "graphs.composition",
            "target of inner morphism does not match source of outer morphism",
        )
    inv_outer_src = {h: key for key, h in outer.source_map.items()}
    new_edges = list(inner.graph.pairing)
    for a, b in outer.graph.pairing:
        p = inner.target_map[inv_outer_src[a]]
        r = inner.target_map[inv_outer_src[b]]
        new_edges.append(tuple(sorted((p, r))))
    composite = Graph(
        vertices=inner.graph.vertices,
        attach=inner.graph.attach,
        pairing=tuple(sorted(new_edges)),
    )
    tgt_ident = {}
    for key, y in outer.target_map.items():
        tgt_ident[key] = inner.target_map[inv_outer_src[y]]
    return make_morphism(
        inner.source, outer.target, composite, inner.source_map, tgt_ident
    )


def morphisms_equivalent(m1: GraphMorphism, m2: GraphMorphism) -> bool:
    """Equality of morphisms up to graph identification.

    The source identifications induce the only candidate bijection between
    the half-edge sets; the morphisms are equivalent iff it is a graph
    isomorphism commuting with the target identifications.
    """
    if not (
        _boundary_matches(m1.source, m2.source)
        and _boundary_matches(m1.target, m2.target)
    ):
        return False
    f = {m1.source_map[k]: m2.source_map[k] for k in m1.source_map}
    inv1, inv2 = m1.graph.involution, m2.graph.involution
    if any(f[inv1[h]] != inv2[f[h]] for h in f):
        return False
    vmap = {}
    for h, img in f.items():
        v = m1.graph.attach_map[h]
        w = m2.graph.attach_map[img]
        if vmap.setdefault(v, w) != w:
            return False
    if len(set(vmap.values())) != len(vmap):
        return False
    return all(f[m1.target_map[k]] == m2.target_map[k] for k in m1.target_map)


# --- text serialization -------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [
        "vertex {} : {}".format(v, " ".join(sorted(g.vertex_half_edges[v]))).rstrip()
        for v in g.vertices
    ]
    lines += [f"edge {a} {b}" for a, b in g.pairing]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    if not isinstance(text, str):
        raise ValidationError("graphs.parse", f"graph text must be a string, got {text!r}")
    vhe: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 3 or parts[2] != ":":
                raise ValidationError(
                    "graphs.parse", f"line {lineno}: expected 'vertex <name> : <half-edges>'"
                )
            v = parts[1]
            if v in vhe:
                raise ValidationError("graphs.parse", f"line {lineno}: vertex {v!r} repeated")
            vhe[v] = parts[3:]
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ValidationError(
                    "graphs.parse", f"line {lineno}: expected 'edge <half> <half>'"
                )
            edges.append((parts[1], parts[2]))
        else:
            raise ValidationError(
                "graphs.parse", f"line {lineno}: unknown directive {parts[0]!r}"
            )
    return make_graph(vhe, edges)
