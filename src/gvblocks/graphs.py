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
    for v, halves in _as_mapping(vertex_half_edges, "vertex half-edges").items():
        for h in _as_items(halves, "graphs.bad_graph", f"half-edges of vertex {v!r}"):
            h = str(h)
            if h in attach:
                raise ValidationError(
                    "graphs.duplicate_half_edge", f"half-edge {h!r} attached twice"
                )
            attach[h] = str(v)
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
        vertices=tuple(sorted(str(v) for v in vertex_half_edges)),
        attach=tuple(sorted(attach.items())),
        pairing=tuple(sorted(pairing)),
    )


def corolla_graph(c: Corolla) -> Graph:
    """The one-vertex graph of a corolla (all half-edges are legs)."""
    return make_graph({c.id: c.legs})


def cut_edges(g: Graph) -> tuple[Corolla, ...]:
    """Cut all internal edges: one corolla per vertex.

    Each cut half keeps its identity through the derived leg label
    ``"h:<half-edge>"``; original legs keep their labels.  The total leg
    count of the output equals the number of half-edges of ``g``.
    """
    paired = {h for pair in g.pairing for h in pair}
    out = []
    for v in g.vertices:
        legs = tuple(
            h if h not in paired else CUT_PREFIX + h
            for h in sorted(g.vertex_half_edges[v])
        )
        out.append(new_corolla(legs, id=v))
    return tuple(out)


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
    interchangeable.  Graphs with more than ``CANONICAL_CAP`` vertices are
    refused.
    """
    nv = len(g.vertices)
    if nv > CANONICAL_CAP:
        raise CapacityError(
            "graphs.capacity", f"{nv} vertices exceed canonical-form cap {CANONICAL_CAP}"
        )
    marks = _as_mapping(leg_marks or {}, "leg marks")
    index = {v: i for i, v in enumerate(g.vertices)}
    at = g.attach_map
    edges = [(index[at[a]], index[at[b]]) for a, b in g.pairing]
    legs = [(index[at[h]], repr(marks.get(h))) for h in g.legs]
    neighbours: list[list[int]] = [[] for _ in range(nv)]
    marks_at: list[list[str]] = [[] for _ in range(nv)]
    mult = [[0] * nv for _ in range(nv)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
        mult[i][j] += 1
        mult[j][i] += i != j
    for v, mark in legs:
        marks_at[v].append(mark)
    start = [(mult[v][v], tuple(sorted(marks_at[v]))) for v in range(nv)]

    def twins(u, v):
        return start[u] == start[v] and all(
            mult[u][w] == mult[v][w] for w in range(nv) if w != u and w != v
        )

    best = None

    def search(colour):
        nonlocal best
        classes = len(set(colour))
        while True:  # refine until no class splits; ranks 0, 1, ... as colours
            sig = [
                (c, tuple(sorted([colour[w] for w in neighbours[v]])))
                for v, c in enumerate(colour)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            colour = [rank[s] for s in sig]
            if len(rank) in (classes, nv):
                break
            classes = len(rank)
        if len(rank) == nv:
            cert = (
                tuple(sorted(tuple(sorted((colour[i], colour[j]))) for i, j in edges)),
                tuple(sorted([(colour[v], mark) for v, mark in legs])),
            )
            if best is None or cert < best:
                best = cert
            return
        target = min((n, c) for c, n in Counter(colour).items() if n > 1)[1]
        tried: list[int] = []
        for v in range(nv):
            if colour[v] == target and not any(twins(u, v) for u in tried):
                tried.append(v)
                search([2 * c + (w != v) for w, c in enumerate(colour)])

    search(start)
    return (nv,) + best


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# --- morphisms ---------------------------------------------------------------

IdentKey = tuple[str, str]  # (corolla id, leg label)


@dataclass(frozen=True)
class GraphMorphism:
    """A graph together with identifications of its cut and contracted forms.

    ``source_ident`` matches every (corolla id, leg) of the source with a
    half-edge of the graph (bijectively, compatible with attachment);
    ``target_ident`` matches every (corolla id, leg) of the target with a
    leg of the graph, one component per target corolla.
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


def make_morphism(
    source: Sequence[Corolla],
    target: Sequence[Corolla],
    graph: Graph,
    source_ident: Mapping[IdentKey, str],
    target_ident: Mapping[IdentKey, str],
) -> GraphMorphism:
    """Validate the identification bijections and build the morphism."""
    source = tuple(source)
    target = tuple(target)
    src_keys = _corolla_keys(source)
    tgt_keys = _corolla_keys(target)
    if set(source_ident) != src_keys:
        raise ValidationError(
            "graphs.bad_ident", "source identification keys do not match the source legs"
        )
    if sorted(source_ident.values()) != sorted(graph.half_edges):
        raise ValidationError(
            "graphs.bad_ident",
            "source identification is not a bijection onto the half-edges",
        )
    if set(target_ident) != tgt_keys:
        raise ValidationError(
            "graphs.bad_ident", "target identification keys do not match the target legs"
        )
    if sorted(target_ident.values()) != sorted(graph.legs):
        raise ValidationError(
            "graphs.bad_ident", "target identification is not a bijection onto the legs"
        )
    # each source corolla occupies exactly one vertex; leg-free corollas
    # pair off with the degree-0 vertices by count
    vertex_of: dict[str, str] = {}
    for c in source:
        if not c.legs:
            continue
        vs = {graph.attach_map[source_ident[(c.id, leg)]] for leg in c.legs}
        if len(vs) != 1:
            raise ValidationError(
                "graphs.bad_ident", f"legs of source corolla {c.id!r} span vertices {sorted(vs)}"
            )
        vertex_of[c.id] = vs.pop()
        if graph.degree(vertex_of[c.id]) != c.arity:
            raise ValidationError(
                "graphs.bad_ident",
                f"source corolla {c.id!r} has arity {c.arity}, vertex degree "
                f"{graph.degree(vertex_of[c.id])}",
            )
    free_sources = sum(1 for c in source if not c.legs)
    free_vertices = sum(1 for v in graph.vertices if graph.degree(v) == 0)
    if (
        len(set(vertex_of.values())) != len(vertex_of)
        or free_sources != free_vertices
        or len(vertex_of) + free_vertices != len(graph.vertices)
    ):
        raise ValidationError(
            "graphs.bad_ident", "source corollas do not hit every vertex exactly once"
        )
    # each target corolla occupies exactly one component and all of its legs
    comp_index = {comp: i for i, comp in enumerate(graph.components)}
    comp_of_vertex = {v: comp for comp in graph.components for v in comp}
    comp_legs: dict[tuple[str, ...], set[str]] = {c: set() for c in graph.components}
    for h in graph.legs:
        comp_legs[comp_of_vertex[graph.attach_map[h]]].add(h)
    seen_comps = set()
    for c in target:
        comps = {comp_of_vertex[graph.attach_map[target_ident[(c.id, leg)]]] for leg in c.legs}
        if len(comps) > 1:
            raise ValidationError(
                "graphs.bad_ident", f"legs of target corolla {c.id!r} span several components"
            )
        if comps:
            comp = comps.pop()
            if {target_ident[(c.id, leg)] for leg in c.legs} != comp_legs[comp]:
                raise ValidationError(
                    "graphs.bad_ident",
                    f"target corolla {c.id!r} does not cover all legs of its component",
                )
            seen_comps.add(comp_index[comp])
    # leg-free target corollas absorb the leg-free components, count must fit
    free_targets = sum(1 for c in target if not c.legs)
    free_comps = sum(1 for comp in graph.components if not comp_legs[comp])
    if free_targets != free_comps or len(seen_comps) + free_comps != len(graph.components):
        raise ValidationError(
            "graphs.bad_ident",
            f"target has {len(target)} corollas but the graph has "
            f"{len(graph.components)} components",
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
    source = cut_edges(g)
    target = contract_edges(g)
    paired = {h for pair in g.pairing for h in pair}
    src_ident = {}
    for c in source:
        at_vertex = set(g.vertex_half_edges[c.id])
        for leg in c.legs:
            stripped = leg[len(CUT_PREFIX):]
            if leg.startswith(CUT_PREFIX) and stripped in at_vertex and stripped in paired:
                src_ident[(c.id, leg)] = stripped
            else:
                src_ident[(c.id, leg)] = leg
    tgt_ident = {(c.id, leg): leg for c in target for leg in c.legs}
    return make_morphism(source, target, g, src_ident, tgt_ident)


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
