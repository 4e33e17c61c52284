import random
from collections import Counter

import pytest

import gvblocks as gv
from gvblocks.errors import CapacityError, CompositionError, ValidationError

from conftest import (
    attach_morphism,
    canonical_form_reference,
    random_graph,
    random_leg_pairing,
)


def theta_graph():
    return gv.make_graph(
        {"u": ["a", "b", "c"], "v": ["d", "e", "f"]},
        [("a", "d"), ("b", "e"), ("c", "f")],
    )


def dumbbell_graph():
    return gv.make_graph(
        {"u": ["a", "b", "c"], "v": ["d", "e", "f"]},
        [("a", "b"), ("c", "d"), ("e", "f")],
    )


def loop_with_leg():
    return gv.make_graph({"v": ["p", "q", "r"]}, [("p", "q")])


class TestCorolla:
    def test_basic(self):
        c = gv.new_corolla(["a", "b", "c"])
        assert c.legs == ("a", "b", "c")

    def test_empty(self):
        assert gv.new_corolla([]).legs == ()

    def test_duplicate(self):
        with pytest.raises(ValidationError) as e:
            gv.new_corolla(["a", "a"])
        assert e.value.code == "graphs.duplicate_leg"


class TestMakeGraph:
    def test_half_edge_on_two_vertices(self):
        with pytest.raises(ValidationError) as e:
            gv.make_graph({"u": ["a"], "v": ["a"]})
        assert e.value.code == "graphs.duplicate_half_edge"

    def test_half_edge_glued_twice(self):
        with pytest.raises(ValidationError, match="glued twice") as e:
            gv.make_graph({"u": ["a", "b", "c"]}, [("a", "b"), ("b", "c")])
        assert e.value.code == "graphs.bad_edge"

    def test_vertex_names_colliding_after_str_refused(self):
        # 1 and "1" would both become vertex "1", holding the half-edges of both
        with pytest.raises(ValidationError, match="two vertices are named '1'") as e:
            gv.make_graph({1: ["a"], "1": ["b"]})
        assert e.value.code == "graphs.bad_graph"
        assert gv.make_graph({1: ["a"], "2": ["b"]}).vertices == ("1", "2")


class TestCodedRefusals:
    # a scalar where a container belongs is refused with a code, not a
    # bare AttributeError or TypeError from reading it
    @pytest.mark.parametrize(
        "code, call",
        [
            ("graphs.bad_graph", lambda: gv.make_graph(5)),
            ("graphs.bad_graph", lambda: gv.make_graph({"v": 5})),
            ("graphs.bad_graph", lambda: gv.new_corolla(5)),
            ("graphs.bad_graph", lambda: gv.canonical_form(loop_with_leg(), leg_marks=5)),
            ("graphs.bad_edge", lambda: gv.make_graph({"v": ["a", "b"]}, 5)),
            ("graphs.bad_edge", lambda: gv.make_graph({"v": ["a", "b"]}, [("a",)])),
            ("graphs.parse", lambda: gv.graph_from_text(5)),
            ("graphs.bad_graph", lambda: gv.new_corolla("abc")),
            ("graphs.bad_graph", lambda: gv.make_graph({"v": "ab"}, ["ab"])),
            # only None means no marks; a falsy non-mapping is refused like 5
            ("graphs.bad_graph", lambda: gv.canonical_form(loop_with_leg(), leg_marks=0)),
            ("graphs.bad_graph", lambda: gv.canonical_form(loop_with_leg(), leg_marks=[])),
            ("graphs.bad_graph", lambda: gv.canonical_form(loop_with_leg(), leg_marks="")),
            # a mark on a key that is not a leg would be dropped without notice
            ("graphs.bad_graph", lambda: gv.canonical_form(
                gv.make_graph({"u": ["1", "2", "x"], "v": ["3", "4", "y"]}, [("x", "y")]),
                leg_marks={1: 0, 3: 0, 2: 1, 4: 1})),
            ("graphs.bad_graph", lambda: gv.canonical_form(loop_with_leg(), leg_marks={"zz": 5})),
        ],
        ids=["make_graph", "make_graph_halves", "new_corolla", "canonical_form_marks",
             "make_graph_edges", "make_graph_edge_pair", "graph_from_text", "new_corolla_str",
             "make_graph_halves_str", "canonical_form_marks_0", "canonical_form_marks_list",
             "canonical_form_marks_str", "canonical_form_marks_int_keys",
             "canonical_form_marks_unknown_leg"],
    )
    def test_refused_with_code(self, code, call):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == code


class TestCutContract:
    def test_edge_between_two_vertices(self):
        g = gv.make_graph({"u": ["a", "b", "x"], "v": ["c", "d", "y"]}, [("x", "y")])
        cut = gv.cut_edges(g)
        assert [(c.id, c.legs) for c in cut] == [
            ("u", ("a", "b", "h:x")),
            ("v", ("c", "d", "h:y")),
        ]
        con = gv.contract_edges(g)
        assert [(c.id, c.legs) for c in con] == [("u", ("a", "b", "c", "d"))]

    def test_loop_and_leg(self):
        g = loop_with_leg()
        cut = gv.cut_edges(g)
        assert [(c.id, c.legs) for c in cut] == [("v", ("h:p", "h:q", "r"))]
        con = gv.contract_edges(g)
        assert [(c.id, c.legs) for c in con] == [("v", ("r",))]

    def test_corolla_is_fixed_point(self):
        c = gv.new_corolla(["x", "y", "z"], id="w")
        g = gv.corolla_graph(c)
        assert gv.cut_edges(g) == (c,)
        assert gv.contract_edges(g) == (c,)

    def test_disjoint_corollas(self):
        g = gv.make_graph({"a": ["l1"], "b": ["l2", "l3"]})
        assert [(c.id, c.legs) for c in gv.contract_edges(g)] == [
            ("a", ("l1",)),
            ("b", ("l2", "l3")),
        ]

    def test_leg_count_bookkeeping_random(self):
        rng = random.Random(5)
        for _ in range(220):
            g = random_graph(rng)
            nu_legs = sum(c.arity for c in gv.cut_edges(g))
            pi_legs = sum(c.arity for c in gv.contract_edges(g))
            assert nu_legs == len(g.half_edges)
            assert pi_legs == nu_legs - 2 * len(g.pairing)


class TestGenus:
    def test_theta(self):
        assert gv.genus(theta_graph()) == {"u": 2}

    def test_loop(self):
        assert gv.genus(loop_with_leg()) == {"v": 1}

    def test_forest(self):
        g = gv.make_graph({"a": ["x"], "b": ["y", "z"], "c": []}, [("x", "y")])
        assert gv.genus(g) == {"a": 0, "c": 0}

    def test_additive_under_disjoint_union_and_relabeling(self):
        rng = random.Random(17)
        for _ in range(40):
            g1 = random_graph(rng, max_vertices=4)
            vhe = {f"L{v}": [f"L{h}" for h in g1.vertex_half_edges[v]] for v in g1.vertices}
            vhe.update(
                {f"R{v}": [f"R{h}" for h in g1.vertex_half_edges[v]] for v in g1.vertices}
            )
            edges = [(f"L{a}", f"L{b}") for a, b in g1.pairing]
            edges += [(f"R{a}", f"R{b}") for a, b in g1.pairing]
            both = gv.make_graph(vhe, edges)
            assert gv.total_genus(both) == 2 * gv.total_genus(g1)


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        g1 = theta_graph()
        g2 = gv.make_graph(
            {"x": ["p1", "p2", "p3"], "y": ["q1", "q2", "q3"]},
            [("p1", "q2"), ("p2", "q3"), ("p3", "q1")],
        )
        assert gv.canonical_form(g1) == gv.canonical_form(g2)

    def test_theta_vs_dumbbell(self):
        assert gv.canonical_form(theta_graph()) != gv.canonical_form(dumbbell_graph())

    def test_marks_distinguish(self):
        g = gv.make_graph({"u": ["a", "x"], "v": ["b", "y"]}, [("x", "y")])
        k1 = gv.canonical_form(g, leg_marks={"a": 0, "b": 1})
        k2 = gv.canonical_form(g, leg_marks={"a": 1, "b": 0})
        assert k1 == k2  # swapping vertices is an isomorphism
        g3 = gv.make_graph({"u": ["a", "b", "x"], "v": ["y"]}, [("x", "y")])
        k3 = gv.canonical_form(g3, leg_marks={"a": 0, "b": 1})
        k4 = gv.canonical_form(g3, leg_marks={"a": 1, "b": 0})
        assert k3 == k4  # marks at the same vertex are interchangeable
        g5 = gv.make_graph({"u": ["a", "x"], "v": ["b", "c", "y"]}, [("x", "y")])
        k5 = gv.canonical_form(g5, leg_marks={"a": 0, "b": 1, "c": 2})
        k6 = gv.canonical_form(g5, leg_marks={"a": 1, "b": 0, "c": 2})
        assert k5 != k6  # mark 0 sits at a different-degree vertex now

    @pytest.mark.parametrize(
        "vhe, edges",
        [
            ({f"v{i}": [] for i in range(8)}, []),
            (
                {f"v{i}": [f"v{i}.{k}" for k in range(3)] for i in range(8)},
                [(f"v{i}.{k}", f"v{i + 1}.{k}") for i in range(0, 8, 2) for k in range(3)],
            ),
            (
                {f"v{i}": [f"v{i}.{b}" for b in range(3)] for i in range(8)},
                [(f"v{i}.{b}", f"v{i | 1 << b}.{b}") for i in range(8) for b in range(3)
                 if not i >> b & 1],
            ),
            (
                {f"v{i}": [f"v{i}.l", f"v{i}.r"] for i in range(7)},
                [(f"v{i}.r", f"v{(i + 1) % 3}.l") for i in range(3)]
                + [(f"v{i}.r", f"v{3 + (i - 2) % 4}.l") for i in range(3, 7)],
            ),
        ],
        ids=["isolated", "four_thetas", "cube", "triangle_and_square"],
    )
    def test_invariant_under_renaming_on_regular_graphs(self, vhe, edges):
        # every vertex has the same colour after refinement
        rng = random.Random(8)
        g = gv.make_graph(vhe, edges)
        key = gv.canonical_form(g)
        for _ in range(5):
            names = list(vhe)
            rng.shuffle(names)
            rename = dict(zip(vhe, names))
            shuffled = gv.make_graph({rename[v]: hs for v, hs in vhe.items()}, edges)
            assert gv.canonical_form(shuffled) == key

    def test_partition_matches_reference_on_random_graphs(self):
        rng = random.Random(31)
        pool = []
        for _ in range(80):
            g = random_graph(rng, max_vertices=5, max_degree=3)
            marks = {h: rng.randrange(2) for h in g.legs}
            pool.append((g, marks))
            vnames = list(g.vertices)
            rng.shuffle(vnames)
            rename = dict(zip(g.vertices, vnames))
            copy = gv.make_graph(
                {rename[v]: hs for v, hs in g.vertex_half_edges.items()}, g.pairing
            )
            pool.append((copy, marks))
        new, ref = {}, {}
        for i, (g, marks) in enumerate(pool):
            new.setdefault(gv.canonical_form(g, leg_marks=marks), set()).add(i)
            ref.setdefault(canonical_form_reference(g, marks), set()).add(i)
        assert sorted(map(sorted, new.values())) == sorted(map(sorted, ref.values()))
        assert len(new) < len(pool)

    def test_capacity(self):
        g = gv.make_graph({f"v{i}": [] for i in range(9)})
        with pytest.raises(CapacityError):
            gv.canonical_form(g)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng)
            assert gv.graph_from_text(gv.graph_to_text(g)) == g

    def test_comments_and_blanks(self):
        text = """
        # a theta graph
        vertex u : a b c
        vertex v : d e f   # its second vertex
        edge a d
        edge b e
        edge c f
        """
        assert gv.canonical_form(gv.graph_from_text(text)) == gv.canonical_form(theta_graph())

    @pytest.mark.parametrize(
        "bad",
        [
            "vertex u a b",  # missing colon
            "edge a",  # arity
            "vertex u : a\nvertex u : b",  # repeated vertex
            "frobnicate u : a",  # unknown directive
            "vertex u : a\nedge a a",  # self-pairing
            "vertex u : a\nedge a zz",  # unknown half-edge
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            gv.graph_from_text(bad)


class TestMorphisms:
    def test_identity_composition(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, max_vertices=4)
            m = gv.morphism_from_graph(g)
            left = gv.compose(m, gv.identity_morphism(m.source))
            right = gv.compose(gv.identity_morphism(m.target), m)
            assert gv.morphisms_equivalent(left, m)
            assert gv.morphisms_equivalent(right, m)

    def test_tree_into_tree_gives_path(self):
        inner_graph = gv.make_graph(
            {"p1": ["l1", "m"], "p2": ["m2", "l2"], "p3": ["l3", "l4"]},
            [("m", "m2")],
        )
        inner = gv.morphism_from_graph(inner_graph)
        outer = attach_morphism(inner.target, [(("p1", "l2"), ("p3", "l3"))])
        comp = gv.compose(outer, inner)
        expected = gv.make_graph(
            {"p1": ["l1", "m"], "p2": ["m2", "l2"], "p3": ["l3", "l4"]},
            [("m", "m2"), ("l2", "l3")],
        )
        assert comp.graph == expected
        assert len(comp.target) == 1
        assert comp.target[0].arity == sum(c.arity for c in outer.target)

    def test_loop_into_corolla_adds_genus(self):
        inner_graph = gv.make_graph({"w": ["p", "q", "r"]}, [("p", "q")])
        inner = gv.morphism_from_graph(inner_graph)
        outer = attach_morphism(inner.target, [])
        comp = gv.compose(outer, inner)
        assert gv.total_genus(comp.graph) == gv.total_genus(inner_graph)
        assert gv.total_genus(comp.graph) == 1

    def test_mismatched_boundary(self):
        inner = gv.morphism_from_graph(gv.make_graph({"a": ["x", "y"]}))
        other = gv.morphism_from_graph(gv.make_graph({"b": ["z"]}))
        with pytest.raises(CompositionError):
            gv.compose(other, inner)

    def test_compose_against_direct_substitution_oracle(self):
        rng = random.Random(99)
        for _ in range(120):
            g1 = random_graph(rng, max_vertices=5)
            inner = gv.morphism_from_graph(g1)
            pairs = random_leg_pairing(rng, inner.target)
            outer = attach_morphism(inner.target, pairs)
            comp = gv.compose(outer, inner)
            # direct substitution: the inner graph plus one new edge per pair
            glued = list(g1.pairing) + [
                tuple(sorted((l1, l2))) for (_, l1), (_, l2) in pairs
            ]
            expected = gv.Graph(
                vertices=g1.vertices,
                attach=g1.attach,
                pairing=tuple(sorted(glued)),
            )
            assert comp.graph == expected
            # boundary bookkeeping
            assert comp.source == inner.source
            assert {c.id for c in comp.target} == {c.id for c in outer.target}
            # genus is additive under vertex substitution
            assert gv.total_genus(comp.graph) == gv.total_genus(g1) + gv.total_genus(
                outer.graph
            )

    def test_associativity_random_triples(self):
        rng = random.Random(41)
        for _ in range(60):
            g1 = random_graph(rng, max_vertices=4)
            m1 = gv.morphism_from_graph(g1)
            m2 = attach_morphism(m1.target, random_leg_pairing(rng, m1.target, 2))
            m3 = attach_morphism(m2.target, random_leg_pairing(rng, m2.target, 2))
            left = gv.compose(m3, gv.compose(m2, m1))
            right = gv.compose(gv.compose(m3, m2), m1)
            assert gv.morphisms_equivalent(left, right)

    @staticmethod
    def _path():
        # u -b-c- v with legs a and d; corollas cu, cv on the vertices, t on the whole
        g = gv.make_graph({"u": ["a", "b"], "v": ["c", "d"]}, [("b", "c")])
        cu = gv.new_corolla(["x1", "x2"], id="cu")
        cv = gv.new_corolla(["y1", "y2"], id="cv")
        t = gv.new_corolla(["p", "q"], id="t")
        src = {("cu", "x1"): "a", ("cu", "x2"): "b", ("cv", "y1"): "c", ("cv", "y2"): "d"}
        return [cu, cv], [t], g, src, {("t", "p"): "a", ("t", "q"): "d"}

    def test_make_morphism_accepts_the_path(self):
        gv.make_morphism(*self._path())

    def test_other_edge_is_not_equivalent(self):
        source, target, g, src, tgt = self._path()
        m = gv.make_morphism(source, target, g, src, tgt)
        # the same half-edges glued a-c instead of b-c
        other = gv.make_graph({"u": ["a", "b"], "v": ["c", "d"]}, [("a", "c")])
        m2 = gv.make_morphism(source, target, other, src, {("t", "p"): "b", ("t", "q"): "d"})
        assert gv.morphisms_equivalent(m, m) and not gv.morphisms_equivalent(m, m2)

    def test_swapped_target_legs_are_not_equivalent(self):
        source, target, g, src, tgt = self._path()
        m = gv.make_morphism(source, target, g, src, tgt)
        m2 = gv.make_morphism(source, target, g, src, {("t", "p"): "d", ("t", "q"): "a"})
        assert not gv.morphisms_equivalent(m, m2)

    @staticmethod
    def _two_sources(vertex_half_edges):
        # corollas c1, c2 on half-edges a, b, built directly: make_morphism
        # puts every source corolla on a vertex of its own
        c1, c2 = gv.new_corolla(["x"], id="c1"), gv.new_corolla(["y"], id="c2")
        t = gv.new_corolla(["p", "q"], id="t")
        return gv.GraphMorphism(
            (c1, c2),
            (t,),
            gv.make_graph(vertex_half_edges),
            ((("c1", "x"), "a"), (("c2", "y"), "b")),
            ((("t", "p"), "a"), (("t", "q"), "b")),
        )

    def test_vertex_map_must_be_a_bijection(self):
        shared = self._two_sources({"u": ["a", "b"]})
        apart = self._two_sources({"u": ["a"], "v": ["b"]})
        assert gv.morphisms_equivalent(shared, shared)
        assert gv.morphisms_equivalent(apart, apart)
        assert not gv.morphisms_equivalent(shared, apart)  # u goes to u and v
        assert not gv.morphisms_equivalent(apart, shared)  # u and v both go to u

    def test_make_morphism_duplicate_corolla(self):
        source, target, g, src, tgt = self._path()
        with pytest.raises(ValidationError) as e:
            gv.make_morphism(source, target + target, g, src, tgt)
        assert e.value.code == "graphs.duplicate_corolla"

    def test_make_morphism_bad_identifications(self):
        (cu, cv), (t,), g, src, tgt = self._path()
        t1, t2 = gv.new_corolla(["p"], id="t1"), gv.new_corolla(["q"], id="t2")
        t0, s = gv.new_corolla([], id="t0"), gv.new_corolla(["p", "q"], id="s")
        two_pieces = gv.make_graph({"u": ["a", "b"], "v": ["c", "d"]})
        u_of_three = gv.make_graph({"u": ["a", "b", "e"], "v": ["c", "d"]}, [("b", "c")])
        with_isolated = gv.make_graph({"u": ["a", "b"], "v": ["c", "d"], "w": []}, [("b", "c")])
        ce = gv.new_corolla(["z"], id="ce")
        source_keys = "source identification keys do not match the source legs"
        target_keys = "target identification keys do not match the target legs"
        vertices = "source corollas do not match the vertices of the graph"
        components = "target corollas do not match the components of the graph"
        cases = [
            (source_keys, g, [cu, cv], [t], {**src, ("cu", "x9"): "a"}, tgt),
            (vertices, g, [cu, cv], [t], {**src, ("cv", "y2"): "a"}, tgt),  # not a bijection
            (vertices, g, [cu, cv], [t], {**src, ("cu", "x2"): 1}, tgt),  # an image not a str
            (target_keys, g, [cu, cv], [t], src, {("t", "p"): "a"}),
            (components, g, [cu, cv], [t], src,  # not a bijection onto the legs
             {("t", "p"): "a", ("t", "q"): "b"}),
            (vertices, g, [cu, cv], [t],  # cu spans u and v
             {**src, ("cu", "x2"): "c", ("cv", "y1"): "b"}, tgt),
            (vertices, u_of_three, [cu, cv, ce],  # arity 2 on a vertex of degree 3
             [gv.new_corolla(["p", "q", "r"], id="t")], {**src, ("ce", "z"): "e"},
             {**tgt, ("t", "r"): "e"}),
            (vertices, with_isolated, [cu, cv], [t], src, tgt),  # w has no corolla
            (components, two_pieces, [cu, cv], [t, s], src,  # t spans both pieces
             {("t", "p"): "a", ("t", "q"): "c", ("s", "p"): "b", ("s", "q"): "d"}),
            (components, g, [cu, cv], [t1, t2], src,  # two corollas on one component
             {("t1", "p"): "a", ("t2", "q"): "d"}),
            (components, g, [cu, cv], [t, t0], src, tgt),  # 2 corollas, 1 component
        ]
        for message, graph, source, target, src_ident, tgt_ident in cases:
            with pytest.raises(ValidationError, match=message) as e:
                gv.make_morphism(source, target, graph, src_ident, tgt_ident)
            assert e.value.code == "graphs.bad_ident"

    def test_perturbed_identifications(self):
        # swapping two images inside one corolla keeps every block, so the
        # rule accepts it; every other perturbation moves an image off its
        # block or changes the number of corollas, so the rule refuses it
        rng = random.Random(17)
        verdicts = Counter()
        while sum(verdicts.values()) < 2000:
            m = gv.morphism_from_graph(random_graph(rng))
            sides = [[list(m.source), dict(m.source_map)], [list(m.target), dict(m.target_map)]]
            kind = rng.choice(["within", "across", "duplicate", "extra", "merge"])
            side = 1 if kind == "merge" else rng.randrange(2)
            corollas, ident = sides[side]
            keys = [[(c.id, leg) for leg in c.legs] for c in corollas]
            if kind == "within":
                blocks = [ks for ks in keys if len(ks) > 1]
                if not blocks:
                    continue
                a, b = rng.sample(rng.choice(blocks), 2)
                ident[a], ident[b] = ident[b], ident[a]
            elif kind == "across":  # from a corolla of two or more legs, so it
                # keeps an image on its own block (two one-leg corollas may trade)
                pairs = [(i, j) for i, ki in enumerate(keys) for j, kj in enumerate(keys)
                         if len(ki) > 1 and kj and i != j]
                if not pairs:
                    continue
                i, j = rng.choice(pairs)
                a, b = rng.choice(keys[i]), rng.choice(keys[j])
                ident[a], ident[b] = ident[b], ident[a]
            elif kind == "duplicate":
                flat = [k for ks in keys for k in ks]
                if len(flat) < 2:
                    continue
                a, b = rng.sample(flat, 2)
                ident[a] = ident[b]
            elif kind == "extra":
                corollas.append(gv.new_corolla([], id="extra"))
            else:  # merge two target corollas into the first
                if len(corollas) < 2:
                    continue
                i, j = sorted(rng.sample(range(len(corollas)), 2))
                c1, c2 = corollas[i], corollas.pop(j)
                corollas[i] = gv.new_corolla(c1.legs + c2.legs, id=c1.id)
                for leg in c2.legs:
                    ident[(c1.id, leg)] = ident.pop((c2.id, leg))
            (source, source_ident), (target, target_ident) = sides
            try:
                gv.make_morphism(source, target, m.graph, source_ident, target_ident)
                accepted = True
            except ValidationError as e:
                assert e.code == "graphs.bad_ident"
                accepted = False
            assert accepted == (kind == "within"), (kind, side, m.graph)
            verdicts[kind] += 1
        assert min(verdicts.values()) >= 200, verdicts

    def test_mismatched_boundaries_are_not_equivalent(self):
        m = gv.morphism_from_graph(theta_graph())
        assert not gv.morphisms_equivalent(m, gv.identity_morphism(m.source))

    def test_make_morphism_validation(self):
        g = gv.make_graph({"v": ["a", "b"]})
        src = (gv.new_corolla(["a", "b"], id="v"),)
        with pytest.raises(ValidationError):
            gv.make_morphism(src, src, g, {("v", "a"): "a"}, {("v", "a"): "a", ("v", "b"): "b"})
