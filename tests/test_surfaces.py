import math
import random

import pytest

import gvblocks as gv
from gvblocks.errors import CapacityError, MoveNotApplicable, ValidationError
from gvblocks.surfaces import _reassociate, enumerate_decompositions, make_surface

from conftest import enumerate_classes_reference, reference_key


def surfaces_up_to_complexity(max_c):
    out = []
    for g in range(0, max_c // 2 + 2):
        for n in range(0, max_c + 3):
            c = 2 * g - 2 + n
            if 1 <= c <= max_c:
                out.append((g, n))
    return out


def theta_pd():
    dual = gv.make_graph(
        {"u": ["a", "b", "c"], "v": ["d", "e", "f"]},
        [("a", "d"), ("b", "e"), ("c", "f")],
    )
    return gv.make_pants_decomposition(dual, {})


def dumbbell_pd():
    dual = gv.make_graph(
        {"u": ["a", "b", "c"], "v": ["d", "e", "f"]},
        [("a", "b"), ("c", "d"), ("e", "f")],
    )
    return gv.make_pants_decomposition(dual, {})


class TestSurfaceSpec:
    def test_examples(self):
        assert make_surface(2).n == 0
        assert make_surface(0, [(1,), (2,), (0,)]).complexity == 1
        assert make_surface(1, [(0,)]).complexity == 1

    def test_negative_genus(self):
        with pytest.raises(ValidationError):
            make_surface(-1)


class TestMakePantsDecomposition:
    def test_theta(self):
        pd = theta_pd()
        assert pd.genus == 2 and pd.n == 0

    def test_loop_plus_leg(self):
        dual = gv.make_graph({"v": ["p", "q", "r"]}, [("p", "q")])
        pd = gv.make_pants_decomposition(dual, {"r": 0})
        assert pd.genus == 1 and pd.n == 1

    def test_dumbbell(self):
        assert dumbbell_pd().genus == 2

    def test_not_trivalent(self):
        dual = gv.make_graph({"v": ["p", "q"]}, [("p", "q")])
        with pytest.raises(ValidationError) as e:
            gv.make_pants_decomposition(dual, {})
        assert e.value.code == "surfaces.not_trivalent"

    def test_disconnected(self):
        dual = gv.make_graph(
            {"u": ["a", "b", "c"], "v": ["d", "e", "f"]}, [("a", "b"), ("d", "e")]
        )
        with pytest.raises(ValidationError) as e:
            gv.make_pants_decomposition(dual, {"c": 0, "f": 1})
        assert e.value.code == "surfaces.disconnected"

    def test_bad_leg_order(self):
        dual = gv.corolla_graph(gv.new_corolla(["a", "b", "c"]))
        with pytest.raises(ValidationError):
            gv.make_pants_decomposition(dual, {"a": 0, "b": 0, "c": 2})

    def test_leg_order_that_is_not_a_mapping(self):
        dual = gv.corolla_graph(gv.new_corolla(["a", "b", "c"]))
        for leg_order in (5, [("a", 0), ("b", 1), ("c", 2)]):
            with pytest.raises(ValidationError) as e:
                gv.make_pants_decomposition(dual, leg_order)
            assert e.value.code == "surfaces.bad_leg_order"


class TestEnumeration:
    def test_closed_genus_two(self):
        pds = enumerate_decompositions(make_surface(2))
        assert len(pds) == 2
        keys = {pd.canonical_key for pd in pds}
        assert theta_pd().canonical_key in keys
        assert dumbbell_pd().canonical_key in keys

    def test_one_holed_torus(self):
        pds = enumerate_decompositions(make_surface(1, [(0,)]))
        assert len(pds) == 1

    def test_pair_of_pants(self):
        pds = enumerate_decompositions(make_surface(0, [(0,), (0,), (0,)]))
        assert len(pds) == 1
        assert len(pds[0].dual.pairing) == 0

    def test_closed_counts(self):
        for g in (2, 3):
            for pd in enumerate_decompositions(make_surface(g)):
                assert len(pd.dual.vertices) == 2 * g - 2
                assert len(pd.dual.pairing) == 3 * g - 3

    def test_duplicate_free(self):
        for g, n in surfaces_up_to_complexity(5):
            pds = enumerate_decompositions(make_surface(g, [(0,)] * n))
            keys = [pd.canonical_key for pd in pds]
            assert len(keys) == len(set(keys))

    def test_matches_reference_enumeration(self):
        # complexity 5 only for g >= 2: the reference takes minutes at (0, 7)
        cases = surfaces_up_to_complexity(4) + [(2, 3), (3, 1)]
        for g, n in cases:
            pds = enumerate_decompositions(make_surface(g, [(0,)] * n))
            ref = enumerate_classes_reference(g, n)
            assert len(pds) == len(ref)
            assert {reference_key(pd) for pd in pds} == {reference_key(pd) for pd in ref}

    def test_canonical_key_partition_matches_reference(self):
        # enumerated classes and all their flips, from both enumerators
        for g, n in surfaces_up_to_complexity(4):
            pds = list(enumerate_decompositions(make_surface(g, [(0,)] * n)))
            pds += enumerate_classes_reference(g, n)
            pds += [
                gv.make_pants_decomposition(_reassociate(pd, a, side)[1], pd.leg_map)
                for pd in list(pds)
                for a, b in pd.dual.pairing
                if pd.dual.attach_map[a] != pd.dual.attach_map[b]
                for side in (0, 1)
            ]
            new, ref = {}, {}
            for i, pd in enumerate(pds):
                new.setdefault(pd.canonical_key, set()).add(i)
                ref.setdefault(reference_key(pd), set()).add(i)
            assert sorted(map(sorted, new.values())) == sorted(map(sorted, ref.values()))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_genus_zero_double_factorial(self, n):
        pds = enumerate_decompositions(make_surface(0, [(0,)] * n))
        assert len(pds) == math.prod(range(2 * n - 5, 0, -2))

    def test_complexity_five_counts(self):
        counts = {
            (g, n): len(enumerate_decompositions(make_surface(g, [(0,)] * n)))
            for g, n in [(0, 7), (1, 5), (2, 3), (3, 1)]
        }
        assert counts == {(0, 7): 945, (1, 5): 297, (2, 3): 58, (3, 1): 12}

    def test_key_invariant_under_renaming(self):
        rng = random.Random(5)
        for g, n in surfaces_up_to_complexity(5):
            for pd in enumerate_decompositions(make_surface(g, [(0,)] * n)):
                dual = pd.dual
                vnames = list(dual.vertices)
                hnames = list(dual.half_edges)
                rng.shuffle(vnames)
                rng.shuffle(hnames)
                vmap = dict(zip(dual.vertices, vnames))
                hmap = dict(zip(dual.half_edges, hnames))
                renamed = gv.make_graph(
                    {vmap[v]: [hmap[h] for h in hs] for v, hs in dual.vertex_half_edges.items()},
                    [(hmap[a], hmap[b]) for a, b in dual.pairing],
                )
                leg_order = {hmap[h]: i for h, i in pd.leg_map.items()}
                out = gv.make_pants_decomposition(renamed, leg_order)
                assert out.canonical_key == pd.canonical_key

    def test_both_reassociations_stay_in_classes(self):
        for g, n in surfaces_up_to_complexity(5):
            pds = enumerate_decompositions(make_surface(g, [(0,)] * n))
            keys = {pd.canonical_key for pd in pds}
            for pd in pds:
                for a, b in pd.dual.pairing:
                    if pd.dual.attach_map[a] == pd.dual.attach_map[b]:
                        continue
                    for side in (0, 1):
                        out = gv.make_pants_decomposition(
                            _reassociate(pd, a, side)[1], pd.leg_map
                        )
                        assert out.canonical_key in keys

    def test_out_of_range(self):
        with pytest.raises(CapacityError):
            enumerate_decompositions(make_surface(0, [(0,), (0,)]))
        with pytest.raises(CapacityError):
            enumerate_decompositions(make_surface(4))
        with pytest.raises(CapacityError):
            enumerate_decompositions(make_surface(0, [(0,)] * 8))


class TestMoves:
    def test_whitehead_theta_self_paired(self):
        pd = theta_pd()
        for a, _ in pd.dual.pairing:
            out = gv.whitehead_move(pd, a)
            assert out.canonical_key == pd.canonical_key
            assert out.moves[-1].startswith("F:")

    def test_whitehead_four_leg_tree_reassociates(self):
        dual = gv.make_graph(
            {"u": ["l1", "l2", "x"], "v": ["l3", "l4", "y"]}, [("x", "y")]
        )
        pd = gv.make_pants_decomposition(dual, {"l1": 0, "l2": 1, "l3": 2, "l4": 3})
        out = gv.whitehead_move(pd, "x")
        assert out.genus == 0 and out.n == 4
        # marked canonical forms differ: the pairing of boundary indices changed
        assert out.canonical_key != pd.canonical_key
        legs_at = {}
        for h, v in out.dual.attach:
            if h in out.leg_map:
                legs_at.setdefault(v, set()).add(out.leg_map[h])
        assert sorted(map(sorted, legs_at.values())) == [[0, 3], [1, 2]]

    def test_whitehead_loop_rejected(self):
        pd = dumbbell_pd()
        loops = [a for a, b in pd.dual.pairing if pd.dual.attach_map[a] == pd.dual.attach_map[b]]
        with pytest.raises(MoveNotApplicable):
            gv.whitehead_move(pd, loops[0])

    def test_s_move_on_loop(self):
        dual = gv.make_graph({"v": ["p", "q", "r"]}, [("p", "q")])
        pd = gv.make_pants_decomposition(dual, {"r": 0})
        out = gv.s_move(pd, "p")
        assert out.canonical_key == pd.canonical_key
        assert out.moves == ("S:p-q",)

    def test_s_move_dumbbell(self):
        pd = dumbbell_pd()
        loops = [a for a, b in pd.dual.pairing if pd.dual.attach_map[a] == pd.dual.attach_map[b]]
        out = gv.s_move(pd, loops[0])
        assert out.canonical_key == pd.canonical_key

    def test_s_move_non_loop_rejected(self):
        with pytest.raises(MoveNotApplicable):
            gv.s_move(theta_pd(), "a")

    def test_unknown_edge_refused(self):
        with pytest.raises(ValidationError) as e:
            gv.whitehead_move(theta_pd(), "nope")
        assert e.value.code == "surfaces.unknown_edge"

    def test_moves_preserve_surface_on_all_enumerated(self):
        for g, n in surfaces_up_to_complexity(5):
            for pd in enumerate_decompositions(make_surface(g, [(0,)] * n)):
                for a, b in pd.dual.pairing:
                    if pd.dual.attach_map[a] == pd.dual.attach_map[b]:
                        out = gv.s_move(pd, a)
                    else:
                        out = gv.whitehead_move(pd, a)
                    assert (out.genus, out.n) == (g, n)
