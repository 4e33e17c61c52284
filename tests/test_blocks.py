import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gvblocks as gv
from gvblocks.errors import CapacityError, DegenerateDataError, ValidationError
from gvblocks.forms import _as_items, smith_normal_form
from gvblocks.surfaces import (
    SurfaceSpec,
    _enumerate_classes,
    _genus,
    enumerate_decompositions,
    make_pants_decomposition,
    make_surface,
)

from conftest import (
    det_reference,
    glued_dim_oracle,
    group_shapes,
    make_pointed,
    mat_mul_int,
    random_qform,
)

F = Fraction


def surfaces_up_to_complexity(max_c):
    out = []
    for g in range(0, max_c // 2 + 2):
        for n in range(0, max_c + 3):
            if 1 <= 2 * g - 2 + n <= max_c:
                out.append((g, n))
    return out


class TestDirectFormula:
    def test_feigin_fuchs_dimension_law(self, z8_ff):
        dims = [gv.block_dim_direct(z8_ff, make_surface(g)) for g in range(1, 6)]
        assert dims == [8, 0, 0, 0, 32768]

    def test_trivial_category(self, trivial_cat):
        for g in range(4):
            assert gv.block_dim_direct(trivial_cat, make_surface(g)) == 1

    def test_z3_genus_zero(self, z3):
        assert gv.block_dim_direct(z3, make_surface(0, [(1,), (2,)])) == 1
        assert gv.block_dim_direct(z3, make_surface(0, [(1,), (1,)])) == 0

    def test_genus_one_no_boundary_always_group_order(self):
        for C in [
            make_pointed([2], [[F(1, 4)]], (0,)),
            make_pointed([8], [[F(1, 16)]], (1,)),
            make_pointed([2, 2], [[0, F(1, 4)], [F(1, 4), 0]], (1, 0)),
        ]:
            assert gv.block_dim_direct(C, make_surface(1)) == C.group.order

    def test_bad_label(self, z3):
        with pytest.raises(ValidationError):
            gv.block_dim_direct(z3, make_surface(0, [(1, 0)]))

    @pytest.mark.parametrize("genus", [-1, 1.5, True])
    def test_directly_built_bad_genus_refused(self, semion, genus):
        # a SurfaceSpec built without make_surface is read like one built with it
        spec = gv.surfaces.SurfaceSpec(genus, ())
        for call in (gv.blocks.meets_condition, gv.block_dim_direct):
            with pytest.raises(ValidationError) as e:
                call(semion, spec)
            assert e.value.code == "surfaces.bad_genus"

    @pytest.mark.parametrize("labels", [5, "ab", {(0,): 1}])
    def test_directly_built_bad_labels_refused(self, semion, labels):
        spec = gv.surfaces.SurfaceSpec(1, labels)
        for call in (gv.blocks.meets_condition, gv.block_dim_direct):
            with pytest.raises(ValidationError) as e:
                call(semion, spec)
            assert e.value.code == "forms.bad_element"

    def test_directly_built_numpy_genus_is_exact(self):
        # 1024^7 = 2^70 does not wrap around in int64
        C = make_pointed([1024], [[F(1, 2048)]], (0,))
        spec = gv.surfaces.SurfaceSpec(np.int64(7), ())
        assert gv.block_dim_direct(C, spec) == 1024**7


class TestPantsMultiplicity:
    # the three-point space on the pair of pants: dimension 1 iff x + y + z = g0
    @staticmethod
    def pants(C, x, y, z):
        return gv.block_dim_direct(C, make_surface(0, (x, y, z)))

    def test_z3(self, z3):
        assert self.pants(z3, (1,), (1,), (1,)) == 1
        assert self.pants(z3, (1,), (1,), (0,)) == 0

    def test_z8_ff(self, z8_ff):
        assert self.pants(z8_ff, (1,), (1,), (0,)) == 1

    def test_unit_forced(self, semion, z8_ff, klein):
        for C in (semion, z8_ff, klein):
            z = C.group.zero
            assert self.pants(C, z, z, C.g0) == 1


class TestGluedFormula:
    def theta_pd(self):
        return enumerate_decompositions(make_surface(2))

    def test_theta_z3(self, z3):
        for pd in self.theta_pd():
            assert gv.block_dim_glued(z3, pd, []) == 9

    def test_theta_z8_ff(self, z8_ff):
        for pd in self.theta_pd():
            assert gv.block_dim_glued(z8_ff, pd, []) == 0

    def test_one_holed_torus(self, z3):
        (pd,) = enumerate_decompositions(make_surface(1, [(0,)]))
        assert gv.block_dim_glued(z3, pd, [(0,)]) == 3
        assert gv.block_dim_glued(z3, pd, [(1,)]) == 0

    def test_label_count_mismatch(self, z3):
        (pd,) = enumerate_decompositions(make_surface(1, [(0,)]))
        with pytest.raises(ValidationError):
            gv.block_dim_glued(z3, pd, [])

    def test_matches_brute_force_oracle(self, z3, z8_ff, klein):
        rng = random.Random(4)
        for C in (z3, z8_ff, klein):
            for g, n in [(1, 1), (2, 0), (0, 4), (1, 2)]:
                for pd in enumerate_decompositions(make_surface(g, [(0,)] * n)):
                    for _ in range(5):
                        labels = [
                            tuple(rng.randrange(f) for f in C.group.invariant_factors)
                            for _ in range(n)
                        ]
                        assert gv.block_dim_glued(C, pd, labels) == glued_dim_oracle(
                            C, pd, labels
                        )

    def test_gluing_equals_direct_sweep(self, semion, z3, z8_ff, klein):
        rng = random.Random(101)
        for C in (semion, z3, z8_ff, klein):
            factors = C.group.invariant_factors
            for g, n in surfaces_up_to_complexity(3):
                spec = make_surface(g, [(0,) * len(factors)] * n)
                pds = enumerate_decompositions(spec)
                n_tuples = min(20, C.group.order**n)
                seen = set()
                while len(seen) < n_tuples:
                    seen.add(
                        tuple(
                            tuple(rng.randrange(f) for f in factors) for _ in range(n)
                        )
                    )
                for labels in seen:
                    expected = gv.block_dim_direct(C, make_surface(g, labels))
                    for pd in pds:
                        assert gv.block_dim_glued(C, pd, list(labels)) == expected

    def test_gluing_equals_direct_large_groups(self):
        rng = random.Random(202)
        cats = [
            make_pointed([64], [[F(1, 128)]], (1,)),
            make_pointed([4096], [[F(3, 8192)]], (5,)),
            make_pointed([8, 8], [[F(1, 16), F(1, 8)], [F(1, 8), F(3, 16)]], (1, 3)),
        ]
        for C in cats:
            group = C.group
            for g, n in surfaces_up_to_complexity(5):
                pds = enumerate_decompositions(make_surface(g, [group.zero] * n))
                label_sets = [[]]
                if n:
                    # the last label is solved for, then pushed off the condition
                    head = [tuple(rng.randrange(f) for f in group.invariant_factors)
                            for _ in range(n - 1)]
                    total = group.scale(g - 1, C.g0)
                    for lab in head:
                        total = group.add(total, lab)
                    meets = head + [group.neg(total)]
                    misses = head + [group.add(group.neg(total), group.generator(0))]
                    label_sets = [meets, misses]
                    assert gv.block_dim_direct(C, make_surface(g, meets)) == group.order**g
                    assert gv.block_dim_direct(C, make_surface(g, misses)) == 0
                for labels in label_sets:
                    expected = gv.block_dim_direct(C, make_surface(g, labels))
                    for pd in pds:
                        assert gv.block_dim_glued(C, pd, labels) == expected

    def test_closed_genus_19_necklace(self, z3, z8_ff):
        # 36 vertices in a cycle, the edge of every other neighbouring pair doubled
        vhe = {f"v{i}": [f"v{i}.l", f"v{i}.r", f"v{i}.x"] for i in range(36)}
        edges = [(f"v{i}.r", f"v{(i + 1) % 36}.l") for i in range(36)]
        edges += [(f"v{i}.x", f"v{i + 1}.x") for i in range(0, 36, 2)]
        pd = make_pants_decomposition(gv.make_graph(vhe, edges), {})
        assert len(pd.dual.pairing) == 54 and pd.genus == 19
        cats = [
            z3,
            z8_ff,
            make_pointed([64], [[F(1, 128)]], (1,)),
            make_pointed([64], [[F(1, 128)]], (16,)),
        ]
        dims = [gv.block_dim_glued(C, pd, []) for C in cats]
        assert dims == [gv.block_dim_direct(C, make_surface(19)) for C in cats]
        assert dims == [3**19, 0, 0, 64**19]

    def test_two_loops_and_a_parallel_edge(self):
        # u - w1 = w2 - x - y with a loop at u and at y and the leg at x:
        # genus 3 with one boundary circle, outside any enumerated seed
        vhe = {
            "u": ["u.l", "u.m", "u.r"],
            "w1": ["w1.l", "w1.p", "w1.q"],
            "w2": ["w2.p", "w2.q", "w2.r"],
            "x": ["x.l", "x.r", "leg"],
            "y": ["y.l", "y.m", "y.r"],
        }
        edges = [("u.l", "u.m"), ("u.r", "w1.l"), ("w1.p", "w2.p"), ("w1.q", "w2.q"),
                 ("w2.r", "x.l"), ("x.r", "y.l"), ("y.m", "y.r")]
        pd = make_pants_decomposition(gv.make_graph(vhe, edges), {"leg": 0})
        assert (pd.genus, pd.n) == (3, 1)
        cats = [
            make_pointed([3], [[F(1, 3)]], (1,)),
            make_pointed([2, 2], [[0, F(1, 4)], [F(1, 4), 0]], (1, 0)),
            make_pointed([4], [[F(1, 8)]], (1,)),
        ]
        assert [C.g0 for C in cats] == [(2,), (0, 0), (2,)]  # 2 h0 = 0 on Z/2 x Z/2
        for C in cats:
            counts = [gv.block_dim_glued(C, pd, [lab]) for lab in C.group.elements]
            assert counts == [glued_dim_oracle(C, pd, [lab]) for lab in C.group.elements]
            assert sorted(counts) == [0] * (C.group.order - 1) + [C.group.order**3]


class TestGluingPath:
    """The glued count on the enumerated classes and on moved decompositions
    equals the direct formula and the brute-force oracle, and reaches it
    without a Smith normal form."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = []
        original = smith_normal_form

        def counted(mat):
            calls.append(len(mat))
            return original(mat)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "gvblocks" and (
                getattr(module, "smith_normal_form", None) is original
            ):
                monkeypatch.setattr(module, "smith_normal_form", counted)
        _enumerate_classes.cache_clear()  # enumeration runs under the counter too
        return calls

    def label_sets(self, rng, C, g, n):
        group = C.group
        out = [[tuple(rng.randrange(f) for f in group.invariant_factors) for _ in range(n)]
               for _ in range(3)]
        if n:  # one set on the condition, so that nonzero counts are compared too
            total = group.scale(g - 1, C.g0)
            for lab in out[0][:-1]:
                total = group.add(total, lab)
            out.append(out[0][:-1] + [group.neg(total)])
        return out

    def test_counter_sees_smith_forms(self, smith_calls):
        gv.discriminant_form(gv.make_lattice([[2, 1], [1, 2]], [0, 0]))
        assert smith_calls == [2]

    def test_enumerated_classes(self, smith_calls, z3, klein):
        rng = random.Random(10)
        for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 0), (0, 5), (2, 1)]:
            pds = enumerate_decompositions(make_surface(g, [(0,)] * n))
            for C in (z3, klein):
                for labels in self.label_sets(rng, C, g, n):
                    expected = gv.block_dim_direct(C, make_surface(g, labels))
                    for pd in pds:
                        assert gv.block_dim_glued(C, pd, labels) == expected
                        assert glued_dim_oracle(C, pd, labels) == expected
        assert smith_calls == []

    def test_moved_decompositions(self, smith_calls, z3, z8_ff):
        rng = random.Random(11)
        for g, n in [(1, 2), (2, 0), (0, 5), (1, 3)]:
            for pd in enumerate_decompositions(make_surface(g, [(0,)] * n)):
                for a, b in pd.dual.pairing:
                    loop = pd.dual.attach_map[a] == pd.dual.attach_map[b]
                    moved = gv.s_move(pd, a) if loop else gv.whitehead_move(pd, a)
                    for C in (z3, z8_ff):
                        for labels in self.label_sets(rng, C, g, n):
                            expected = gv.block_dim_direct(C, make_surface(g, labels))
                            assert gv.block_dim_glued(C, moved, labels) == expected
                            assert gv.block_dim_glued(C, moved, labels) == glued_dim_oracle(
                                C, moved, labels
                            )
        assert smith_calls == []

    def test_incidence_premise_of_every_class(self):
        # the premise of block_dim_glued's proof: a connected graph's incidence
        # matrix has rank |V| - 1 and unit invariant factors, and the rows of
        # U past the rank annihilate it
        for g, n in surfaces_up_to_complexity(5):
            for pd in enumerate_decompositions(make_surface(g, [(0,)] * n)):
                attach, vertices = pd.dual.attach_map, pd.dual.vertices
                nv = len(vertices)
                edges = [(a, b) for a, b in pd.dual.pairing if attach[a] != attach[b]]
                assert pd.genus == g
                A = [[(attach[a] == v) - (attach[b] == v) for a, b in edges] for v in vertices]
                U, D, _, _ = gv.smith_normal_form(A)
                d = [D[r][r] if r < min(nv, len(edges)) else 0 for r in range(max(nv, len(edges)))]
                assert d == [1] * (nv - 1) + [0] * (max(nv, len(edges)) - nv + 1)
                assert abs(det_reference(U)) == 1
                UA = mat_mul_int(U, A) if edges else []
                assert all(not any(row) for row in UA[nv - 1 :])


def fold_meets(C, spec):
    """The condition as a per-label fold, one ``FinAbGroup.reduce`` and one
    ``add`` per label: the reference for the one-pass reader."""
    group = C.group
    total = group.scale(_genus(spec.genus) - 1, C.g0)
    for lab in _as_items(spec.boundary_labels, "forms.bad_element", "labels"):
        total = group.add(total, group.reduce(lab))
    return total == group.zero


def fold_direct(C, spec):
    if not fold_meets(C, spec):
        return 0
    genus, order = int(spec.genus), C.group.order
    if genus * math.log2(order) >= gv.blocks.DIM_BITS_CAP:
        raise CapacityError("blocks.overflow", f"{order}^{genus} has more than 2^24 bits")
    return order**genus


def fold_glued(C, pd, labels):
    labels = _as_items(labels, "blocks.label_mismatch", "labels")
    if len(labels) != pd.n:
        raise ValidationError(
            "blocks.label_mismatch",
            f"decomposition has {pd.n} boundary legs, got {len(labels)} labels",
        )
    return fold_direct(C, SurfaceSpec(pd.genus, labels))


def outcome(call, *args):
    """The type and value of a call's result, or its refusal as
    (class, code, message)."""
    try:
        result = call(*args)
    except gv.GVBlocksError as e:
        return type(e), e.code, str(e)
    return type(result), result


# labels on the condition on Z/4 x Z/6 with g0 = (2, 4): three at genus 0,
# three at genus 1 and two at genus 1
MET0 = [(1, 5), (2, 3), (3, 2)]
MET1 = [(1, 5), (2, 3), (1, 4)]
MET1_TWO = [(1, 5), (3, 1)]
LABEL, COUNT, GENUS = "forms.bad_element", "blocks.label_mismatch", "surfaces.bad_genus"
OVERFLOW = "blocks.overflow"


def second(labels, lab):
    """``labels`` with its second label replaced by ``lab``."""
    return [labels[0], lab, *labels[2:]]


# (genus, labels, the code of meets_condition, block_dim_direct and
# block_dim_glued, None where it gives a result)
READER_CASES = [
    # a coordinate that is a float, a bool, a string or a list, in a tuple and in a list
    *[(0, second(MET0, lab), (LABEL,) * 3)
      for lab in [(2.0, 3), (True, 3), ("2", 3), ([2], 3), [2, 3.0], [2, False], [2, "3"], [[2], 3]]],
    # the wrong length; a tuple is measured before its coordinates are read, a list after
    *[(0, second(MET0, lab), (LABEL,) * 3)
      for lab in [(2,), (), (2, 3, 0), (2.5, 3, 0), [2], [2.5, 3, 0], np.array([2, 3, 0])]],
    # a label that is a scalar, a set, a string, bytes, a mapping or None
    *[(0, second(MET0, lab), (LABEL,) * 3)
      for lab in [5, np.int64(5), np.array(5), {2, 3}, "23", b"23", {0: 2, 1: 3}, None]],
    # labels that are not a sequence
    *[(0, labels, (LABEL, LABEL, COUNT)) for labels in [5, "abc", b"abc", {(1, 5): 1}, None, 1.5]],
    # the wrong label count, which only the glued count has
    (1, MET1_TWO, (None, None, COUNT)),
    (1, MET1 + [(0, 0)], (None, None, COUNT)),
    (1, [], (None, None, COUNT)),
    # a bad genus, which only a surface has
    *[(genus, MET1, (GENUS, GENUS, None)) for genus in [-1, 1.5, True, "1", None, np.float64(1)]],
    # two faults at once: the genus or the count before the labels
    (-1, second(MET1, (2.0, 3)), (GENUS, GENUS, LABEL)),
    (1.5, 5, (GENUS, GENUS, COUNT)),
    (1, second(MET1_TWO, (3.0, 1)), (LABEL, LABEL, COUNT)),
    (1, second(MET1, (2, 3, 0)) + [(0, 0)], (LABEL, LABEL, COUNT)),
    # accepted off the condition
    (1, second(MET1, (2, 4)), (None,) * 3),
]
# accepted on the condition: numpy integer coordinates, list and array
# labels, unreduced integers
ACCEPTED = [
    (0, [(np.int64(1), np.int32(5)), [np.int8(2), 3], np.array([3, 2])]),
    (0, np.array(MET0)),
    (0, [(1 + 4 * 10**30, 5 - 6 * 10**40), (-2, 3), [-1, 2]]),
    (1, MET1),
]
READER_CASES += [(genus, labels, (None,) * 3) for genus, labels in ACCEPTED]


class TestLabelReader:
    """``meets_condition``, ``block_dim_direct`` and ``block_dim_glued`` read
    the labels in one pass, and give what the per-label fold gives: the same
    result, or the same refusal class, code and message, faults taken in the
    same order."""

    @pytest.fixture(scope="class")
    def C(self):
        return make_pointed([4, 6], [[F(1, 8), 0], [0, F(1, 12)]], (1, 2))

    @staticmethod
    def check(C, genus, labels, codes):
        """Each reader against its fold; the glued count runs on every class
        with three legs of ``genus``, or of genus 1 where ``genus`` is not 0
        or 1."""
        spec = SurfaceSpec(genus, labels)
        g = genus if type(genus) is int and genus in (0, 1) else 1
        pds = enumerate_decompositions(make_surface(g, [(0, 0)] * 3))
        pairs = [
            (outcome(gv.blocks.meets_condition, C, spec), outcome(fold_meets, C, spec), codes[0]),
            (outcome(gv.block_dim_direct, C, spec), outcome(fold_direct, C, spec), codes[1]),
        ] + [
            (outcome(gv.block_dim_glued, C, pd, labels), outcome(fold_glued, C, pd, labels), codes[2])
            for pd in pds
        ]
        for got, want, code in pairs:
            assert got == want
            assert (got[1] if len(got) == 3 else None) == code

    @pytest.mark.parametrize("genus, labels, codes", READER_CASES)
    def test_same_outcome_as_the_fold(self, C, genus, labels, codes):
        self.check(C, genus, labels, codes)

    def test_accepted_labels_meet_the_condition(self, C):
        for genus, labels in ACCEPTED:
            assert gv.block_dim_direct(C, SurfaceSpec(genus, labels)) == 24**genus

    def test_labels_before_the_overflow(self, C, monkeypatch):
        # 2^24 * log2(24) bits at genus 2^24, with the labels closed onto the condition
        group, big = C.group, 2**24
        head = [(1, 5)]
        last = group.neg(group.add(group.scale(big - 1, C.g0), head[0]))
        self.check(C, big, head + [last], (None, OVERFLOW, COUNT))
        self.check(C, big, head + [(last[0], float(last[1]))], (LABEL, LABEL, COUNT))
        # log2(24) bits at genus 1 under a cap of 4 bits: the glued count too
        monkeypatch.setattr(gv.blocks, "DIM_BITS_CAP", 4)
        self.check(C, 1, MET1, (None, OVERFLOW, OVERFLOW))
        self.check(C, 1, second(MET1, (2, 3.0)), (LABEL, LABEL, LABEL))
        self.check(C, 1, MET1_TWO, (None, OVERFLOW, COUNT))
        self.check(C, 1, second(MET1_TWO, [3, 1.0]), (LABEL, LABEL, COUNT))

    def test_one_pass_equals_the_fold(self):
        # every (g, n) of complexity 1-4 on every group shape of order <= 24:
        # random unreduced labels, and the same closed onto the condition
        rng = random.Random(28)
        nonzero = 0
        for factors in [(1,)] + group_shapes(24):
            group = gv.make_group(factors)
            h0 = tuple(rng.randrange(f) for f in factors)
            C = gv.make_category(group, random_qform(rng, group), h0)
            for g, n in surfaces_up_to_complexity(4):
                pds = enumerate_decompositions(make_surface(g, [group.zero] * n))
                for _ in range(3):
                    labels = [tuple(rng.randrange(-3 * f, 3 * f) for f in factors)
                              for _ in range(n)]
                    label_sets = [labels]
                    if n:
                        total = group.scale(g - 1, C.g0)
                        for lab in labels[:-1]:
                            total = group.add(total, group.reduce(lab))
                        label_sets.append(labels[:-1] + [group.neg(total)])
                    for labs in label_sets:
                        spec = SurfaceSpec(g, labs)
                        assert gv.blocks.meets_condition(C, spec) == fold_meets(C, spec)
                        direct = gv.block_dim_direct(C, spec)
                        assert direct == fold_direct(C, spec)
                        assert {gv.block_dim_glued(C, pd, labs) for pd in pds} == {direct}
                        nonzero += direct != 0
        assert nonzero > 1000


class TestModularData:
    def test_builtin_semion(self, semion):
        md = gv.st_matrices(semion)
        assert np.abs(md.S - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-12
        assert np.abs(np.diag(md.T) - np.diag([1, 1j])).max() < 1e-12

    def test_builtin_fibonacci(self):
        md = gv.builtin_modular_data("fibonacci")
        phi = (1 + np.sqrt(5)) / 2
        assert abs(md.S[0, 0] - 1 / np.sqrt(2 + phi)) < 1e-12
        rel = gv.check_relations(md)
        assert rel.max_residual < 1e-9

    def test_builtin_ising(self):
        md = gv.builtin_modular_data("ising")
        assert np.abs(md.S[1] - np.array([np.sqrt(2) / 2, 0, -np.sqrt(2) / 2])).max() < 1e-12
        assert gv.check_relations(md).max_residual < 1e-9

    def test_builtin_pointed_requires_modular(self, z8_ff, z2_flat):
        with pytest.raises(gv.UnsupportedError):
            gv.st_matrices(z8_ff)
        with pytest.raises(DegenerateDataError):
            gv.st_matrices(z2_flat)

    def test_broken_embedded_table_is_coded(self, monkeypatch):
        md = gv.builtin_modular_data("fibonacci")
        broken = gv.torus.ModularData(md.labels, md.S.copy(), md.T, md.conjugation)
        broken.S[1, 1] = -broken.S[1, 1]
        monkeypatch.setattr(gv.torus, "_fibonacci_data", lambda: broken)
        with pytest.raises(gv.InternalError) as e:
            gv.builtin_modular_data("fibonacci")
        assert e.value.code == "blocks.builtin_relations" and e.value.exit_code == 3

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            gv.builtin_modular_data("potts")

    def test_validation(self):
        bad_s = np.array([[0.5, 0.5], [0.6, -0.5]])
        with pytest.raises(ValidationError):
            gv.torus.make_modular_data(("1", "x"), bad_s, np.ones(2), (0, 1))

    @pytest.mark.parametrize(
        "S, T, conjugation, message",
        [
            (np.eye(3), np.ones(2), (0, 1), "S must be square of label size"),
            (np.eye(2), np.eye(2), (0, 1), "T must be a vector of label size"),
            (np.eye(2), np.ones(2), (0, 0), "conjugation is not a permutation"),
            (2 * np.eye(2), np.ones(2), (0, 1), "S is not unitary"),
            ([["a"]], np.ones(2), (0, 1), "S and T must hold numbers"),
            (np.eye(2), np.ones(2), (0.0, 1.0), "conjugation entry 0.0 is not an integer"),
            (np.eye(2), np.ones(2), (False, True), "conjugation entry False is not an integer"),
        ],
    )
    def test_rejections(self, S, T, conjugation, message):
        with pytest.raises(ValidationError) as e:
            gv.torus.make_modular_data(("1", "x"), S, T, conjugation)
        assert e.value.code == "blocks.bad_modular_data" and e.value.message == message

    @pytest.mark.parametrize(
        "S, T, message",
        [
            (np.full((2, 2), np.nan), np.ones(2), "S has a non-finite entry"),
            (np.eye(2), np.array([1, np.nan]), "T has a non-finite entry"),
            (np.array([[1, np.inf], [np.inf, 1]]), np.ones(2), "S has a non-finite entry"),
        ],
    )
    def test_non_finite_entries(self, S, T, message):
        with pytest.raises(ValidationError) as e:
            gv.torus.make_modular_data(("1", "x"), S, T, (0, 1))
        assert e.value.code == "blocks.bad_modular_data" and e.value.message == message

    def test_capacity_refused_before_s_is_read(self):
        n = gv.torus.MATRIX_CAP + 1
        labels, conjugation = tuple(map(str, range(n))), tuple(range(n))
        S = np.broadcast_to(np.complex128(1), (n, n))
        T = np.broadcast_to(np.complex128(1), (n,))
        tracemalloc.start()
        try:
            with pytest.raises(gv.CapacityError) as e:
                gv.torus.make_modular_data(labels, S, T, conjugation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.code == "blocks.capacity" and e.value.exit_code == 3
        assert peak < 2**20

    def test_no_labels(self):
        with pytest.raises(ValidationError) as e:
            gv.torus.make_modular_data((), np.zeros((0, 0)), np.zeros((0, 0)), ())
        assert e.value.code == "blocks.bad_modular_data"

    def test_t_not_unitary(self):
        with pytest.raises(ValidationError):
            gv.torus.make_modular_data(
                ("1", "x"), np.eye(2), np.array([1.0, 0.5]), (0, 1)
            )


class TestVerlinde:
    def test_fibonacci_genus_two(self):
        md = gv.builtin_modular_data("fibonacci")
        rep = gv.verlinde_dim(md, 2)
        assert rep.rounded == 5 and rep.residual < 1e-6

    def test_ising_genus_two(self):
        md = gv.builtin_modular_data("ising")
        rep = gv.verlinde_dim(md, 2)
        assert rep.rounded == 10 and rep.residual < 1e-6

    def test_pointed_z3_genus_two(self, z3):
        md = gv.st_matrices(z3)
        rep = gv.verlinde_dim(md, 2)
        assert rep.rounded == 9 and rep.residual < 1e-6
        assert rep.rounded == gv.block_dim_direct(z3, make_surface(2))

    def test_matches_direct_for_modular_pointed(self):
        cats = [
            make_pointed([2], [[F(1, 4)]], (0,)),
            make_pointed([3], [[F(1, 3)]], (0,)),
            make_pointed([8], [[F(1, 16)]], (0,)),
            make_pointed([2, 2], [[0, F(1, 4)], [F(1, 4), 0]], (0, 0)),
            make_pointed([4, 4], [[F(1, 8), 0], [0, F(1, 8)]], (0, 0)),
        ]
        for C in cats:
            md = gv.st_matrices(C)
            for g in (1, 2, 3):
                rep = gv.verlinde_dim(md, g)
                assert rep.residual < 1e-6
                assert rep.rounded == gv.block_dim_direct(C, make_surface(g))

    def test_with_boundary_indices(self, z3):
        md = gv.st_matrices(z3)
        # one boundary labeled by the unit: same as closed genus-1 count
        rep = gv.verlinde_dim(md, 1, [0])
        assert rep.rounded == gv.block_dim_direct(z3, make_surface(1, [(0,)]))
        rep2 = gv.verlinde_dim(md, 1, [1])
        assert rep2.rounded == gv.block_dim_direct(z3, make_surface(1, [(1,)]))

    def test_negative_genus(self):
        with pytest.raises(ValidationError) as e:
            gv.verlinde_dim(gv.builtin_modular_data("ising"), -1)
        assert e.value.code == "blocks.bad_genus"

    @pytest.mark.parametrize("index", [5, -1, "a", True])
    def test_bad_boundary_index(self, index):
        with pytest.raises(ValidationError) as e:
            gv.verlinde_dim(gv.builtin_modular_data("ising"), 1, [0, index])
        assert e.value.code == "blocks.bad_index"

    def test_overflow_is_a_coded_refusal(self):
        md = gv.builtin_modular_data("ising")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 2^(2g-1) + 2^(g-1) is 2^1023 + 2^511 at genus 512, past 2^1024 at 513
            assert gv.verlinde_dim(md, 512).rounded == pytest.approx(2**1023 + 2**511, rel=1e-12)
            with pytest.raises(CapacityError) as e:
                gv.verlinde_dim(md, 513)
        assert e.value.code == "blocks.overflow"

    def test_dimension_bit_bound(self, semion):
        # |G|^g is refused before the power once it needs more than
        # DIM_BITS_CAP = 2^24 bits: 2^g has g + 1 bits, 4096^g = 2^(12 g)
        assert gv.blocks.DIM_BITS_CAP == 2**24
        z4096 = make_pointed([4096], [[F(1, 8192)]], (0,))
        for C, below in [(semion, 2**24 - 1), (z4096, 2**24 // 12)]:
            dim = gv.block_dim_direct(C, make_surface(below))
            assert dim == C.group.order**below and dim.bit_length() <= 2**24
            with pytest.raises(CapacityError) as e:
                gv.block_dim_direct(C, make_surface(below + 1))
            assert e.value.code == "blocks.overflow"

    def test_degenerate_vacuum_entry(self):
        md = gv.builtin_modular_data("ising")
        bad = gv.torus.ModularData(md.labels, md.S.copy(), md.T, md.conjugation)
        bad.S[0, 1] = 0.0
        with pytest.raises(DegenerateDataError):
            gv.verlinde_dim(bad, 2)
