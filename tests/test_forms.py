import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gvblocks as gv
from gvblocks.errors import CapacityError, InvalidQForm, ValidationError
from gvblocks.forms import (
    ENUMERATION_CAP,
    Subgroup,
    enumerate_qforms,
)

from conftest import (
    det_reference,
    gauss_sum_reference,
    group_shapes,
    mat_mul_int,
    q_reference,
    radical_reference,
    subgroup_invariants_reference,
)

F = Fraction


class TestGroups:
    def test_make_group(self):
        g = gv.make_group([2])
        assert g.order == 2 and g.rank == 1
        g = gv.make_group([2, 4])
        assert g.order == 8
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.neg((1, 1)) == (1, 3)

    def test_invalid_factor(self):
        with pytest.raises(ValidationError) as e:
            gv.make_group([0])
        assert e.value.code == "forms.invalid_factor"

    def test_elements_sorted(self):
        g = gv.make_group([2, 3])
        els = g.elements
        assert len(els) == 6 and els[0] == (0, 0) and els == tuple(sorted(els))

    def test_elements_are_the_rows_of_element_array(self):
        for shape in [(), (1,)] + group_shapes(16):
            g = gv.make_group(shape)
            assert g.elements == tuple(map(tuple, g.element_array.tolist())), shape
            assert g.elements is g.elements

    def test_translates_matches_the_group_law(self):
        # every shape of order <= 16, rank 0, factors of 1 and a few wider
        # shapes; int64, complex and object values; slices and index arrays
        rng = np.random.default_rng(5)
        shapes = [(), (1,), (1, 3), (4, 1, 2), (2,) * 6, (3, 9, 27)] + group_shapes(16)
        for shape in shapes:
            G = gv.make_group(shape)
            els = G.elements
            position = {x: i for i, x in enumerate(els)}
            assert G.wrap_index.shape == (math.prod(2 * n - 1 for n in shape),)
            for values in (
                rng.integers(-(2**40), 2**40, G.order),
                rng.random(G.order) + 1j * rng.random(G.order),
                np.array([F(i, 7) for i in range(G.order)], dtype=object),
            ):
                wrapped = values[G.wrap_index]
                picks = rng.integers(0, G.order, 7)
                for rows in (slice(None), slice(G.order // 3, G.order // 3 + 5), picks, picks[:0]):
                    idx = np.arange(G.order)[rows]
                    got = G.translates(wrapped, rows)
                    assert got.dtype == values.dtype and got.shape == (len(idx), G.order)
                    expected = [[values[position[G.add(els[x], y)]] for y in els] for x in idx]
                    assert got.tolist() == expected, (shape, values.dtype, rows)
                    assert not np.may_share_memory(got, wrapped)


class TestIntegerInput:
    """Every entry point refuses a non-integer with its own code instead of
    truncating it, and takes Python and numpy integers alike."""

    @staticmethod
    def refusals():
        z3 = gv.make_group([3])
        C = gv.make_category(z3, gv.make_qform(z3, [[F(1, 3)]]), (0,))
        (pd,) = gv.enumerate_decompositions(gv.make_surface(0, [(0,)] * 3))
        md = gv.builtin_modular_data("ising")
        return [
            ("forms.invalid_factor", lambda: gv.make_group([2.5])),
            ("forms.invalid_factor", lambda: gv.make_group(["a"])),
            ("forms.invalid_factor", lambda: gv.make_group([True])),
            ("surfaces.bad_genus", lambda: gv.make_surface(1.5)),
            ("surfaces.bad_genus", lambda: gv.make_surface("1")),
            ("forms.bad_element", lambda: gv.make_surface(0, [(0.5,)] * 3)),
            ("forms.bad_element", lambda: z3.reduce((1.5,))),
            ("forms.bad_element", lambda: gv.make_category(C.group, C.qform, ("a",))),
            ("forms.bad_element", lambda: gv.block_dim_glued(C, pd, [("a",), (0,), (0,)])),
            ("surfaces.bad_leg_order", lambda: gv.make_pants_decomposition(
                pd.dual, {**pd.leg_map, "b1": 1.5})),
            ("lattice.bad_matrix", lambda: gv.make_lattice([[2.5]], [0])),
            ("lattice.bad_matrix", lambda: gv.make_lattice([["2"]], [0])),
            ("blocks.bad_genus", lambda: gv.verlinde_dim(md, 1.5)),
        ]

    @pytest.mark.parametrize("slot", range(13))
    def test_refused_with_the_entry_points_code(self, slot):
        code, call = self.refusals()[slot]
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == code
        assert "is not an integer" in e.value.message

    def test_scalar_element_refused(self):
        z3 = gv.make_group([3])
        q = gv.make_qform(z3, [[F(1, 3)]])
        C = gv.make_category(z3, q, (0,))
        (pd,) = gv.enumerate_decompositions(gv.make_surface(0, [(0,)] * 3))
        trivial = gv.make_group([])
        for call in (
            lambda: gv.make_category(z3, q, 1),
            lambda: gv.make_category(trivial, gv.make_qform(trivial, []), ""),
            lambda: gv.make_surface(0, [1, 2, 0]),
            lambda: gv.block_dim_glued(C, pd, [1, 2, 0]),
        ):
            with pytest.raises(ValidationError) as e:
                call()
            assert e.value.code == "forms.bad_element"
            assert "is not a sequence of coordinates" in e.value.message

    @staticmethod
    def scalar_containers():
        # entry -> (code, call, the argument that is not a sequence)
        z3 = gv.make_group([3])
        C = gv.make_category(z3, gv.make_qform(z3, [[F(1, 3)]]), (0,))
        (pd,) = gv.enumerate_decompositions(gv.make_surface(0, [(0,)] * 3))
        ising = gv.builtin_modular_data("ising")
        s2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return {
            "make_group": ("forms.invalid_factor", gv.make_group, 5),
            "make_surface": ("forms.bad_element", lambda x: gv.make_surface(0, x), 5),
            "make_qform": ("forms.bad_matrix", lambda x: gv.make_qform(z3, x), 5),
            "make_qform_row": ("forms.bad_matrix", lambda x: gv.make_qform(z3, [x]), 5),
            "make_qform_row_str": (
                "forms.bad_matrix", lambda x: gv.make_qform(gv.make_group([2]), [x]), "1/4"
            ),
            "make_lattice": ("lattice.bad_matrix", lambda x: gv.make_lattice(x, [0]), 5),
            "make_lattice_xi": ("lattice.bad_xi", lambda x: gv.make_lattice([[2]], x), 5),
            "make_lattice_xi_str": (
                "lattice.bad_xi", lambda x: gv.make_lattice([[2, 0], [0, 2]], x), "01"
            ),
            "make_lattice_xi_mapping": (
                "lattice.bad_xi", lambda x: gv.make_lattice([[8]], x), {"1/8": 1}
            ),
            "make_qform_row_mapping": (
                "forms.bad_matrix", lambda x: gv.make_qform(gv.make_group([2]), [x]), {"1/4": 0}
            ),
            "make_group_mapping": ("forms.invalid_factor", gv.make_group, {2: 0}),
            "block_dim_glued": (
                "blocks.label_mismatch", lambda x: gv.block_dim_glued(C, pd, x), 5
            ),
            "make_modular_data": (
                "blocks.bad_modular_data",
                lambda x: gv.torus.make_modular_data(x, [[1]], [1], (0,)),
                5,
            ),
            "make_modular_data_str": (
                "blocks.bad_modular_data",
                lambda x: gv.torus.make_modular_data(x, s2, [1, 1], (0, 1)),
                "ab",
            ),
            "make_modular_data_conjugation": (
                "blocks.bad_modular_data",
                lambda x: gv.torus.make_modular_data(("1",), [[1]], [1], x),
                5,
            ),
            "verlinde_dim": ("blocks.bad_index", lambda x: gv.verlinde_dim(ising, 1, x), 5),
        }

    @pytest.mark.parametrize(
        "entry",
        ["make_group", "make_surface", "make_qform", "make_qform_row", "make_qform_row_str",
         "make_lattice", "make_lattice_xi", "make_lattice_xi_str", "make_lattice_xi_mapping",
         "make_qform_row_mapping", "make_group_mapping", "block_dim_glued",
         "make_modular_data", "make_modular_data_str", "make_modular_data_conjugation",
         "verlinde_dim"],
    )
    def test_scalar_container_refused(self, entry):
        # a scalar where a list belongs is refused with the entry point's
        # code, not a bare TypeError from iterating it; a string is refused
        # too, not split into its characters, and a mapping, not read as its keys
        code, call, bad = self.scalar_containers()[entry]
        with pytest.raises(ValidationError) as e:
            call(bad)
        assert e.value.code == code
        assert f"must be a sequence, got {bad!r}" in e.value.message

    def test_bool_form_entry_refused(self):
        with pytest.raises(ValidationError) as e:
            gv.make_qform(gv.make_group([3]), [[True]])
        assert e.value.code == "forms.bad_rational"
        assert "not an exact rational: True" in e.value.message

    def test_numpy_integers_are_accepted(self):
        i64, i32 = np.int64, np.int32
        group = gv.make_group([i64(3), i32(4)])
        assert group.invariant_factors == (3, 4)
        assert all(type(n) is int for n in group.invariant_factors)
        assert group.reduce((i64(7), i32(-1))) == (1, 3)
        assert all(type(c) is int for c in group.reduce((i64(7), i32(-1))))
        assert gv.make_surface(i64(2), [(i32(1),)]) == gv.make_surface(2, [(1,)])
        assert gv.make_lattice(np.array([[2]]), [0]).gram == ((2,),)
        md = gv.builtin_modular_data("ising")
        assert gv.verlinde_dim(md, i64(1)).rounded == 3
        z3 = gv.make_group([3])
        C = gv.make_category(z3, gv.make_qform(z3, [[F(1, 3)]]), np.array([4]))
        assert C.h0 == (1,)
        (pd,) = gv.enumerate_decompositions(gv.make_surface(1, [(0,)]))
        assert gv.block_dim_glued(C, pd, [np.array([i64(1)])]) == 0
        assert gv.block_dim_glued(C, pd, [np.array([i64(3)])]) == 3


class TestQForm:
    def test_semion(self):
        g = gv.make_group([2])
        q = gv.make_qform(g, [[F(1, 4)]])
        assert q((1,)) == F(1, 4)
        assert q((3,)) == F(1, 4)  # reduction first

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError) as e:
            gv.make_qform(gv.make_group([2, 2]), [[F(1, 4)]])
        assert e.value.code == "forms.bad_matrix"

    def test_not_well_defined(self):
        g = gv.make_group([2])
        with pytest.raises(InvalidQForm) as e:
            gv.make_qform(g, [[F(1, 3)]])
        w = e.value.witness
        assert w is not None
        # the witness really violates translation invariance
        q = gv.QForm(g, ((F(1, 3),),))
        assert q.eval_raw(w) != q.eval_raw(g.reduce(w))

    def test_off_diagonal_not_well_defined(self):
        # 2 * 4 * A_01 = 8/3: only the search over x = e_j finds the witness
        g = gv.make_group([4, 2])
        with pytest.raises(InvalidQForm) as e:
            gv.make_qform(g, [[0, F(1, 3)], [F(1, 3), 0]])
        w = e.value.witness
        assert w == (4, 1)
        q = gv.QForm(g, ((F(0), F(1, 3)), (F(1, 3), F(0))))
        assert q_reference(q, w) != q_reference(q, g.reduce(w))

    def test_accepts_exactly_the_invariant_matrices(self):
        # reference: q(x + n_i e_i) = q(x) for every element x and every i,
        # from the unreduced integer matrix den * A
        rng = random.Random(97)
        outcomes = set()
        for shape in group_shapes(16):
            g = gv.make_group(shape)
            k = g.rank
            X = np.array(g.elements, dtype=np.int64).reshape(g.order, k)
            # every element, then every element moved by n_i e_i for each i
            P = np.concatenate([X] + [X + s for s in np.diag(shape)])
            matrices = [q.matrix for q in enumerate_qforms(g)]
            for _ in range(40):
                mat = [[F(0)] * k for _ in range(k)]
                for i in range(k):
                    for j in range(i, k):
                        den = rng.choice([1, 2, 3, 4, 6, 8, 12, 16, 32])
                        mat[i][j] = mat[j][i] = F(rng.randrange(4 * den), den)
                matrices.append(tuple(map(tuple, mat)))
            for mat in matrices:
                den = math.lcm(*(a.denominator for row in mat for a in row))
                M = np.array([[a.numerator * (den // a.denominator) for a in row] for row in mat])
                values = np.einsum("ij,jk,ik->i", P, M, P).reshape(k + 1, g.order)
                invariant = not ((values[1:] - values[0]) % den).any()
                try:
                    gv.make_qform(g, mat)
                    accepted = True
                except InvalidQForm as e:
                    accepted = False
                    q = gv.QForm(g, mat)
                    w = e.witness
                    assert q_reference(q, w) != q_reference(q, g.reduce(w)), (shape, mat)
                assert accepted == invariant, (shape, mat)
                outcomes.add(accepted)
        assert outcomes == {True, False}

    def test_zero_form(self):
        g = gv.make_group([5, 7])
        q = gv.make_qform(g, [[0, 0], [0, 0]])
        assert all(q(x) == 0 for x in g.elements)

    def test_large_integer_part(self):
        # 9 * (2^58 + 1/9) * x^2 overflows int64 unless the matrix is reduced first
        g = gv.make_group([9])
        big = gv.make_qform(g, [[2**58 + F(1, 9)]])
        small = gv.make_qform(g, [[F(1, 9)]])
        assert [big(x) for x in g.elements] == [small(x) for x in g.elements]

    def test_asymmetric_rejected(self):
        g = gv.make_group([2, 2])
        with pytest.raises(ValidationError):
            gv.make_qform(g, [[0, F(1, 4)], [0, 0]])

    def test_scaling_rule_exhaustive(self):
        # q(k*x) = k^2 q(x) for representative forms with |G| <= 64
        cases = [
            ([8], [[F(1, 16)]]),
            ([4, 4], [[F(1, 8), F(1, 4)], [F(1, 4), F(3, 8)]]),
            ([2, 2, 2], [[F(1, 4), 0, F(1, 2)], [0, F(3, 4), 0], [F(1, 2), 0, 0]]),
        ]
        for factors, mat in cases:
            g = gv.make_group(factors)
            q = gv.make_qform(g, mat)
            for x in g.elements:
                for k in range(max(factors) + 2):
                    assert q(g.scale(k, x)) == (k * k * q(x)) % 1


class TestBilinear:
    def test_semion_polarization(self):
        g = gv.make_group([2])
        q = gv.make_qform(g, [[F(1, 4)]])
        b = gv.bilinear(q)
        assert b((1,), (1,)) == F(1, 2)
        # polarization identity
        for x in g.elements:
            for y in g.elements:
                assert b(x, y) == (q(g.add(x, y)) - q(x) - q(y)) % 1

    def test_zero(self):
        g = gv.make_group([2])
        b = gv.bilinear(gv.make_qform(g, [[0]]))
        assert b((1,), (1,)) == 0

    def test_klein(self):
        g = gv.make_group([2, 2])
        q = gv.make_qform(g, [[0, F(1, 4)], [F(1, 4), 0]])
        b = gv.bilinear(q)
        assert b((1, 0), (0, 1)) == F(1, 2)
        assert b((1, 0), (1, 0)) == 0

    def test_biadditive_and_symmetric_exhaustive(self):
        rng = random.Random(7)
        for factors in [(2,), (3,), (2, 4), (2, 2, 2), (8,), (4, 4)]:
            g = gv.make_group(factors)
            forms = list(enumerate_qforms(g))
            for q in rng.sample(forms, min(6, len(forms))):
                b = gv.bilinear(q)
                els = g.elements
                for x in els:
                    for y in els:
                        assert b(x, y) == b(y, x)
                        for z in els:
                            assert b(g.add(x, y), z) == (b(x, z) + b(y, z)) % 1

    def test_polarization_is_well_defined(self):
        # b(e_j, n_i e_i) = n_i B_ji is 0 mod 1, so b is well defined on G
        count = 0
        for shape in group_shapes(16):
            g = gv.make_group(shape)
            for q in enumerate_qforms(g):
                B = gv.bilinear(q).matrix
                for i, n in enumerate(shape):
                    assert all((n * B[j][i]).denominator == 1 for j in range(g.rank)), (shape, q)
                count += 1
        assert count > 100


class TestRadical:
    def test_semion_trivial(self):
        g = gv.make_group([2])
        r = gv.radical(gv.bilinear(gv.make_qform(g, [[F(1, 4)]])))
        assert r.elements == ((0,),) and r.invariant_factors == ()

    def test_zero_form_everything(self):
        g = gv.make_group([2])
        r = gv.radical(gv.bilinear(gv.make_qform(g, [[0]])))
        assert r.order == 2 and r.invariant_factors == (2,)

    def test_klein_trivial(self):
        g = gv.make_group([2, 2])
        r = gv.radical(gv.bilinear(gv.make_qform(g, [[0, F(1, 4)], [F(1, 4), 0]])))
        assert r.is_trivial

    def test_is_subgroup(self):
        rng = random.Random(11)
        for factors in [(4,), (2, 4), (3, 3), (12,)]:
            g = gv.make_group(factors)
            forms = list(enumerate_qforms(g))
            for q in rng.sample(forms, min(5, len(forms))):
                r = gv.radical(gv.bilinear(q))
                members = set(r.elements)
                assert g.zero in members
                for x in members:
                    assert g.neg(x) in members
                    for y in members:
                        assert g.add(x, y) in members

    def test_capacity(self):
        g = gv.make_group([2] * 17)
        with pytest.raises(CapacityError):
            gv.radical(gv.bilinear(gv.make_qform(g, [[0] * 17] * 17)))

    def test_matches_reference(self):
        for factors in [(2,), (2, 4), (12,), (3, 3)]:
            g = gv.make_group(factors)
            for q in enumerate_qforms(g):
                assert gv.radical(gv.bilinear(q)).elements == radical_reference(q)

    def test_large_integer_part(self):
        # (600 * 2^50 + 1) * x^2 overflows int64 unless the matrix is reduced first
        g = gv.make_group([300])
        big = gv.make_qform(g, [[2**50 + F(1, 600)]])
        small = gv.make_qform(g, [[F(1, 600)]])
        assert gv.radical(gv.bilinear(big)) == gv.radical(gv.bilinear(small))
        assert gv.verdicts(gv.make_category(g, big, (0,))) == gv.verdicts(
            gv.make_category(g, small, (0,))
        )


def subgroup(g, elements):
    """The Subgroup of ``g`` with the given elements, by sorted-order index."""
    coords = np.array(elements, dtype=np.int64).reshape(len(elements), g.rank)
    return Subgroup(g, tuple(sorted(g.index_of(coords).tolist())))


class TestSubgroupInvariants:
    def test_mixed_primes(self):
        g = gv.make_group([2, 6])
        assert subgroup(g, g.elements).invariant_factors == (2, 6)
        g12 = gv.make_group([12])
        assert subgroup(g12, g12.elements).invariant_factors == (12,)

    def test_partial_subgroup(self):
        g = gv.make_group([4, 2])
        sub = subgroup(g, ((0, 0), (2, 0), (0, 1), (2, 1)))
        assert sub.index == (0, 1, 4, 5) and sub.order == 4
        assert sub.elements == ((0, 0), (0, 1), (2, 0), (2, 1))
        assert sub.invariant_factors == (2, 2)

    def test_matches_reference_on_all_subgroups(self):
        for shape in group_shapes(16):
            g = gv.make_group(shape)
            subgroups = {frozenset([g.zero])}
            frontier = list(subgroups)
            while frontier:
                h = frontier.pop()
                for x in g.elements:
                    grown = frozenset(g.add(y, g.scale(k, x)) for y in h for k in range(g.order))
                    if grown not in subgroups:
                        subgroups.add(grown)
                        frontier.append(grown)
            for h in subgroups:
                elems = tuple(sorted(h))
                sub = subgroup(g, elems)
                assert sub.elements == elems
                assert sub.invariant_factors == subgroup_invariants_reference(g, elems)

    def test_derived_only_when_read(self):
        g = gv.make_group([2, 4])
        sub = Subgroup(g, (0, 2, 4, 6))
        assert sub.order == 4 and not sub.is_trivial
        assert "elements" not in vars(sub) and "invariant_factors" not in vars(sub)
        assert sub.invariant_factors == (2, 2)
        assert sub == Subgroup(g, (0, 2, 4, 6)) and hash(sub) == hash(Subgroup(g, (0, 2, 4, 6)))

    @pytest.mark.parametrize("name", ["elements", "invariant_factors"])
    def test_capacity(self, name):
        g = gv.make_group([2] * 17)
        assert g.order > ENUMERATION_CAP
        sub = Subgroup(g, (0, 1))
        assert sub.order == 2
        with pytest.raises(CapacityError) as e:
            getattr(sub, name)
        assert e.value.code == "forms.capacity"
        assert "element_array" not in vars(g)

    @pytest.mark.parametrize(
        "index",
        [
            (0, 2, 2, 2),  # repeated: order 4, factors (2, 2) unchecked
            (0, 2, 1),  # not ascending
            (0, 9),  # out of range: a bare IndexError unchecked
            (-1, 0),
            (),  # order 0
            (1, 3),  # no unit
            (0.0, 2.0),  # floats: a bare IndexError on reading the elements unchecked
            (False, True),  # bools: likewise
        ],
    )
    def test_refuses_an_index_that_lists_no_subgroup(self, index):
        with pytest.raises(ValidationError) as e:
            Subgroup(gv.make_group([4]), index)
        assert e.value.code == "forms.bad_subgroup"

    def test_numpy_integer_entries_are_read_as_ints(self):
        g = gv.make_group([4])
        sub = Subgroup(g, tuple(np.array([0, 2])))
        assert sub == Subgroup(g, (0, 2)) and {type(i) for i in sub.index} == {int}
        assert sub.elements == ((0,), (2,)) and sub.invariant_factors == (2,)
        assert Subgroup(g, [0, 2]).index == (0, 2) == Subgroup(g, np.array([0, 2])).index

    @pytest.mark.parametrize(
        "shape, index",
        [
            ([8], (0, 1, 2)),  # a 3-part with no 3-torsion
            ([4], (0, 1)),  # 2-torsion {0} short of the 2-part
            ([2, 2], (0, 1, 2)),
            ([8], (0, 1, 2, 3)),
            ([8], (0, 1, 4, 7)),  # 2-torsion of size 2 twice: e_2 = 0
            ([4, 4], (0, 2, 8, 12)),  # 2-torsion of size 3
            ([4, 4], tuple(range(8))),  # torsion 1, 2, 8: e_1 = 1 < e_2 = 2
            ([2, 2, 2, 3], (0, 1, 2, 3, 4, 5, 6, 9, 12, 15, 18, 21)),  # 2-torsion 8 > 2-part 4
        ],
    )
    def test_refuses_statistics_no_subgroup_has(self, shape, index):
        with pytest.raises(ValidationError) as e:
            Subgroup(gv.make_group(shape), index).invariant_factors
        assert e.value.code == "forms.bad_subgroup"


class TestGaussSum:
    def test_semion(self):
        g = gv.make_group([2])
        gamma = gv.gauss_sum(gv.make_qform(g, [[F(1, 4)]]))
        assert abs(gamma - cmath.exp(1j * math.pi / 4)) < 1e-12

    def test_zero_form(self):
        g = gv.make_group([3, 4])
        assert abs(gv.gauss_sum(gv.make_qform(g, [[0, 0], [0, 0]])) - math.sqrt(12)) < 1e-12

    def test_klein(self):
        g = gv.make_group([2, 2])
        gamma = gv.gauss_sum(gv.make_qform(g, [[0, F(1, 4)], [F(1, 4), 0]]))
        assert abs(gamma - 1) < 1e-12

    def test_matches_reference(self):
        for factors in [(2,), (2, 4), (12,), (3, 3)]:
            g = gv.make_group(factors)
            for q in enumerate_qforms(g):
                assert abs(gv.gauss_sum(q) - gauss_sum_reference(q)) < 1e-12

    def test_large_integer_part(self):
        g = gv.make_group([300])
        big = gv.make_qform(g, [[2**50 + F(1, 600)]])
        small = gv.make_qform(g, [[F(1, 600)]])
        assert gv.gauss_sum(big) == gv.gauss_sum(small)
        assert abs(gv.gauss_sum(small) - cmath.exp(1j * math.pi / 4)) < 1e-9

    def test_capacity(self):
        g = gv.make_group([2] * 17)
        with pytest.raises(CapacityError) as e:
            gv.gauss_sum(gv.make_qform(g, [[0] * 17] * 17))
        assert e.value.code == "forms.capacity"

    def test_unit_modulus_iff_nondegenerate_small_orders(self):
        # every valid form on every group of order <= 16; the anomaly phase
        # relies on |gamma| = 1 for trivial radical without checking it
        for shape in group_shapes(16):
            g = gv.make_group(shape)
            for q in enumerate_qforms(g):
                if gv.radical(gv.bilinear(q)).is_trivial:
                    assert abs(abs(gv.gauss_sum(q)) - 1) < 1e-12


class TestEnumerateQForms:
    def test_counts_and_validity(self):
        # direct construction agrees with make_qform validation
        for shape in group_shapes(8):
            g = gv.make_group(shape)
            forms = list(enumerate_qforms(g))
            matrices = {f.matrix for f in forms}
            assert len(matrices) == len(forms)
            for f in forms:
                gv.make_qform(g, f.matrix)  # must not raise

    def test_qform_count_z2(self):
        g = gv.make_group([2])
        vals = sorted(q((1,)) for q in enumerate_qforms(g))
        assert vals == [F(0), F(1, 4), F(1, 2), F(3, 4)]


class TestSmithNormalForm:
    def test_ragged_refused(self):
        with pytest.raises(ValidationError) as e:
            gv.smith_normal_form([[1], [1, 2]])
        assert e.value.code == "forms.bad_matrix"

    def test_already_diagonal(self):
        u, d, v, _ = gv.smith_normal_form([[2, 0], [0, 2]])
        assert [d[i][i] for i in range(2)] == [2, 2]

    def test_a2_gram(self):
        u, d, v, _ = gv.smith_normal_form([[2, 1], [1, 2]])
        assert [d[i][i] for i in range(2)] == [1, 3]

    def test_scaled_a2(self):
        u, d, v, _ = gv.smith_normal_form([[4, 2], [2, 4]])
        assert [d[i][i] for i in range(2)] == [2, 6]

    @staticmethod
    def _check(a):
        m, n = len(a), len(a[0]) if a else 0
        u, d, v, sign = gv.smith_normal_form(a)
        assert mat_mul_int(mat_mul_int(u, a), v) == d
        # the tracked sign is det(U)·det(V), each of them a unit
        assert sign in (1, -1) and abs(det_reference(u)) == 1
        assert sign == det_reference(u) * det_reference(v)
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zeros must come last
            if diag[i] == 0:
                assert diag[i + 1] == 0
        # off-diagonal is zero
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        if m == n:
            assert det_reference(a) == sign * math.prod(diag)

    def test_sign_times_diagonal_is_the_determinant(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            _, d, _, sign = gv.smith_normal_form(a)
            assert sign * math.prod(d[i][i] for i in range(n)) == det_reference(a), a

    def test_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(220):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            self._check(a)

    def test_zero_and_rank_deficient(self):
        self._check([[0, 0], [0, 0]])
        self._check([[1, 2], [2, 4]])
        self._check([[6]])


def test_each_computation_has_one_name():
    for owner, name in [
        (gv, "make_bilinear"),
        (gv.forms, "make_bilinear"),
        (gv.forms, "_smith_normal_form"),
        (gv.FinAbGroup, "generators"),
        (gv.FinAbGroup, "sorted_elements"),
        (gv.BilinearForm, "against_generators"),
        (gv.BilinearForm, "_weights"),
    ]:
        assert not hasattr(owner, name), name
    g = gv.make_group([2, 3])
    assert isinstance(g.elements, tuple) and not callable(g.elements)
