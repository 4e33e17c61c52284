import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import gvblocks as gv
from gvblocks.errors import CapacityError, ValidationError
from gvblocks.forms import enumerate_qforms
from gvblocks.pointed import PointedGVCategory

from conftest import (
    axiom_violation,
    axioms_reference,
    group_shapes,
    make_pointed,
    radical_reference,
    random_qform,
    twist_table,
)

F = Fraction


class TestStructure:
    def test_semion(self, semion):
        assert semion.g0 == (0,)
        assert semion.theta((1,)) == F(1, 4)
        assert semion.dual((1,)) == (1,)
        assert semion.kappa((1,), (1,)) == 1
        assert semion.kappa((1,), (0,)) == 0

    def test_trivial(self, trivial_cat):
        assert trivial_cat.g0 == (0,)
        assert trivial_cat.theta((0,)) == 0

    def test_z8_feigin_fuchs(self, z8_ff):
        assert z8_ff.g0 == (2,)
        for k in range(8):
            assert z8_ff.dual((k,)) == ((2 - k) % 8,)
            assert z8_ff.theta((k,)) == (F(k * k, 16) - F(2 * k, 16)) % 1

    def test_duality_involution_and_pairing(self, z8_ff, klein, semion):
        for C in (z8_ff, klein, semion):
            for x in C.group.elements():
                assert C.dual(C.dual(x)) == x
                assert C.kappa(x, C.dual(x)) == 1

    def test_theta_equals_q_when_h0_zero(self):
        for factors, mat in [
            ([2], [[F(1, 4)]]),
            ([3], [[F(1, 3)]]),
            ([2, 2], [[0, F(1, 4)], [F(1, 4), 0]]),
            ([8], [[F(1, 16)]]),
        ]:
            C = make_pointed(factors, mat, tuple([0] * len(factors)))
            for x in C.group.elements():
                assert C.theta(x) == C.qform(x)


class TestAxioms:
    @pytest.mark.parametrize(
        "fixture", ["semion", "z3", "z8_ff", "klein", "trivial_cat", "z2_flat"]
    )
    def test_fixtures_pass(self, fixture, request):
        C = request.getfixturevalue(fixture)
        report = gv.check_axioms(C)
        assert report.all_passed, report.failed()

    def test_sampled_forms_pass_up_to_64(self):
        rng = random.Random(13)
        for factors in [(4,), (2, 4), (3, 3), (16,), (2, 2, 2, 2), (8, 8), (63,)]:
            G = gv.make_group(factors)
            forms = list(enumerate_qforms(G))
            for q in rng.sample(forms, min(4, len(forms))):
                # h0 with 2*h0 reachable: any element works as h0
                h0 = G.reduce([rng.randrange(n) for n in factors])
                C = gv.make_category(G, q, h0)
                assert gv.check_axioms(C).all_passed

    def test_broken_twist_fails_ribbon(self, z8_ff):
        report = gv.check_axioms(z8_ff, twist=z8_ff.qform)
        failed = {c.name for c in report.failed()}
        assert "ribbon" in failed
        witness = next(c.witness for c in report.checks if c.name == "ribbon")
        assert witness is not None
        (x,) = witness
        assert z8_ff.qform(z8_ff.dual(x)) != z8_ff.qform(x)

    def test_capacity(self):
        G = gv.make_group([2] * 13)
        q = gv.make_qform(G, [[0] * 13] * 13)
        with pytest.raises(CapacityError):
            gv.check_axioms(gv.make_category(G, q, G.zero))

    def test_matches_reference(self, semion, z3, z8_ff, klein, trivial_cat, z2_flat):
        rng = random.Random(23)
        cases = [(C, None) for C in (semion, z3, z8_ff, klein, trivial_cat, z2_flat)]
        cases.append((z8_ff, z8_ff.qform))
        for factors in [(6,), (2, 4), (3, 3), (129,), (2, 65)]:
            G = gv.make_group(factors)
            h0 = G.reduce([rng.randrange(n) for n in factors])
            C = gv.make_category(G, random_qform(rng, G), h0)
            cases.append((C, None))
            for x in (G.zero, G.reduce([rng.randrange(n) for n in factors])):
                broken = twist_table(C)
                broken[x] = (broken[x] + F(1, 2)) % 1
                cases.append((C, broken.__getitem__))
        # matrices that are not well defined on the group break the braiding
        for factors, mat in [((3,), [[F(1, 4)]]), ((200,), [[F(1, 3)]]), ((2, 100), [[0, 0], [0, F(1, 3)]])]:
            G = gv.make_group(factors)
            q = gv.QForm(G, tuple(tuple(F(a) for a in row) for row in mat))
            cases.append((PointedGVCategory(G, q, G.zero), None))
        failed = set()
        for C, twist in cases:
            report = gv.check_axioms(C, twist=twist)
            assert {c.name: c.witness for c in report.checks} == axioms_reference(C, twist)
            assert all(c.passed == (c.witness is None) for c in report.checks)
            failed |= {c.name for c in report.failed()}
        assert failed == {c.name for c in report.checks}

    def test_exhaustive_above_1024(self):
        for factors, mat in [
            ((4096,), [[F(1, 8192)]]),
            ((64, 64), [[F(1, 128), F(1, 64)], [F(1, 64), F(3, 128)]]),
        ]:
            G = gv.make_group(factors)
            C = gv.make_category(G, gv.make_qform(G, mat), G.zero)
            assert gv.check_axioms(C).all_passed

    def test_stops_once_both_witnesses_are_found(self, monkeypatch):
        # Z/2048 runs in 64 blocks of 32 rows; a matrix that is not well
        # defined on the group breaks multiplicativity within the first,
        # and biadditivity is read off the matrix without a scan
        G = gv.make_group([2048])
        C = PointedGVCategory(G, gv.QForm(G, ((F(1, 3),),)), G.zero)
        chunks = []
        add_index = gv.FinAbGroup.add_index
        monkeypatch.setattr(
            gv.FinAbGroup, "add_index", lambda g, rows: chunks.append(rows) or add_index(g, rows)
        )
        report = gv.check_axioms(C)
        assert chunks == gv.forms._chunks(2048)[:1] == [slice(0, 32)]
        assert {c.name: c.witness for c in report.checks} == axioms_reference(C)
        assert {"braiding biadditive", "twist multiplicative"} <= {c.name for c in report.failed()}

    def test_broken_twist_above_1024(self):
        G = gv.make_group([2048])
        C = gv.make_category(G, gv.make_qform(G, [[F(1, 4096)]]), (0,))
        th = twist_table(C)
        th[(5,)] = (th[(5,)] + F(1, 2)) % 1
        report = gv.check_axioms(C, twist=th.__getitem__)
        failed = report.failed()
        assert {c.name for c in failed} == {"twist multiplicative", "ribbon", "pairing balance"}
        for c in failed:
            assert axiom_violation(C, th, c.name, c.witness)

    def test_twist_denominator_beyond_int64(self):
        G = gv.make_group([4])
        C = gv.make_category(G, gv.make_qform(G, [[F(1, 8)]]), (0,))
        th = twist_table(C)
        th[(3,)] += F(1, 3 * 2**61 + 1)
        report = gv.check_axioms(C, twist=th.__getitem__)
        assert report.failed()
        assert {c.name: c.witness for c in report.checks} == axioms_reference(C, th.__getitem__)
        for c in report.failed():
            assert axiom_violation(C, th, c.name, c.witness)


class TestAxiomDecision:
    @pytest.mark.parametrize(
        "factors, mat",
        [((4096,), [[F(1, 8192)]]), ((64, 64), [[F(1, 128), F(1, 64)], [F(1, 64), F(3, 128)]])],
    )
    def test_passing_suite_scans_no_pair(self, factors, mat, monkeypatch):
        G = gv.make_group(factors)
        C = gv.make_category(G, gv.make_qform(G, mat), G.zero)
        calls = []
        monkeypatch.setattr(gv.FinAbGroup, "add_index", lambda g, rows: calls.append(rows))
        assert gv.check_axioms(C).all_passed
        assert calls == []

    def test_matches_reference_every_shape_up_to_16(self):
        rng = random.Random(71)
        for shape in group_shapes(16):
            G = gv.make_group(shape)
            forms = list(enumerate_qforms(G))
            for q in rng.sample(forms, min(6, len(forms))):
                C = gv.make_category(G, q, G.reduce([rng.randrange(n) for n in shape]))
                broken = twist_table(C)
                x = G.reduce([rng.randrange(n) for n in shape])
                broken[x] = (broken[x] + F(1, 2)) % 1
                for twist in (None, broken.__getitem__):
                    report = gv.check_axioms(C, twist=twist)
                    assert {c.name: c.witness for c in report.checks} == axioms_reference(
                        C, twist
                    ), (shape, q.matrix, C.h0, twist and x)

    def test_rank_zero_twist_unit(self):
        # no generator identity constrains theta(0) on the rank-0 group
        G = gv.make_group([])
        C = gv.make_category(G, gv.make_qform(G, []), ())
        twist = lambda x: F(1, 2)
        report = gv.check_axioms(C, twist=twist)
        assert {c.name: c.witness for c in report.checks} == axioms_reference(C, twist)
        assert {c.name for c in report.failed()} == {"twist multiplicative", "twist unit"}

    def test_unvalidated_matrices_match_reference(self):
        # asymmetric or not well defined on the group: the decision must
        # still agree with the exhaustive reference.  On Z/4 with q = x²/16
        # every generator identity of the twist holds, yet neither
        # biadditivity nor multiplicativity does.
        rng = random.Random(5)
        cases = [((4,), ((F(1, 16),),))]
        for shape in [(2, 4), (4, 4), (2, 2, 2), (1, 4), (2, 1, 3), (2, 63), (2, 65), (1, 127),
                      (1, 129), (1, 2, 67)]:
            for _ in range(8):
                mat = tuple(tuple(F(rng.randrange(16), 16) for _ in shape) for _ in shape)
                cases.append((shape, mat))
        for shape, mat in cases:
            G = gv.make_group(shape)
            C = PointedGVCategory(G, gv.QForm(G, mat), G.zero)
            report = gv.check_axioms(C)
            assert {c.name: c.witness for c in report.checks} == axioms_reference(C), mat


    @staticmethod
    def unvalidated(shape, mat):
        G = gv.make_group(shape)
        return PointedGVCategory(G, gv.QForm(G, tuple(tuple(F(a) for a in r) for r in mat)), G.zero)

    @staticmethod
    def biadditivity(C):
        return next(c for c in gv.check_axioms(C).checks if c.name == "braiding biadditive")

    @pytest.mark.parametrize("shape", [(1, 127), (1, 129)])
    def test_factor_of_one_has_no_generator(self, shape):
        # e_0 = 0 on Z/1, so b's entries in row and column 0 never show
        C = self.unvalidated(shape, [[0, F(1, 4)], [F(1, 4), 0]])
        check = self.biadditivity(C)
        assert check.passed and check.witness is None

    @pytest.mark.parametrize("shape", [(2, 63), (2, 65)])
    def test_witness_is_the_last_failing_entry_of_the_last_failing_row(self, shape):
        C = self.unvalidated(shape, [[F(1, 8), F(1, 8)], [0, 0]])
        check = self.biadditivity(C)
        assert check.witness == ((1, 0), (1, 0), (0, 1))
        assert axiom_violation(C, twist_table(C), check.name, check.witness)

    def test_failing_biadditivity_builds_no_triple_table(self):
        C = self.unvalidated((128,), [[F(1, 3)]])
        tracemalloc.start()
        try:
            report = gv.check_axioms(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "braiding biadditive" in {c.name for c in report.failed()}
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("value", [0.5, None, True])
    def test_twist_value_that_is_not_exact_is_refused(self, z8_ff, value):
        with pytest.raises(ValidationError) as e:
            gv.check_axioms(z8_ff, twist=lambda x: value)
        assert e.value.code == "forms.bad_rational"

    def test_twist_values_as_rational_strings(self, z8_ff):
        th = twist_table(z8_ff)
        th[(3,)] = (th[(3,)] + F(1, 2)) % 1
        as_text = gv.check_axioms(z8_ff, twist=lambda x: str(th[x]))
        assert as_text == gv.check_axioms(z8_ff, twist=th.__getitem__)
        assert not as_text.all_passed


class TestMakeCategory:
    def test_group_mismatch(self):
        q = gv.make_qform(gv.make_group([2]), [[F(1, 4)]])
        with pytest.raises(ValidationError) as e:
            gv.make_category(gv.make_group([3]), q, (0,))
        assert e.value.code == "pointed.group_mismatch"

    def test_group_mismatch_under_optimize(self):
        # python -O strips assert statements; the check must not be one
        code = (
            "import gvblocks as gv\n"
            "q = gv.make_qform(gv.make_group([2]), [['1/4']])\n"
            "try:\n"
            "    gv.make_category(gv.make_group([3]), q, (0,))\n"
            "except gv.ValidationError as e:\n"
            "    print(e.code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gv.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.stdout.strip() == "pointed.group_mismatch", out.stderr


class TestMuegerCenter:
    def test_semion(self, semion):
        c = gv.mueger_center(semion)
        assert c.radical.is_trivial and c.balanced.is_trivial

    def test_flat_z2(self, z2_flat):
        c = gv.mueger_center(z2_flat)
        assert c.radical.order == 2
        assert c.balanced.order == 2  # theta == 0 everywhere

    def test_half_twist_transparent(self):
        C = make_pointed([2], [[F(1, 2)]], (0,))
        c = gv.mueger_center(C)
        assert c.radical.order == 2  # b(1,1) = 2*q(1) = 0
        assert c.balanced.order == 1  # theta(1) = 1/2 != 0

    def test_klein(self, klein):
        c = gv.mueger_center(klein)
        assert c.radical.is_trivial

    def test_matches_reference(self):
        rng = random.Random(29)
        for factors in [(2,), (4,), (2, 2), (2, 4), (8,), (3, 6)]:
            G = gv.make_group(factors)
            for q in enumerate_qforms(G):
                C = gv.make_category(G, q, G.reduce([rng.randrange(n) for n in factors]))
                th = twist_table(C)
                rad = radical_reference(q)
                assert gv.mueger_center(C).balanced.elements == tuple(x for x in rad if th[x] == 0)


class TestVerdicts:
    def test_semion(self, semion):
        v = gv.verdicts(semion)
        assert v.nondegenerate and v.cofactorizable and v.modular
        assert v.connected is True and v.extension_unique is True

    def test_z8_ff_not_modular_but_connected(self, z8_ff):
        v = gv.verdicts(z8_ff)
        assert v.nondegenerate and v.cofactorizable
        assert not v.modular  # g0 = 2 != 0
        assert v.connected is True

    def test_degenerate(self, z2_flat):
        v = gv.verdicts(z2_flat)
        assert not v.nondegenerate and not v.cofactorizable and not v.modular
        assert v.connected is None and v.extension_unique is None

    def test_implication_chain(self):
        rng = random.Random(19)
        cats = []
        for factors in [(2,), (3,), (4,), (2, 2), (2, 4), (8,), (5,)]:
            G = gv.make_group(factors)
            forms = list(enumerate_qforms(G))
            for q in rng.sample(forms, min(5, len(forms))):
                h0 = G.reduce([rng.randrange(n) for n in factors])
                cats.append(gv.make_category(G, q, h0))
        for C in cats:
            v = gv.verdicts(C)
            if v.modular:
                assert v.cofactorizable
            if v.cofactorizable:
                assert v.connected is True
