import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import gvblocks as gv
from gvblocks import cli
from gvblocks.errors import ValidationError
from gvblocks.forms import det_int
from gvblocks.lattice import discriminant_data

F = Fraction


class TestMakeLattice:
    def test_a1(self):
        L = gv.make_lattice([[2]], [F(1, 2)])
        assert L.determinant == 2

    def test_not_even(self):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[3]], [0])
        assert e.value.code == "lattice.not_even"

    def test_degenerate(self):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[2, 2], [2, 2]], [0, 0])
        assert e.value.code == "lattice.degenerate"

    def test_xi_not_dual(self):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[8]], [F(1, 3)])
        assert e.value.code == "lattice.xi_not_dual"

    def test_xi_wrong_length(self):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[2]], [0, 0])
        assert e.value.code == "lattice.bad_xi"

    @pytest.mark.parametrize("entry", [0.5, 0.1, "x", "1/0", True])
    def test_inexact_xi_refused(self, entry):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[2]], [entry])
        assert e.value.code == "lattice.bad_xi"
        assert "exact rational" in e.value.message

    def test_exact_xi_entries_accepted(self):
        for entry, value in [(1, F(1)), (np.int64(1), F(1)), ("1/2", F(1, 2)), (F(1, 2), F(1, 2))]:
            (xi,) = gv.make_lattice([[2]], [entry]).xi
            assert xi == value and type(xi.numerator) is int

    def test_not_square(self):
        with pytest.raises(ValidationError) as e:
            gv.make_lattice([[2, 0]], [0, 0])
        assert e.value.code == "lattice.bad_matrix"

    def test_asymmetric(self):
        with pytest.raises(ValidationError):
            gv.make_lattice([[2, 1], [0, 2]], [0, 0])


class TestDiscriminantGroup:
    def test_element_of_refuses_a_vector_outside_the_dual(self):
        L = gv.make_lattice([[4]], [0])
        with pytest.raises(ValidationError) as e:
            discriminant_data(L).element_of(L, [F(1, 8)])
        assert e.value.code == "lattice.xi_not_dual"

    def test_a1(self):
        data = discriminant_data(gv.make_lattice([[2]], [0]))
        group, lifts = data.group, data.lifts
        assert group.invariant_factors == (2,)
        assert lifts == ((F(1, 2),),)

    def test_square_two(self):
        group = discriminant_data(gv.make_lattice([[2, 0], [0, 2]], [0, 0])).group
        assert group.invariant_factors == (2, 2)

    def test_a2(self):
        group = discriminant_data(gv.make_lattice([[2, 1], [1, 2]], [0, 0])).group
        assert group.invariant_factors == (3,)

    def test_order_is_determinant_randomized(self):
        rng = random.Random(31)
        built = 0
        while built < 60:
            k = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            gram = [[m[i][j] + m[j][i] for j in range(k)] for i in range(k)]
            if any(abs(x) > 10 for row in gram for x in row):
                continue
            if det_int(gram) == 0:
                continue
            L = gv.make_lattice(gram, [0] * k)
            group = discriminant_data(L).group
            assert group.order == abs(L.determinant)
            built += 1

    def test_lifts_generate(self):
        # d_i * lift_i lies in the lattice and lifts map to the generators
        for gram in [[[2]], [[8]], [[2, 1], [1, 2]], [[4, 2], [2, 4]], [[2, 0], [0, 6]]]:
            L = gv.make_lattice(gram, [0] * len(gram))
            data = discriminant_data(L)
            for i, lift in enumerate(data.lifts):
                d = data.group.invariant_factors[i]
                assert all((d * c).denominator == 1 for c in lift)
                assert data.element_of(L, lift) == data.group.generator(i)


class TestDiscriminantForm:
    def test_a1_semion(self):
        q = gv.discriminant_form(gv.make_lattice([[2]], [0]))
        assert q((1,)) == F(1, 4)

    def test_z8(self):
        q = gv.discriminant_form(gv.make_lattice([[8]], [0]))
        for k in range(8):
            assert q((k,)) == F(k * k, 16) % 1

    def test_a2(self):
        q = gv.discriminant_form(gv.make_lattice([[2, 1], [1, 2]], [0, 0]))
        assert q((1,)) == F(1, 3)

    def test_lift_independence(self):
        # shifting a dual vector by lattice vectors leaves its class and q value
        rng = random.Random(8)
        for gram in [[[2]], [[8]], [[2, 1], [1, 2]], [[6, 2], [2, 4]]]:
            L = gv.make_lattice(gram, [0] * len(gram))
            data = discriminant_data(L)
            q = gv.discriminant_form(L)
            k = L.rank
            for _ in range(20):
                x = data.group.reduce([rng.randrange(n) for n in data.group.invariant_factors])
                lift = tuple(
                    sum(data.lifts[i][r] * x[i] for i in range(data.group.rank))
                    for r in range(k)
                )
                shift = [rng.randint(-3, 3) for _ in range(k)]
                shifted = tuple(lift[r] + shift[r] for r in range(k))
                assert data.element_of(L, shifted) == x
                pair = sum(
                    shifted[i] * gram[i][j] * shifted[j] for i in range(k) for j in range(k)
                )
                assert (pair / 2) % 1 == q(x)

    def test_forms_validate(self):
        rng = random.Random(12)
        built = 0
        while built < 30:
            k = rng.randint(1, 3)
            m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            gram = [[m[i][j] + m[j][i] for j in range(k)] for i in range(k)]
            if det_int(gram) == 0:
                continue
            q = gv.discriminant_form(gv.make_lattice(gram, [0] * k))
            gv.make_qform(q.group, q.matrix)  # must not raise
            built += 1


class TestToPointedGV:
    def test_a1_zero_xi(self):
        C = gv.to_pointed_gv(gv.make_lattice([[2]], [0]))
        assert C.group.invariant_factors == (2,)
        assert C.qform((1,)) == F(1, 4)
        assert C.h0 == (0,)

    def test_z8_xi(self):
        C = gv.to_pointed_gv(gv.make_lattice([[8]], [F(1, 8)]))
        assert C.group.invariant_factors == (8,)
        assert C.h0 == (1,)
        assert C.g0 == (2,)
        assert C.qform((1,)) == F(1, 16)

    def test_a1_half_xi(self):
        C = gv.to_pointed_gv(gv.make_lattice([[2]], [F(1, 2)]))
        assert C.h0 == (1,)
        assert C.g0 == (0,)

    def test_nondegenerate_for_full_rank(self):
        rng = random.Random(77)
        built = 0
        while built < 40:
            k = rng.randint(1, 3)
            m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            gram = [[m[i][j] + m[j][i] for j in range(k)] for i in range(k)]
            d = det_int(gram)
            if d == 0 or abs(d) > 64:
                continue
            C = gv.to_pointed_gv(gv.make_lattice(gram, [0] * k))
            assert gv.verdicts(C).nondegenerate
            built += 1


class TestSmithFormOncePerLattice:
    """One Smith normal form and one determinant per lattice, however many
    of its discriminant results a command reads."""

    A2 = {"gram": [[2, 1], [1, 2]], "xi": ["1/3", "1/3"]}

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"smith_normal_form": 0, "det_int": 0}
        for name in calls:
            original = getattr(gv.forms, name)

            def counted(mat, name=name, original=original):
                calls[name] += 1
                return original(mat)

            for module_name, module in list(sys.modules.items()):
                if module_name.partition(".")[0] == "gvblocks" and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_to_pointed_gv(self, calls):
        C = gv.to_pointed_gv(gv.make_lattice(self.A2["gram"], self.A2["xi"]))
        assert C.group.invariant_factors == (3,) and C.h0 == (1,)
        assert calls == {"smith_normal_form": 1, "det_int": 1}

    @pytest.mark.parametrize("command", ["lattice", "inspect"])
    def test_cli_command(self, calls, command, tmp_path, capsys):
        config = tmp_path / "a2.json"
        config.write_text(json.dumps({"category": {"lattice": self.A2}}), encoding="utf-8")
        assert cli.main([command, "--config", str(config)]) == 0
        capsys.readouterr()
        assert calls == {"smith_normal_form": 1, "det_int": 1}
