import ast
import cmath
import dataclasses
import math
import pathlib
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gvblocks as gv
from gvblocks.errors import DegenerateDataError, UnsupportedError
from gvblocks.forms import enumerate_qforms

from conftest import group_shapes, make_pointed, relations_reference, st_reference

F = Fraction


class TestSTMatrices:
    def test_semion_golden(self, semion):
        md = gv.st_matrices(semion)
        S, T = md.S, np.diag(md.T)
        assert np.abs(S - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12
        assert np.abs(T - np.diag([1, 1j])).max() < 1e-12
        st3 = np.linalg.matrix_power(S @ T, 3)
        assert np.abs(st3 - cmath.exp(1j * math.pi / 4) * np.eye(2)).max() < 1e-12
        assert np.abs(S @ S - np.eye(2)).max() < 1e-12

    def test_z3(self, z3):
        md = gv.st_matrices(z3)
        w = cmath.exp(2j * math.pi / 3)
        assert np.abs(np.diag(md.T) - np.diag([1, w, w])).max() < 1e-12
        for x in range(3):
            for y in range(3):
                expected = cmath.exp(-2j * math.pi * (2 * x * y % 3) / 3) / math.sqrt(3)
                assert abs(md.S[x, y] - expected) < 1e-12

    def test_h0_nonzero_refused(self, z8_ff):
        with pytest.raises(UnsupportedError) as e:
            gv.st_matrices(z8_ff)
        assert e.value.code == "torus.unsupported"

    def test_degenerate_refused(self, z2_flat):
        with pytest.raises(DegenerateDataError):
            gv.st_matrices(z2_flat)

    def test_s_and_table_defect_match_int64_reference(self):
        cats = [
            gv.make_category(G, q, G.zero)
            for G in map(gv.make_group, group_shapes(16))
            for q in enumerate_qforms(G)
        ]
        cats = [C for C in cats if C.radical.is_trivial]
        cats += [
            make_pointed([1], [[0]], (0,)),
            gv.to_pointed_gv(gv.make_lattice([], [])),
            make_pointed([1024], [[F(1, 2048)]], (0,)),
            make_pointed([32, 32], [[F(1, 64), 0], [0, F(1, 64)]], (0, 0)),
            # sums up to 728^2, and N = 729 does not divide a power of two
            make_pointed([729], [[F(1, 729)]], (0,)),
        ]
        for C in cats:
            md = gv.st_matrices(C)
            S, defect, index = st_reference(C)
            # S is the character table read back off its own angles, bit for bit
            assert md.S.tobytes() == S.tobytes() and defect == 0, C
            assert np.array_equal(md._table.index, index), C
        assert len(cats) > 8000

    def test_one_root_table_per_call(self, monkeypatch):
        calls = []
        root_table = gv.torus._root_table

        def counting(N, W, group):
            calls.append(N)
            return root_table(N, W, group)

        for module in (gv.blocks, gv.torus):  # every module that may bind the kernel
            monkeypatch.setattr(module, "_root_table", counting, raising=False)
        md = gv.st_matrices(make_pointed([2, 256], [[F(1, 4), 0], [0, F(3, 512)]], (0, 0)))
        assert calls == [256]  # the denominator of b: 2 * 3/512 = 3/256
        assert gv.check_relations(md).path == "fourier" and calls == [256]

    def test_peak_memory_is_s_and_one_block(self):
        C = make_pointed([1024], [[F(1, 2048)]], (0,))
        gv.st_matrices(C)  # fills the cached group and form tables
        tracemalloc.start()
        try:
            md = gv.st_matrices(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= md.S.nbytes + 2 * 2**20


class TestRelations:
    def test_semion(self, semion):
        rel = gv.check_relations(gv.st_matrices(semion))
        assert abs(rel.lam - cmath.exp(1j * math.pi / 4)) < 1e-12
        assert rel.max_residual < 1e-12

    def test_ising_lambda(self):
        rel = gv.check_relations(gv.builtin_modular_data("ising"))
        assert abs(rel.lam - cmath.exp(1j * math.pi / 8)) < 1e-9
        assert rel.max_residual < 1e-9

    def test_identity_data(self):
        md = gv.torus.make_modular_data(("1",), np.eye(1), np.ones(1), (0,))
        rel = gv.check_relations(md)
        assert abs(rel.lam - 1) < 1e-15 and rel.max_residual < 1e-15

    def test_dense_path_refuses_vanishing_vacuum_of_s_squared(self):
        # unitary and symmetric, but (S^2)_00 = (1 + i^2)/2 = 0
        S = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        md = gv.torus.make_modular_data(("0", "1"), S, [1, 1], (0, 1))
        with pytest.raises(DegenerateDataError) as e:
            gv.check_relations(md)
        assert e.value.code == "torus.degenerate"

    def test_lambda_equals_gauss_sum_all_small_groups(self):
        # quick slice; the full |G| <= 16 sweep is acceptance criterion 3
        for shape in group_shapes(12):
            G = gv.make_group(shape)
            for q in enumerate_qforms(G):
                C = gv.make_category(G, q, G.zero)
                try:
                    md = gv.st_matrices(C)
                except DegenerateDataError:
                    continue
                rel = gv.check_relations(md)
                assert abs(rel.lam - gv.gauss_sum(q)) < 1e-9, (shape, q.matrix)
                assert rel.residual_unitary < 1e-9
                assert rel.residual_st3 < 1e-9
                assert rel.residual_s2 < 1e-12

    def test_s_squared_is_negation_permutation(self, z3):
        md = gv.st_matrices(z3)
        s2 = md.S @ md.S
        P = np.zeros((3, 3))
        for i, x in enumerate(md.elements):
            P[i, md.elements.index(((-x[0]) % 3,))] = 1
        assert np.abs(s2 - P).max() < 1e-12


def assert_matches_reference(md, path):
    rel = gv.check_relations(md)
    lam, st3, s2, unitary = relations_reference(md)
    assert rel.path == path
    assert abs(rel.lam - lam) < 1e-12
    assert abs(rel.residual_st3 - st3) < 1e-12
    assert abs(rel.residual_s2 - s2) < 1e-12
    assert abs(rel.residual_unitary - unitary) < 1e-12
    return rel


E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, -1],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 0, 0, 2],
]


def z4_data():
    G = gv.make_group([4])
    return gv.st_matrices(gv.make_category(G, gv.make_qform(G, [[F(1, 8)]]), (0,)))


def perturbed(md, delta=1e-6):
    S = md.S.copy()
    S[1, 1] += delta
    return S


class TestFourierRelations:
    def test_matches_dense_reference_all_small_groups(self):
        count = 0
        for shape in group_shapes(16):
            G = gv.make_group(shape)
            for q in enumerate_qforms(G):
                try:
                    md = gv.st_matrices(gv.make_category(G, q, G.zero))
                except DegenerateDataError:
                    continue
                assert_matches_reference(md, "fourier")
                count += 1
        assert count == 8000

    def test_order_one_group_and_rank_zero_lattice(self, trivial_cat):
        E8 = gv.to_pointed_gv(gv.make_lattice(E8_GRAM, ["0"] * 8))
        assert E8.group.invariant_factors == ()
        for C in (trivial_cat, E8):
            rel = assert_matches_reference(gv.st_matrices(C), "fourier")
            assert rel.lam == 1 and rel.max_residual == 0

    def test_z8_z16_z16_passes(self):
        C = make_pointed([8, 16, 16], [[F(1, 16), 0, 0], [0, F(1, 32), 0], [0, 0, F(1, 32)]], (0, 0, 0))
        rel = gv.check_relations(gv.st_matrices(C))
        assert rel.path == "fourier" and rel.passed
        assert abs(rel.lam - gv.anomaly(C).gamma) < 1e-9

    def test_perturbed_s_takes_dense_path(self):
        md = z4_data()
        rel = assert_matches_reference(dataclasses.replace(md, S=perturbed(md)), "dense")
        assert rel.residual_unitary > 1e-7

    def test_group_mismatch_takes_dense_path(self):
        md = z4_data()
        assert_matches_reference(dataclasses.replace(md, group=gv.make_group([2, 2])), "dense")

    def test_other_conjugation_takes_dense_path(self):
        # the Fourier path reads S^2 - P off the table only for P = negation
        md = z4_data()
        rel = assert_matches_reference(dataclasses.replace(md, conjugation=tuple(range(4))), "dense")
        assert rel.residual_s2 > 1

    def test_broken_t_on_fourier_path_matches_reference(self):
        # random phases break (ST)^3 = lam S^2, so lam depends on reading
        # the vacuum column; Z/2 x Z/256 runs over four column blocks
        C = make_pointed([2, 256], [[F(1, 4), 0], [0, F(3, 512)]], (0, 0))
        md = gv.st_matrices(C)
        phases = np.exp(2j * math.pi * np.random.default_rng(1).random(md.rank))
        data = dataclasses.replace(md, T=phases)
        object.__setattr__(data, "_table", md._table)  # S, and so its table, is unchanged
        rel = assert_matches_reference(data, "fourier")
        assert rel.residual_st3 > 1

    def test_one_transform_per_column_block(self, monkeypatch):
        md = gv.st_matrices(make_pointed([1024], [[F(1, 2048)]], (0,)))
        calls = []
        fftn = np.fft.fftn

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return fftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counting)
        assert gv.check_relations(md).path == "fourier"
        assert len(calls) == len(gv.forms._chunks(1024)) == 16

    def test_make_modular_data_rejects_perturbed_s(self):
        md = z4_data()
        with pytest.raises(gv.ValidationError, match="S is not unitary"):
            gv.torus.make_modular_data(md.labels, perturbed(md), md.T, md.conjugation)

    def test_table_with_repeated_rows_is_not_trusted(self):
        # S_xy = e(-2xy/4)/2 on Z/4 is a character table read off exactly,
        # but x -> 2x is not a bijection, so it is not unitary
        md = z4_data()
        x = np.arange(4)
        S = np.exp(-2j * math.pi * np.outer(2 * x, x) / 4) / 2
        with pytest.raises(gv.ValidationError, match="S is not unitary"):
            gv.torus.make_modular_data(md.labels, S, md.T, md.conjugation)
        rel = assert_matches_reference(dataclasses.replace(md, S=S), "dense")
        assert not rel.passed


class TestStoredTable:
    def test_direct_construction_gives_identical_report(self):
        for factors, mat in [
            ([4], [[F(1, 8)]]),
            ([3, 9], [[F(1, 3), 0], [0, F(1, 9)]]),
            ([512], [[F(1, 1024)]]),
        ]:
            md = gv.st_matrices(make_pointed(factors, mat, (0,) * len(factors)))
            direct = gv.torus.ModularData(md.labels, md.S, md.T, md.conjugation, group=md.group)
            assert md._table is not None and direct._table is None
            validated = gv.torus.make_modular_data(md.labels, md.S, md.T, md.conjugation)
            rel = assert_matches_reference(direct, "dense")
            assert rel == gv.check_relations(validated)
            fourier = gv.check_relations(md)
            assert abs(rel.lam - fourier.lam) < 1e-12
            assert abs(rel.residual_st3 - fourier.residual_st3) < 1e-12

    def test_replace_carries_no_table(self):
        md = z4_data()
        assert dataclasses.replace(md)._table is None
        assert dataclasses.replace(md, group=gv.make_group([2, 2]))._table is None

    def test_s_is_read_only_and_the_callers_array_is_not(self):
        md = z4_data()
        assert not md.S.flags.writeable
        assert not md.T.flags.writeable and md.T.shape == (4,)
        S, T = md.S.copy(), md.T.copy()
        data = gv.torus.make_modular_data(md.labels, S, T, md.conjugation)
        assert not data.S.flags.writeable and S.flags.writeable
        assert not data.T.flags.writeable and T.flags.writeable
        view = gv.torus.make_modular_data(md.labels, S[:, :], md.T, md.conjugation)
        assert not np.shares_memory(view.S, S)
        S[0, 0] = 7
        assert data.S[0, 0] == view.S[0, 0] == md.S[0, 0]

    @pytest.mark.parametrize("order, entry", [(4, (1, 2)), (512, (300, 10))])
    def test_near_table_but_not_exactly_symmetric_takes_dense_path(self, order, entry):
        # Z/512 validates in four row blocks; (300, 10) lies below the diagonal
        md = gv.st_matrices(make_pointed([order], [[F(1, 2 * order)]], (0,)))
        S = md.S.copy()
        S[entry] += 1e-14
        data = gv.torus.make_modular_data(md.labels, S, md.T, md.conjugation)
        assert_matches_reference(data, "dense")
        S[entry] += 1e-6
        with pytest.raises(gv.ValidationError, match="S is not symmetric"):
            gv.torus.make_modular_data(md.labels, S, md.T, md.conjugation)

    def test_fourier_path_over_several_column_blocks(self):
        # 2^16 entries per block: Z/2 x Z/256 runs in four blocks of 128 columns
        C = make_pointed([2, 256], [[F(1, 4), 0], [0, F(3, 512)]], (0, 0))
        assert_matches_reference(gv.st_matrices(C), "fourier")


class TestModularDataHome:
    def test_torus_never_imports_blocks_and_no_import_is_local(self):
        package = pathlib.Path(gv.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                    assert not local, f"{path.name}: {node.name} imports in its body"
        imported = set()
        for node in ast.walk(ast.parse((package / "torus.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name.removeprefix("gvblocks.") for a in node.names}
        assert "blocks" not in imported

    def test_validation_peaks_at_the_copy_of_s_plus_blocks(self):
        md = gv.st_matrices(make_pointed([1024], [[F(1, 2048)]], (0,)))
        tracemalloc.start()
        try:
            data = gv.torus.make_modular_data(md.labels, md.S, md.T, md.conjugation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.S.tobytes() == md.S.tobytes()
        assert peak < md.S.nbytes + 4 * 2**20


class TestAnomaly:
    def test_semion(self, semion):
        rep = gv.anomaly(semion)
        assert abs(rep.gamma - cmath.exp(1j * math.pi / 4)) < 1e-12
        assert abs(rep.central_charge_mod8 - 1) < 1e-9

    def test_klein(self, klein):
        rep = gv.anomaly(klein)
        assert abs(rep.gamma - 1) < 1e-12
        assert abs(rep.central_charge_mod8 - 0) < 1e-9

    def test_conjugate_semion(self):
        C = make_pointed([2], [[F(3, 4)]], (0,))
        rep = gv.anomaly(C)
        assert abs(rep.gamma - cmath.exp(-1j * math.pi / 4)) < 1e-12
        assert abs(rep.central_charge_mod8 - 7) < 1e-9

    def test_refusals(self, z8_ff, z2_flat):
        with pytest.raises(UnsupportedError):
            gv.anomaly(z8_ff)
        with pytest.raises(DegenerateDataError):
            gv.anomaly(z2_flat)

    def test_anomaly_scales_lambda(self):
        # lambda of the relation check is exactly the anomaly phase
        rng = random.Random(6)
        for shape in [(5,), (7,), (8,), (3, 3), (4, 4)]:
            G = gv.make_group(shape)
            forms = [
                q
                for q in enumerate_qforms(G)
                if gv.radical(gv.bilinear(q)).is_trivial
            ]
            for q in rng.sample(forms, min(3, len(forms))):
                C = gv.make_category(G, q, G.zero)
                rel = gv.check_relations(gv.st_matrices(C))
                assert abs(rel.lam - gv.anomaly(C).gamma) < 1e-9


class TestFusion:
    def test_pointed_z3_matches_group_law(self, z3):
        md = gv.st_matrices(z3)
        rep = gv.fusion_from_s(md)
        assert rep.residual < 1e-9
        idx = {x: i for i, x in enumerate(md.elements)}
        assert rep.tensor[idx[(1,)], idx[(2,)], idx[(0,)]] == 1
        assert rep.tensor[idx[(1,)], idx[(1,)], idx[(0,)]] == 0

    def test_fibonacci(self):
        rep = gv.fusion_from_s(gv.builtin_modular_data("fibonacci"))
        assert rep.residual < 1e-9
        assert rep.tensor[1, 1, 1] == 1
        assert rep.tensor[1, 1, 0] == 1

    def test_vanishing_vacuum_entry_refused(self):
        md = gv.torus.make_modular_data(("0", "1"), [[0, 1], [1, 0]], [1, 1], (0, 1))
        with pytest.raises(DegenerateDataError) as e:
            gv.fusion_from_s(md)
        assert e.value.code == "torus.degenerate"

    def test_unit_column(self):
        for md in [gv.builtin_modular_data("fibonacci"), gv.builtin_modular_data("ising")]:
            n = md.rank
            for x in range(n):
                assert md and gv.fusion_from_s(md).tensor[0, x, x] == 1

    def test_pointed_sweep(self):
        for shape in [(2,), (4,), (2, 2), (5,)]:
            G = gv.make_group(shape)
            for q in enumerate_qforms(G):
                C = gv.make_category(G, q, G.zero)
                try:
                    md = gv.st_matrices(C)
                except DegenerateDataError:
                    continue
                rep = gv.fusion_from_s(md)  # raises internally on mismatch
                assert rep.residual < 1e-9

    def test_matches_einsum_contraction(self):
        C = make_pointed([8, 8], [[F(1, 16), 0], [0, F(3, 16)]], (0, 0))
        md = gv.st_matrices(C)
        raw = np.einsum("xw,yw,zw->xyz", md.S, md.S, md.S.conj() / md.S[0])
        assert np.array_equal(gv.fusion_from_s(md).tensor, np.round(raw.real))


    def test_capacity(self):
        # rank 512 would need 2^27 complex entries; refused before allocating
        G = gv.make_group([512])
        md = gv.st_matrices(gv.make_category(G, gv.make_qform(G, [[F(1, 1024)]]), (0,)))
        start = time.perf_counter()
        with pytest.raises(gv.CapacityError) as e:
            gv.fusion_from_s(md)
        assert time.perf_counter() - start < 1
        assert e.value.code == "torus.capacity" and e.value.exit_code == 3

    def test_group_law_mismatch_raises(self):
        # Z/4 data read against the Klein group breaks the group law
        G = gv.make_group([4])
        md = gv.st_matrices(gv.make_category(G, gv.make_qform(G, [[F(1, 8)]]), (0,)))
        with pytest.raises(RuntimeError, match="group law"):
            gv.fusion_from_s(dataclasses.replace(md, group=gv.make_group([2, 2])))

    def test_group_law_mismatch_is_coded(self):
        G = gv.make_group([4])
        md = gv.st_matrices(gv.make_category(G, gv.make_qform(G, [[F(1, 8)]]), (0,)))
        with pytest.raises(gv.InternalError) as e:
            gv.fusion_from_s(dataclasses.replace(md, group=gv.make_group([2, 2])))
        assert e.value.code == "torus.group_law" and e.value.exit_code == 3


class TestConnectedness:
    def test_semion(self, semion):
        v = gv.verdicts(semion)
        assert v.connected is True and v.cofactorizable

    def test_feigin_fuchs_nonmodular_yet_connected(self, z8_ff):
        v = gv.verdicts(z8_ff)
        assert v.connected is True
        assert not v.modular

    def test_degenerate_undetermined(self, z2_flat):
        v = gv.verdicts(z2_flat)
        assert v.connected is None and not v.cofactorizable
