import ast
import cmath
import dataclasses
import functools
import math
import pathlib
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gvblocks as gv
from gvblocks.errors import DegenerateDataError, UnsupportedError, ValidationError
from gvblocks.forms import BilinearForm, _chunks, enumerate_qforms

from conftest import (
    group_shapes,
    make_pointed,
    power_relations_reference,
    relations_reference,
    st_reference,
)

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

    def test_labels_are_the_joined_coordinates(self):
        # q(e_i) = 1/(2n) for even n and 1/n for odd n: modular on every shape
        for shape in [(1,)] + group_shapes(64):
            diag = [F(1, 2 * n) if n % 2 == 0 else F(1, n) for n in shape]
            k = len(shape)
            matrix = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
            C = make_pointed(shape, matrix, (0,) * k)
            labels = gv.st_matrices(C).labels
            assert labels == tuple(",".join(str(c) for c in x) for x in C.group.elements)

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
            make_pointed([2, 512], [[F(1, 4), 0], [0, F(3, 1024)]], (0, 0)),
            make_pointed([2] * 10, [[F(1, 4) * (i == j) for j in range(10)] for i in range(10)], (0,) * 10),
            make_pointed([3, 9, 27], [[F(1, 3), 0, 0], [0, F(2, 9), F(1, 9)], [0, F(1, 9), F(1, 27)]], (0,) * 3),
        ]
        for C in cats:
            md = gv.st_matrices(C)
            S, defect, index = st_reference(C)
            # S is the character table read back off its own angles, bit for bit
            assert md.S.tobytes() == S.tobytes() and defect == 0, C
            assert np.array_equal(md._table, index), C
        assert len(cats) > 8000

    def test_one_weight_table_per_form_and_one_translates_call_per_block(self, monkeypatch):
        # S comes from q by polarization, one window read per row block;
        # b's table rows are left to the axiom scan
        computed, blocks, table_rows = [], [], []
        weights = BilinearForm.__dict__["weights"]
        translates = gv.FinAbGroup.translates

        def counting_weights(form):
            computed.append(form)
            return weights.func(form)

        def counting_translates(group, wrapped, rows=slice(None)):
            blocks.append((rows, wrapped.dtype))
            return translates(group, wrapped, rows)

        counted = functools.cached_property(counting_weights)
        counted.__set_name__(BilinearForm, "weights")
        monkeypatch.setattr(BilinearForm, "weights", counted)
        monkeypatch.setattr(gv.FinAbGroup, "translates", counting_translates)
        monkeypatch.setattr(BilinearForm, "table_rows", lambda form, rows: table_rows.append(rows))
        C = make_pointed([2, 256], [[F(1, 4), 0], [0, F(3, 512)]], (0, 0))
        assert C.radical.is_trivial and gv.check_axioms(C).all_passed and blocks == []
        md = gv.st_matrices(C)
        assert computed == [C.bform] and table_rows == []
        assert blocks == [(r, np.int64) for r in _chunks(512)] and len(blocks) > 1
        assert gv.check_relations(md).path == "fourier"
        with pytest.raises(ValueError, match="read-only"):
            C.bform.weights[0, 0] = 1

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

    def test_dense_path_refuses_vanishing_vacuum_entry(self):
        # lam's denominator is conj(t_0 S_00 t_0)
        md = gv.torus.make_modular_data(("0", "1"), [[0, 1], [1, 0]], [1, 1], (0, 1))
        with pytest.raises(DegenerateDataError) as e:
            gv.check_relations(md)
        assert e.value.code == "torus.degenerate"
        assert e.value.message == "S has a vanishing vacuum entry"
        # unitary and symmetric with (S^2)_00 = (1 + i^2)/2 = 0: S^2 is
        # [[0, i], [i, 0]], not the identity conjugation, so
        # ||S - S*|| = ||S^2 - 1|| = 2
        S = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        md = gv.torus.make_modular_data(("0", "1"), S, [1, 1], (0, 1))
        rel = assert_matches_reference(md, "dense")
        assert abs(rel.residual_s2 - 2) < 1e-15 and not rel.passed

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


def assert_matches_power_relations(md):
    """For unitary data (ST)^3 = lam S^2 and S^2 = P give the same lam and
    residuals as the relations the library measures."""
    rel = gv.check_relations(md)
    lam, st3, s2 = power_relations_reference(md)
    assert abs(rel.lam - lam) < 1e-12
    assert abs(rel.residual_st3 - st3) < 1e-12
    assert abs(rel.residual_s2 - s2) < 1e-12


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


#: Non-degenerate forms on groups above order 16, cyclic factors of several
#: sizes and with off-diagonal terms; each runs in several row blocks but
#: (Z/2)^8, four orthogonal copies of the form [[1/4, 1/4], [1/4, 1/2]].
HALF, QUARTER = F(1, 2), F(1, 4)
WIDE_FORMS = [
    pytest.param(factors, matrix, id="x".join(map(str, factors)))
    for factors, matrix in [
        (
            [4, 16, 16],
            [[F(1, 8), 0, F(1, 8)], [0, F(1, 32), F(1, 32)], [F(1, 8), F(1, 32), F(1, 16)]],
        ),
        (
            [2] * 8,
            [
                [(QUARTER if i % 2 == 0 else HALF) if i == j else QUARTER * (i // 2 == j // 2)
                 for j in range(8)]
                for i in range(8)
            ],
        ),
        ([2, 256], [[QUARTER, QUARTER], [QUARTER, F(3, 512)]]),
        ([32, 32], [[F(1, 64), F(1, 64)], [F(1, 64), F(1, 32)]]),
        ([3, 9, 27], [[F(1, 3), F(1, 3), 0], [F(1, 3), F(1, 9), F(1, 9)], [0, F(1, 9), F(2, 27)]]),
    ]
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
                C = gv.make_category(G, q, G.zero)
                try:
                    md = gv.st_matrices(C)
                except DegenerateDataError:
                    continue
                rel = assert_matches_reference(md, "fourier")
                assert_matches_power_relations(md)
                # as printed at 12 digits, both central charges lie in [0, 8)
                for c in (gv.torus.central_charge_mod8(rel.lam), gv.anomaly(C).central_charge_mod8):
                    assert 0 <= round(c, 12) < 8, (shape, q.matrix, c)
                count += 1
        assert count == 8000

    @pytest.mark.parametrize("name", gv.torus.BUILTIN_NAMES)
    def test_builtins_match_both_references(self, name):
        md = gv.builtin_modular_data(name)
        assert_matches_reference(md, "dense")
        assert_matches_power_relations(md)

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
        # ||S - P S*|| is measured for the conjugation the data gives
        md = z4_data()
        rel = assert_matches_reference(dataclasses.replace(md, conjugation=tuple(range(4))), "dense")
        assert rel.residual_s2 > 1

    def test_broken_t_on_fourier_path_matches_reference(self):
        # random phases break (ST)^3 = lam S^2, so lam depends on reading
        # the vacuum column; Z/2 x Z/256 runs over four row blocks
        C = make_pointed([2, 256], [[F(1, 4), 0], [0, F(3, 512)]], (0, 0))
        md = gv.st_matrices(C)
        phases = np.exp(2j * math.pi * np.random.default_rng(1).random(md.rank))
        data = dataclasses.replace(md, T=phases)
        object.__setattr__(data, "_table", md._table)  # S, and so its table, is unchanged
        rel = assert_matches_reference(data, "fourier")
        assert rel.residual_st3 > 1

    @pytest.mark.parametrize(
        "factors, matrix", WIDE_FORMS[::2] + [pytest.param([1024], [[F(1, 2048)]], id="1024")]
    )
    def test_one_transform_per_call(self, factors, matrix, monkeypatch):
        # one transform of T's diagonal, not one per block; h at back[x] + z
        # comes one row block at a time, never |G|² at once
        md = gv.st_matrices(make_pointed(factors, matrix, (0,) * len(factors)))
        transforms, index_shapes = [], []
        fftn, translates = np.fft.fftn, gv.FinAbGroup.translates

        def counting_fftn(a, *args, **kwargs):
            transforms.append(a.shape)
            return fftn(a, *args, **kwargs)

        def counting_translates(group, wrapped, rows):
            block = translates(group, wrapped, rows)
            index_shapes.append(block.shape)
            return block

        monkeypatch.setattr(np.fft, "fftn", counting_fftn)
        monkeypatch.setattr(gv.FinAbGroup, "translates", counting_translates)
        tracemalloc.start()
        try:
            assert gv.check_relations(md).path == "fourier"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transforms == [tuple(factors)]
        blocks = gv.forms._chunks(md.rank)
        assert len(blocks) > 1 and index_shapes == [(r.stop - r.start, md.rank) for r in blocks]
        assert peak <= 4 * 2**20  # a few blocks of 2^16 entries

    @pytest.mark.parametrize("factors, matrix", WIDE_FORMS)
    def test_fourier_path_matches_reference_beyond_order_16(self, factors, matrix):
        # non-cyclic and odd groups over several row blocks, with the true T
        # and with random phases under the same table
        C = make_pointed(factors, matrix, (0,) * len(factors))
        md = gv.st_matrices(C)
        rel = assert_matches_reference(md, "fourier")
        assert rel.passed and abs(rel.lam - gv.anomaly(C).gamma) < 1e-12
        for seed in (2, 3):
            phases = np.exp(2j * math.pi * np.random.default_rng(seed).random(md.rank))
            data = dataclasses.replace(md, T=phases)
            object.__setattr__(data, "_table", md._table)
            assert assert_matches_reference(data, "fourier").residual_st3 > 1

    def test_one_product_of_s_per_column_block(self):
        calls = []

        class CountingMatmul(np.ndarray):
            def __matmul__(self, other):
                calls.append(other.shape)
                return np.asarray(self) @ np.asarray(other)

        md = gv.st_matrices(make_pointed([1024], [[F(1, 2048)]], (0,)))
        S = md.S.view(CountingMatmul)
        direct = gv.torus.ModularData(md.labels, S, md.T, md.conjugation, group=md.group)
        direct.residual_unitary  # the data's own scan runs on first read
        calls.clear()
        rel = gv.check_relations(direct)
        # one product with a block of 64 columns each, never S^2 or S S*^T
        assert rel.path == "dense" and calls == [(1024, 64)] * 16
        assert rel.passed and abs(rel.lam - gv.check_relations(md).lam) < 1e-12

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
        # 2^16 entries per block: Z/2 x Z/256 runs in four blocks of 128 rows
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

    @pytest.mark.parametrize("name", ["lucas", 3, None])
    def test_unknown_builtin_refused(self, name):
        with pytest.raises(ValidationError) as e:
            gv.builtin_modular_data(name)
        assert e.value.code == "blocks.bad_builtin"
        assert "choose from ['fibonacci', 'ising']" in e.value.message

    def test_builtin_name_ignores_case(self):
        assert gv.builtin_modular_data("Ising").labels == gv.builtin_modular_data("ising").labels


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

    @pytest.mark.parametrize("s00", [0.0, 1e-10, 0.99e-9])
    @pytest.mark.parametrize(
        "reader",
        [gv.check_relations, gv.fusion_from_s, lambda md: gv.verlinde_dim(md, 2)],
        ids=["check_relations", "fusion_from_s", "verlinde_dim"],
    )
    def test_one_vacuum_refusal(self, reader, s00):
        # an orthogonal symmetric S whose S_00 lies below torus.TOL: every
        # reader that divides by the vacuum row refuses it alike
        c = math.sqrt(1 - s00**2)
        md = gv.torus.make_modular_data(("0", "1"), [[s00, c], [c, -s00]], [1, 1], (0, 1))
        with pytest.raises(DegenerateDataError) as e:
            reader(md)
        assert (e.value.code, e.value.message) == (
            "torus.degenerate",
            "S has a vanishing vacuum entry",
        )

    def test_unit_column(self):
        for md in [gv.builtin_modular_data("fibonacci"), gv.builtin_modular_data("ising")]:
            n = md.rank
            for x in range(n):
                assert md and gv.fusion_from_s(md).tensor[0, x, x] == 1

    @staticmethod
    def assert_matches_einsum(md):
        """The tensor is the Verlinde sum contracted by einsum, a slice of x
        rows of at most 2^18 entries at a time, rounded; it is symmetric in
        x and y, and its residual is within 1e-15 of the einsum's."""
        rep = gv.fusion_from_s(md)  # raises internally on a group-law mismatch
        n, right = md.rank, md.S.conj() / md.S[0]
        step, residual = max(1, 2**18 // n**2), 0.0
        for start in range(0, n, step):
            rows = slice(start, start + step)
            raw = np.einsum("xw,yw,zw->xyz", md.S[rows], md.S, right, optimize=True)
            assert np.array_equal(rep.tensor[rows], np.round(raw.real)), (md.labels[:2], start)
            residual = max(residual, np.abs(raw - rep.tensor[rows]).max())
        assert np.array_equal(rep.tensor, rep.tensor.transpose(1, 0, 2))
        assert abs(rep.residual - residual) <= 1e-15
        return rep

    def test_pointed_sweep(self):
        # every non-degenerate pointed form of order <= 16
        count = 0
        for shape in group_shapes(16):
            G = gv.make_group(shape)
            for q in enumerate_qforms(G):
                C = gv.make_category(G, q, G.zero)
                if C.radical.is_trivial:
                    assert self.assert_matches_einsum(gv.st_matrices(C)).residual < 1e-9
                    count += 1
        assert count == 8000

    def test_matches_einsum_contraction(self):
        # up to rank 25 the tensor is one block; the others are blocks of
        # x rows [start, stop) against y >= start, Z/256 one row each
        corpus = [
            ([3, 18], [F(1, 3), F(1, 36)]),
            ([64], [F(1, 128)]),
            ([8, 8], [F(1, 16), F(3, 16)]),
            ([4, 4, 4], [F(1, 8), F(1, 8), F(3, 8)]),
            ([2, 64], [F(1, 4), F(5, 128)]),
            ([256], [F(1, 512)]),
        ]
        for factors, diag in corpus:
            matrix = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
            self.assert_matches_einsum(gv.st_matrices(make_pointed(factors, matrix, (0,) * len(diag))))
        for name in gv.torus.BUILTIN_NAMES:
            self.assert_matches_einsum(gv.builtin_modular_data(name))


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

    def test_group_law_mismatch_names_the_first_bad_pair_past_the_first_block(self):
        # Z/2 x Z/2 x Z/32 data read against Z/4 x Z/32: the sums agree for
        # x < 32, so the first bad pair sits in the block of the one row 32
        # against y >= 32, the 33rd block
        md = gv.st_matrices(
            make_pointed([2, 2, 32], [[F(1, 4), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 64)]], (0, 0, 0))
        )
        with pytest.raises(gv.InternalError) as e:
            gv.fusion_from_s(dataclasses.replace(md, group=gv.make_group([4, 32])))
        assert e.value.message.endswith("at ((1, 0), (1, 0))")

    def test_group_law_mismatch_names_the_first_bad_pair_inside_a_diagonal_square(self):
        # Z/4 x Z/12 data read against Z/2 x Z/2 x Z/12: the sums agree for
        # x < 12, and rank 48 takes rows [0, 7), then [7, 15) against y >= 7,
        # so the first bad pair, (12, 12), lies in that block's diagonal
        # square [7, 15)², below rows of the square that pass
        md = gv.st_matrices(make_pointed([4, 12], [[F(1, 8), 0], [0, F(1, 24)]], (0, 0)))
        with pytest.raises(gv.InternalError) as e:
            gv.fusion_from_s(dataclasses.replace(md, group=gv.make_group([2, 2, 12])))
        assert e.value.message.endswith("at ((0, 1, 0), (0, 1, 0))")

    def test_group_law_mismatch_with_a_second_entry_beside_the_sum(self):
        # Ising read against Z/3: sigma x sigma = 1 + psi has its 1 at
        # 1 + 1 = 2 but also one at 0, so (1, 1) is the first bad pair
        md = gv.builtin_modular_data("ising")
        with pytest.raises(gv.InternalError) as e:
            gv.fusion_from_s(dataclasses.replace(md, group=gv.make_group([3])))
        assert e.value.message.endswith("at ((1,), (1,))")

    def test_peak_memory_at_the_cap_is_the_result_and_a_few_blocks(self):
        md = gv.st_matrices(make_pointed([256], [[F(1, 512)]], (0,)))
        tracemalloc.start()
        try:
            rep = gv.fusion_from_s(md)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.tensor.nbytes == 2**27 and rep.residual < 1e-9
        assert peak <= 160 * 2**20

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
