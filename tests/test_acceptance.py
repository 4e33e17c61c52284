"""Acceptance suite: one test per criterion, one printed line per criterion."""

import cmath
import functools
import json
import math
import random
from fractions import Fraction

import numpy as np

import gvblocks as gv
from gvblocks import cli
from gvblocks.errors import DegenerateDataError
from gvblocks.forms import enumerate_qforms
from gvblocks.surfaces import enumerate_decompositions, make_surface

from conftest import (
    attach_morphism,
    det_reference,
    group_shapes,
    make_pointed,
    mat_mul_int,
    random_graph,
    random_leg_pairing,
    random_qform,
)

F = Fraction


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {title}")
                raise
            print(f"PASS criterion {num}: {title}")

        return wrapper

    return deco


def criterion_categories():
    return [
        make_pointed([2], [[F(1, 4)]], (0,)),
        make_pointed([3], [[F(1, 3)]], (0,)),
        make_pointed([8], [[F(1, 16)]], (1,)),
        make_pointed([2, 2], [[0, F(1, 4)], [F(1, 4), 0]], (0, 0)),
    ]


@criterion(1, "Feigin-Fuchs closed-surface dimension law")
def test_criterion_1_dimension_law():
    C = gv.to_pointed_gv(gv.make_lattice([[8]], [F(1, 8)]))
    dims = [gv.block_dim_direct(C, make_surface(g)) for g in range(1, 6)]
    assert dims == [8, 0, 0, 0, 32768]
    C0 = gv.to_pointed_gv(gv.make_lattice([[8]], [0]))
    dims0 = [gv.block_dim_direct(C0, make_surface(g)) for g in range(1, 6)]
    assert dims0 == [8**g for g in range(1, 6)]


@criterion(2, "gluing formula equals direct formula on all decompositions")
def test_criterion_2_gluing_equals_direct():
    rng = random.Random(2024)
    surfaces = [
        (g, n)
        for g in range(0, 4)
        for n in range(0, 7)
        if 1 <= 2 * g - 2 + n <= 4
    ]
    for C in criterion_categories():
        factors = C.group.invariant_factors
        order = C.group.order
        for g, n in surfaces:
            pds = enumerate_decompositions(make_surface(g, [(0,) * len(factors)] * n))
            want = min(100, order**n)
            tuples = set()
            while len(tuples) < want:
                tuples.add(
                    tuple(tuple(rng.randrange(f) for f in factors) for _ in range(n))
                )
            for labels in tuples:
                expected = gv.block_dim_direct(C, make_surface(g, labels))
                for pd in pds:
                    assert gv.block_dim_glued(C, pd, list(labels)) == expected


@criterion(3, "projective SL(2,Z) relations and Gauss-sum anomaly scalar")
def test_criterion_3_sl2z_relations():
    # golden semion test at 1e-12
    semion = make_pointed([2], [[F(1, 4)]], (0,))
    md = gv.st_matrices(semion)
    st3 = np.linalg.matrix_power(md.S @ np.diag(md.T), 3)
    assert np.abs(st3 - cmath.exp(1j * math.pi / 4) * np.eye(2)).max() < 1e-12
    assert np.abs(md.S @ md.S - np.eye(2)).max() < 1e-12
    # every non-degenerate (G, q) with |G| <= 16 and h0 = 0
    checked = 0
    for shape in group_shapes(16):
        G = gv.make_group(shape)
        for q in enumerate_qforms(G):
            C = gv.make_category(G, q, G.zero)
            try:
                data = gv.st_matrices(C)
            except DegenerateDataError:
                continue
            rel = gv.check_relations(data)
            assert abs(rel.lam - gv.gauss_sum(q)) < 1e-9, (shape, q.matrix)
            assert rel.residual_unitary < 1e-9
            assert rel.residual_st3 < 1e-9
            checked += 1
    assert checked >= 1000


@criterion(4, "Verlinde cross-checks: Fibonacci 5, Ising 10, pointed Z/3 9")
def test_criterion_4_verlinde():
    fib = gv.verlinde_dim(gv.builtin_modular_data("fibonacci"), 2)
    assert fib.rounded == 5 and fib.residual < 1e-6
    ising = gv.verlinde_dim(gv.builtin_modular_data("ising"), 2)
    assert ising.rounded == 10 and ising.residual < 1e-6
    z3 = make_pointed([3], [[F(1, 3)]], (0,))
    rep = gv.verlinde_dim(gv.st_matrices(z3), 2)
    assert rep.rounded == 9 and rep.residual < 1e-6
    assert rep.rounded == gv.block_dim_direct(z3, make_surface(2))


@criterion(5, "axiom suite passes exhaustively; broken twist fails with witness")
def test_criterion_5_axioms():
    rng = random.Random(5)
    cats = list(criterion_categories())
    cats.append(gv.to_pointed_gv(gv.make_lattice([[8]], [F(1, 8)])))
    cats.append(gv.to_pointed_gv(gv.make_lattice([[2, 1], [1, 2]], [0, 0])))
    cats.append(make_pointed([1], [[0]], (0,)))
    for shape in group_shapes(64):
        G = gv.make_group(shape)
        for _ in range(3):
            h0 = G.reduce([rng.randrange(n) for n in shape])
            cats.append(gv.make_category(G, random_qform(rng, G), h0))
    for C in cats:
        assert C.group.order <= 64
        report = gv.check_axioms(C)
        assert report.all_passed, (C.group.invariant_factors, report.failed())
    broken = gv.to_pointed_gv(gv.make_lattice([[8]], [F(1, 8)]))
    report = gv.check_axioms(broken, twist=broken.qform)
    ribbon = next(c for c in report.checks if c.name == "ribbon")
    assert not ribbon.passed and ribbon.witness is not None


@criterion(6, "verdict chain and the non-modular connected example")
def test_criterion_6_verdict_chain():
    fixtures = list(criterion_categories()) + [
        make_pointed([2], [[0]], (0,)),
        make_pointed([2], [[F(1, 2)]], (0,)),
        make_pointed([4], [[F(1, 8)]], (2,)),
        gv.to_pointed_gv(gv.make_lattice([[2, 0], [0, 2]], [0, 0])),
    ]
    for C in fixtures:
        v = gv.verdicts(C)
        if v.modular:
            assert v.cofactorizable
        if v.cofactorizable:
            assert v.connected is True
    ff = gv.to_pointed_gv(gv.make_lattice([[8]], [F(1, 8)]))
    v = gv.verdicts(ff)
    assert v.connected is True and v.modular is False


@criterion(7, "oracle suites: SNF, composition by substitution, leg counts")
def test_criterion_7_oracles():
    rng = random.Random(7)
    # Smith normal form on >= 200 random matrices
    for _ in range(210):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        u, d, v, _ = gv.smith_normal_form(a)
        assert mat_mul_int(mat_mul_int(u, a), v) == d
        assert abs(det_reference(u)) == 1 and abs(det_reference(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            assert diag[i + 1] == 0 or (diag[i] != 0 and diag[i + 1] % diag[i] == 0)
        if m == n:
            assert abs(det_reference(a)) == abs(det_reference(d))
    # composition against the direct-substitution oracle on >= 100 pairs
    for _ in range(110):
        g1 = random_graph(rng, max_vertices=5)
        inner = gv.morphism_from_graph(g1)
        pairs = random_leg_pairing(rng, inner.target)
        outer = attach_morphism(inner.target, pairs)
        comp = gv.compose(outer, inner)
        glued = list(g1.pairing) + [
            tuple(sorted((l1, l2))) for (_, l1), (_, l2) in pairs
        ]
        assert comp.graph == gv.Graph(
            vertices=g1.vertices, attach=g1.attach, pairing=tuple(sorted(glued))
        )
    # leg-count bookkeeping on >= 200 random graphs
    for _ in range(210):
        g = random_graph(rng)
        nu = sum(c.arity for c in gv.cut_edges(g))
        pi = sum(c.arity for c in gv.contract_edges(g))
        assert nu == len(g.half_edges)
        assert pi == nu - 2 * len(g.pairing)


@criterion(8, "discriminant pipeline end-to-end through the CLI")
def test_criterion_8_discriminant_pipeline(tmp_path, capsys):
    def inspect(gram):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"category": {"lattice": {"gram": gram, "xi": ["0/1"] * len(gram)}}}
            ),
            encoding="utf-8",
        )
        assert cli.main(["inspect", "--config", str(path), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    semion = inspect([[2]])
    assert semion["category"]["invariant_factors"] == [2]
    assert semion["category"]["qform_matrix"] == [["1/4"]]
    assert semion["verdicts"]["modular"] is True
    assert semion["anomaly"]["central_charge_mod8"] == 1.0

    a2 = inspect([[2, 1], [1, 2]])
    assert a2["category"]["invariant_factors"] == [3]
    assert a2["category"]["qform_matrix"] == [["1/3"]]

    square = inspect([[2, 0], [0, 2]])
    assert square["category"]["order"] == 4
    assert square["verdicts"]["nondegenerate"] is True
