"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check that inputs are reproducible, that the printed metric names are
the ones ``BENCHMARK.json`` declares, that the oracles reject wrong values,
and that the benchmark refuses to run without the gvblocks sources.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import CAPS_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


# --- reproducible inputs ------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.catalog_ops, inputs.gluing_ops, inputs.cli_ops])
def test_same_seed_same_digest(make):
    assert inputs.digest(make(7)) == inputs.digest(make(7))
    assert inputs.digest(make(7)) != inputs.digest(make(8))


def test_rounds_keep_their_slot_schedule():
    for seed in (1, 2):
        orders = sorted(op["order"] for op in inputs.catalog_ops(seed)[0] if op["source"] != "cli" and op["order"] >= 256)
        assert orders == [256] * 7 + [512, 512, 1024]


# --- metric names -------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert e2e == END_TO_END
    assert layers == PER_LAYER
    assert set(CAPS_END_TO_END) <= DECLARED
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = _run("--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert set(result["metrics"]) == set(expected) and set(result["metrics"]) <= DECLARED
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name][0]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# --- oracles reject wrong values ---------------------------------------------


def _first(rounds, pred):
    return next(op for rnd in rounds for op in rnd if pred(op))


def test_catalog_oracle_rejects_wrong_values():
    op = _first(inputs.catalog_ops(1), lambda o: o["kind"] == "modular" and o["source"] == "lattice" and o["order"] <= 64)
    prep = wl._prepare_catalog(op)
    out = wl._catalog_pipeline(op, prep)
    assert wl.check_catalog(op, prep, out, None) is None

    wrong_gamma = dict(out, anomaly=dataclasses.replace(out["anomaly"], gamma=-out["anomaly"].gamma))
    assert wl.check_catalog(op, prep, wrong_gamma, None)
    wrong_verdict = dict(out, verdicts=dataclasses.replace(out["verdicts"], nondegenerate=False))
    assert wl.check_catalog(op, prep, wrong_verdict, None)
    tensor = np.roll(out["fusion"].tensor, 1, axis=2)
    assert wl.check_catalog(op, prep, dict(out, fusion=dataclasses.replace(out["fusion"], tensor=tensor)), None)
    other_lattice = dict(op, gram=[[-x for x in row] for row in op["gram"]])
    if orc.milgram_gamma(other_lattice["gram"]) != orc.milgram_gamma(op["gram"]):
        assert wl.check_catalog(other_lattice, prep, out, None)


def test_invalid_input_oracle_needs_the_coded_error():
    op = _first(inputs.catalog_ops(1), lambda o: o["kind"] == "invalid:lattice.not_even")
    assert wl.catalog_op(op)[1] is None
    assert wl.check_catalog(dict(op, kind="invalid:lattice.xi_not_dual"), {}, None, None)
    op = _first(inputs.catalog_ops(1), lambda o: o["kind"] == "invalid:axiom_witness")
    prep = wl._prepare_catalog(op)
    out = wl._catalog_pipeline(op, prep)
    assert wl.check_catalog(op, prep, out, None) is None
    honest = wl._prepare_catalog({k: v for k, v in op.items() if k != "twist_flip"})
    assert wl.check_catalog(op, dict(prep, twist_table=orc.theta_table(op["factors"], honest["A"], op["h0"])), out, None)


def test_gluing_oracle_rejects_wrong_values():
    op = _first(inputs.gluing_ops(1), lambda o: (o["genus"], o["n"]) == (1, 2))
    labels = [tuple(x) for x in op["labels"]]
    out = wl._gluing_pipeline(op, wl._frac_rows(op["qform"]), labels)
    assert wl.check_gluing(op, out) is None
    assert wl.check_gluing(op, dict(out, glued=[d + 1 for d in out["glued"]]))
    assert wl.check_gluing(op, dict(out, direct=out["direct"] + 1))
    pd, dim, key = out["moved"][0]
    assert wl.check_gluing(op, dict(out, moved=[(pd, dim, ("not", "a", "class"))]))


def test_cli_oracle_rejects_wrong_values():
    ops = inputs.cli_ops(1)[0]
    op = next(o for o in ops if o["name"] == "blocks_direct")
    paths = wl.write_configs([[op]], HERE / "out" / "test-configs")
    path = paths[wl.cli_key(op)]
    good = wl.cli_expected_bytes(op, path)
    assert wl.check_cli_output(op, 0, good) is None
    data = json.loads(good)
    data["results"][0]["dim"] += 1
    assert wl.check_cli_output(op, 0, json.dumps(data).encode())
    assert wl.check_cli_output(dict(op, expect_error="lattice.not_even"), 0, good)


def test_independent_arithmetic_rejects_wrong_values():
    assert orc.close(1j, -1j, "x")
    factors = (4,)
    elements = orc.all_elements(factors)
    law = np.zeros((4, 4, 4), dtype=np.int64)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            law[i, j, elements.index(orc.add(factors, x, y))] = 1
    assert orc.fusion_is_group_law(law, elements, factors) is None
    assert orc.fusion_is_group_law(law.transpose(2, 1, 0).copy(), elements, factors)
    assert orc.direct_dim((3,), (0,), 2, [(1,), (2,)]) == 9
    assert orc.direct_dim((3,), (0,), 2, [(1,), (1,)]) == 0
    assert orc.smith_invariants([[2, 1], [1, 2]]) == (3,)
    assert orc.smith_invariants([[4, 0], [0, 4]]) == (4, 4)
    twist = {x: orc.q_value([[Fraction(1, 8)]], x) for x in elements}
    bad = copy.copy(twist)
    bad[(1,)] = (bad[(1,)] + Fraction(1, 2)) % 1
    assert not orc.twist_witness_holds(factors, [[Fraction(1, 8)]], (0,), twist, "twist multiplicative", ((1,), (2,)))
    assert orc.twist_witness_holds(factors, [[Fraction(1, 8)]], (0,), bad, "twist multiplicative", ((1,), (2,)))
