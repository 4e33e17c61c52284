import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENV = {"blas_threads": 1, "cpu": "cpu", "nproc": 2, "numpy": "2", "python": "3"}


def write_run(d: Path, workload, seed, trace, metrics, samples=100, failures=0, **extra):
    d.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "trace": trace,
        "environment": {**ENV, "seed": seed},
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
        "detail": {"latency_samples": samples},
        "failures": [{"op": i} for i in range(failures)],
        **extra,
    }
    (d / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def e2e(ops, rss):
    return {"ops_per_s": ops, "latency_p50_ms": 1.0, "latency_p90_ms": 2.0, "peak_rss_mb": rss, "setup_s": 0.2}


def test_record_layout(tmp_path):
    for seed, (p_ops, c_ops) in zip((11, 12, 13), [(100, 150), (110, 140), (120, 90)]):
        write_run(tmp_path / "p", "catalog", seed, 0, e2e(p_ops, 80), failures=1)
        write_run(tmp_path / "c", "catalog", seed, 0, e2e(c_ops, 70))
    for side, busy in (("p", [0.2, 0.3]), ("c", [0.1, 0.1])):
        for i, b in enumerate(busy):
            write_run(tmp_path / f"{side}{i}", "catalog", 1, 1, {"torus.check_relations.busy_s": b, "forms.radical.calls": 0})
    caps = {"results": {"x": {"outcome": "completed", "wall_s": 1.5, "ready_s": 0.1}}, "counts": {"completed": 1}}
    for side in "pc":
        write_run(tmp_path / side, "caps", 1, 0, {"failed_ratio": 0.0, "peak_rss_mb": 9.0}, caps=caps)
    out = bench_record.build(
        [tmp_path / "p", tmp_path / "p0", tmp_path / "p1"],
        [tmp_path / "c", tmp_path / "c0", tmp_path / "c1"],
        "abc1234",
        "test",
        holdout=13,
    )
    cat = out["catalog"]
    assert cat["seeds"] == [11, 12, 13] and cat["holdout_seed"] == 13
    assert cat["ops_per_s"]["change_wins"] == "2/3"
    assert cat["ops_per_s"]["parent"] == {"median": 110, "q1": 105.0, "q3": 115.0, "runs": [100, 110, 120]}
    assert cat["ops_per_s"]["median_ratio"] == 140 / 110
    assert cat["peak_rss_mb"]["change_wins"] == "3/3" and cat["latency_p50_ms"]["change_wins"] == "0/3"
    assert cat["operations_failures"]["parent"] == [[100, 1]] * 3
    assert "gluing" not in out
    assert out["caps_seed1"]["change"]["results"] == {"x": {"outcome": "completed", "wall_s": 1.5}}
    assert out["traced_catalog_seed1"] == {
        "parent": {"torus.check_relations.busy_s": [0.2, 0.3]},
        "change": {"torus.check_relations.busy_s": [0.1, 0.1]},
    }
    assert out["environment"] == {**ENV, "seed": "per run"}


def test_worse_than_bound(tmp_path):
    # ops_per_s (higher, bound 0.25): medians 100 -> 74 is 26% worse, 100 -> 76 is 24%;
    # peak_rss_mb (lower, bound 0.1): 50 -> 55.5 is 11% worse, 50 -> 54.5 is 9%
    for workload, ops, rss in (("catalog", 74, 54.5), ("gluing", 76, 55.5)):
        write_run(tmp_path / "p", workload, 1, 0, e2e(100, 50))
        write_run(tmp_path / "c", workload, 1, 0, e2e(ops, rss))
    out = bench_record.build([tmp_path / "p"], [tmp_path / "c"], "abc", "test", None)
    flags = {
        w: {m: out[w][m]["worse_than_bound"] for m in ("ops_per_s", "peak_rss_mb", "setup_s")}
        for w in ("catalog", "gluing")
    }
    assert flags == {
        "catalog": {"ops_per_s": True, "peak_rss_mb": False, "setup_s": False},
        "gluing": {"ops_per_s": False, "peak_rss_mb": True, "setup_s": False},
    }
    assert out["gluing"]["peak_rss_mb"]["bound"] == 0.1 and out["gluing"]["ops_per_s"]["bound"] == 0.25


def test_unpaired_seeds_are_refused(tmp_path):
    write_run(tmp_path / "p", "gluing", 1, 0, e2e(1, 1))
    write_run(tmp_path / "c", "gluing", 2, 0, e2e(1, 1))
    with pytest.raises(SystemExit, match="seeds"):
        bench_record.build([tmp_path / "p"], [tmp_path / "c"], "abc", "test", None)


def test_traced_runs_of_every_workload(tmp_path):
    # seed-1 traced runs are kept per workload, in run order; a workload
    # traced on one side only, or on another seed, is left out
    for i, (p_busy, c_busy) in enumerate([(0.5, 0.2), (0.6, 0.3)]):
        write_run(tmp_path / f"p{i}", "gluing", 1, 1, {"blocks.block_dim_glued.busy_s": p_busy, "torus.self_s": 0})
        write_run(tmp_path / f"c{i}", "gluing", 1, 1, {"blocks.block_dim_glued.busy_s": c_busy, "torus.self_s": 0})
    write_run(tmp_path / "p0", "catalog", 1, 1, {"forms.radical.busy_s": 0.1})
    write_run(tmp_path / "c0", "catalog", 2, 1, {"forms.radical.busy_s": 0.1})
    out = bench_record.build(
        [tmp_path / "p0", tmp_path / "p1"], [tmp_path / "c0", tmp_path / "c1"], "abc", "test", None
    )
    assert out["traced_gluing_seed1"] == {
        "parent": {"blocks.block_dim_glued.busy_s": [0.5, 0.6]},
        "change": {"blocks.block_dim_glued.busy_s": [0.2, 0.3]},
    }
    assert "traced_catalog_seed1" not in out and "gluing" not in out


def test_gain_shown(tmp_path):
    # ten pairs; parent latency_p90_ms runs 3.0..3.9 (q1 3.225, q3 3.675,
    # median 3.45), ops_per_s 100..109 (q1 102.25, q3 106.75, median 104.5)
    for seed in range(10):
        p_ops, p_p90 = 100 + seed, 3.0 + seed / 10
        # p90: the change wins 9/10 by 1 ms, more than the 0.45 IQR;
        # ops_per_s: wins 10/10 by 4, less than the 4.5 IQR;
        # peak_rss_mb: wins 8/10 by 10, more than its zero IQR
        c_p90 = p_p90 + 1 if seed == 9 else p_p90 - 1
        c_rss = 90 if seed < 8 else 110
        write_run(tmp_path / "p", "catalog", seed, 0, {**e2e(p_ops, 100), "latency_p90_ms": p_p90})
        write_run(tmp_path / "c", "catalog", seed, 0, {**e2e(p_ops + 4, c_rss), "latency_p90_ms": c_p90})
    cat = bench_record.build([tmp_path / "p"], [tmp_path / "c"], "abc", "test", None)["catalog"]
    assert cat["latency_p90_ms"]["change_wins"] == "9/10" and cat["latency_p90_ms"]["gain_shown"]
    assert cat["ops_per_s"]["change_wins"] == "10/10" and not cat["ops_per_s"]["gain_shown"]
    assert cat["peak_rss_mb"]["change_wins"] == "8/10" and not cat["peak_rss_mb"]["gain_shown"]
    # a metric the change never moves shows no gain
    assert cat["setup_s"]["change_wins"] == "0/10" and not cat["setup_s"]["gain_shown"]


def test_peak_rss_slope_against_operations(tmp_path):
    # parent: 50 MB at 100k operations, +2 MB per 100k; change: flat 60 MB
    for seed, ops in zip((1, 2, 3), (100_000, 200_000, 300_000)):
        write_run(tmp_path / "p", "gluing", seed, 0, e2e(1.0, 48 + 2 * ops / 100_000), samples=ops)
        write_run(tmp_path / "c", "gluing", seed, 0, e2e(1.0, 60.0), samples=ops)
    slopes = bench_record.build([tmp_path / "p"], [tmp_path / "c"], "abc", "test", None)["gluing"][
        "peak_rss_mb_vs_operations"
    ]
    assert slopes["parent"] == pytest.approx({"mb_per_100k_ops": 2.0, "intercept_mb": 48.0})
    assert slopes["change"] == pytest.approx({"mb_per_100k_ops": 0.0, "intercept_mb": 60.0})
    # one run, or runs of one operation count, give no line
    write_run(tmp_path / "q", "gluing", 1, 0, e2e(1.0, 50.0))
    write_run(tmp_path / "d", "gluing", 1, 0, e2e(1.0, 50.0))
    out = bench_record.build([tmp_path / "q"], [tmp_path / "d"], "abc", "test", None)
    assert out["gluing"]["peak_rss_mb_vs_operations"] == {"parent": None, "change": None}
