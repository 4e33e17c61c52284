"""Write a ``BENCH_<pr>.json`` record from two sets of perfbench results.

    python3 scripts/bench_record.py --parent-commit SHA --what TEXT \\
        --parent DIR [DIR ...] --change DIR [DIR ...] [--holdout SEED] \\
        --out BENCH_<pr>.json

Each DIR holds ``result-<workload>-seed<N>-trace<T>.json`` files as
``perfbench/run.py`` leaves them in ``perfbench/out/`` of a parent and of a
change checkout.  A file name found in several directories of one side
counts as one run per directory, in the order given, so repeated runs of
one seed can be kept apart by copying each ``perfbench/out/`` aside.

The record holds, per measured workload of ``BENCHMARK.json``, every
end-to-end metric with both sides' runs, medians and inclusive quartiles,
the median ratio (change over parent), how many pairs the change won,
whether the change's median is worse than the parent's by more than the
metric's ``bound`` (a relative change), and whether the runs show a gain:
the change wins at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's q3 - q1;
the operations and failures of every run; each side's ``peak_rss_mb``
against its operations completed, as the least-squares slope in MB per
100 000 operations and the intercept, so that a memory rise that only
follows throughput shows as such; the ``caps`` probe on seed 1; and,
as ``traced_<workload>_seed1``, the traced runs on seed 1 of each measured
workload, each per-layer metric as a list in run order (metrics that read 0
in every run are left out).  Untraced runs are paired by seed, and both
sides must hold the same seeds.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload {catalog,gluing,caps} --seed N --seconds 40 --trace {0,1}"
ENVIRONMENT_KEYS = ("blas_threads", "cpu", "nproc", "numpy", "python")


def _records(dirs: list[Path]) -> list[dict]:
    records = []
    for d in dirs:
        files = sorted(d.glob("result-*.json"))
        if not files:
            sys.exit(f"error: no result-*.json records in {d}")
        records += [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return records


def _seed(record: dict) -> int:
    return record["environment"]["seed"]


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _workload(name: str, metrics: list[dict], sides: dict, holdout: int | None) -> dict | None:
    runs = {
        side: {_seed(r): r for r in records if r["workload"] == name and r["trace"] == 0}
        for side, records in sides.items()
    }
    seeds = sorted(runs["parent"])
    if not seeds:
        return None
    if seeds != sorted(runs["change"]):
        sys.exit(f"error: {name}: parent seeds {seeds} differ from change seeds {sorted(runs['change'])}")
    out = {"seeds": seeds, "holdout_seed": holdout if holdout in seeds else None}
    for m in metrics:
        values = {side: [runs[side][s]["metrics"][m["name"]]["value"] for s in seeds] for side in runs}
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry = {side: _summary(v) for side, v in values.items()}
        ratio = entry["change"]["median"] / entry["parent"]["median"]
        gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
        entry.update(
            better=m["better"],
            bound=m["bound"],
            change_wins=f"{wins}/{len(seeds)}",
            gain_shown=10 * wins >= 9 * len(seeds) and gain > entry["parent"]["q3"] - entry["parent"]["q1"],
            median_ratio=ratio,
            worse_than_bound=sign * (ratio - 1) < -m["bound"],
        )
        out[m["name"]] = entry
    out["operations_failures"] = {
        side: [[runs[side][s]["detail"]["latency_samples"], len(runs[side][s]["failures"])] for s in seeds]
        for side in runs
    }
    out["peak_rss_mb_vs_operations"] = {
        side: _rss_slope(
            [runs[side][s]["detail"]["latency_samples"] for s in seeds],
            [runs[side][s]["metrics"]["peak_rss_mb"]["value"] for s in seeds],
        )
        for side in runs
    }
    return out


def _rss_slope(operations: list[int], rss: list[float]) -> dict | None:
    """The least-squares line of peak RSS over operations completed, or
    None when the operations do not vary."""
    if len(set(operations)) < 2:
        return None
    slope, intercept = statistics.linear_regression(operations, rss)
    return {"mb_per_100k_ops": slope * 100_000, "intercept_mb": intercept}


def _caps(records: list[dict]) -> dict | None:
    rec = next((r for r in records if r["workload"] == "caps" and _seed(r) == 1 and r["trace"] == 0), None)
    if rec is None:
        return None
    keep = ("outcome", "wall_s", "code", "error")
    return {
        "counts": rec["caps"]["counts"],
        "failed_ratio": rec["metrics"]["failed_ratio"]["value"],
        "peak_rss_mb": rec["metrics"]["peak_rss_mb"]["value"],
        "results": {
            name: {k: v for k, v in res.items() if k in keep}
            for name, res in rec["caps"]["results"].items()
        },
    }


def _traced(name: str, sides: dict) -> dict | None:
    traced = {
        side: [r for r in records if r["workload"] == name and _seed(r) == 1 and r["trace"] == 1]
        for side, records in sides.items()
    }
    if not all(traced.values()):
        return None
    names = sorted(traced["parent"][0]["metrics"])
    lists = {
        side: {n: [r["metrics"][n]["value"] for r in recs] for n in names} for side, recs in traced.items()
    }
    used = [n for n in names if any(v for side in lists.values() for v in side[n])]
    return {side: {n: lists[side][n] for n in used} for side in lists}


def build(parent: list[Path], change: list[Path], parent_commit: str, what: str, holdout: int | None) -> dict:
    sides = {"parent": _records(parent), "change": _records(change)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first = sides["change"][0]["environment"]
    record = {
        "what": what,
        "parent_commit": parent_commit,
        "command": COMMAND,
        "environment": {**{k: first[k] for k in ENVIRONMENT_KEYS}, "seed": "per run"},
    }
    for w in bench["workloads"]:
        summary = _workload(w["name"], bench["end_to_end"], sides, holdout)
        if summary is not None:
            record[w["name"]] = summary
        traced = _traced(w["name"], sides)
        if traced is not None:
            record[f"traced_{w['name']}_seed1"] = traced
    caps = {side: _caps(records) for side, records in sides.items()}
    if all(caps.values()):
        record["caps_seed1"] = caps
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", nargs="+", type=Path, required=True, help="record directories of the parent")
    p.add_argument("--change", nargs="+", type=Path, required=True, help="record directories of the change")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--what", required=True, help="one paragraph: what was compared and how")
    p.add_argument("--holdout", type=int, help="the seed not used while the change was written")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    record = build(args.parent, args.change, args.parent_commit, args.what, args.holdout)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
