"""One workload in its own process: set up, then measure.

Protocol with ``run.py``: after set-up (imports, input generation, warm-up)
the worker prints ``READY`` and flushes, so the parent can time set-up from
process start.  With ``--setup-only`` it exits there.  Otherwise it measures
and prints one JSON line with the raw results.

Measurement modes:

* ``--seconds S``: whole rounds, cycling the operation list, until at least
  S seconds have been spent in operations.  cli operations are fresh CLI
  processes.
* ``--rounds R``: exactly the first R rounds (fixed work, so per-layer counts
  repeat exactly).  cli operations call ``cli.main`` in this process.  With
  ``--trace 1`` every call into gvblocks is recorded as a span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import CLI_SUBCOMMANDS  # noqa: E402
from tracing import Tracer  # noqa: E402


def _rounds(workload: str, seed: int):
    return {"catalog": inputs.catalog_ops, "gluing": inputs.gluing_ops, "cli": inputs.cli_ops}[workload](seed)


def _interpreter_s(runs: int = 5) -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_s(runs: int = 5) -> float:
    """Median time of ``import gvblocks.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import gvblocks.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("catalog", "gluing", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = _rounds(args.workload, args.seed)
    subprocess_cli = args.workload == "cli" and not args.rounds
    paths = None
    if args.workload == "catalog":
        paths = wl.write_configs(rounds, OUT / f"catalog-configs-{args.seed}")
        failure = wl.catalog_warmup()
        if failure:
            raise RuntimeError(f"warm-up failed its check: {failure}")
    elif args.workload == "gluing":
        wl.gluing_warmup()
    else:
        paths = wl.write_configs(rounds, OUT / f"cli-configs-{args.seed}")
        if subprocess_cli:
            subprocess.run([sys.executable, "-m", "gvblocks.cli", "--version"], capture_output=True, check=True)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    latencies: list[float] = []
    failures: list[dict] = []
    cli_outputs: dict[str, set] = {}
    r = 0
    spent = 0.0
    cycle = inputs.ROUNDS_PER_CYCLE[args.workload]

    def more() -> bool:
        if args.rounds:
            return r < args.rounds
        # a timed run stops only at the end of a cycle, so its mix is whole
        return r == 0 or r % cycle != 0 or spent < args.seconds

    while more():
        ops = rounds[r % len(rounds)]
        for i, op in enumerate(ops):
            op_id = f"{r}:{i}"
            if tracer:
                tracer.op = op_id
            try:
                if args.workload == "catalog":
                    latency, failure = wl.catalog_op(op, paths, tracer)
                elif args.workload == "gluing":
                    latency, failure = wl.gluing_op(op)
                elif subprocess_cli:
                    latency, proc, failure = wl.cli_subprocess_op(op, paths[wl.cli_key(op)])
                    if proc is not None:
                        cli_outputs.setdefault(wl.cli_key(op), set()).add(hashlib.sha256(proc.stdout).digest())
                else:
                    latency, failure = wl.cli_inprocess_op(op, paths[wl.cli_key(op)], tracer)
            except Exception as e:  # an unexpected crash is a failed operation, not the end of the run
                latency, failure = float("nan"), f"{type(e).__name__}: {e}"
            if tracer:
                tracer.op = None
            if failure:
                failures.append({"op": op_id, "slot": op.get("name") or op.get("kind"), "error": failure})
            latencies.append(latency)
            spent += 0.0 if math.isnan(latency) else latency
        r += 1

    if subprocess_cli:
        # byte-identical on repeat, and equal to the in-process cli.run result
        for rnd in rounds:
            for op in rnd:
                key = wl.cli_key(op)
                seen = cli_outputs.pop(key, None)
                if seen is None:
                    continue
                expected = hashlib.sha256(wl.cli_expected_bytes(op, paths[key])).digest()
                if seen != {expected}:
                    why = "differs between runs" if len(seen) > 1 else "differs from in-process cli.run"
                    failures.append({"op": "post", "slot": op["name"], "error": f"CLI output {why}"})

    ops_flat = [op for rnd in rounds for op in rnd]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": r,
        "latencies": [x for x in latencies if not math.isnan(x)],
        "attempted": len(latencies),
        "failures": failures,
        "digest": inputs.digest(rounds),
        "operations_in_list": len(ops_flat),
        "histogram": _histogram(args.workload, ops_flat),
        "shares": {
            **inputs.catalog_shares(rounds if args.workload == "catalog" else inputs.catalog_ops(args.seed)),
            **inputs.gluing_shares(rounds if args.workload == "gluing" else inputs.gluing_ops(args.seed)),
        },
    }
    if tracer:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(HERE.parent))
        result["layers"] = _layer_metrics(tracer)
    if tracer:
        result["layers"]["cli.interpreter_s"] = _interpreter_s()
        result["layers"]["cli.import_s"] = _import_s()
    print(json.dumps(result), flush=True)
    return 0


def _histogram(workload: str, ops) -> dict:
    """Operations per group order (catalog, gluing) or per slot (cli)."""
    hist: dict[str, int] = {}
    for op in ops:
        if "name" in op:
            key = f"cli {op['name']}"
        elif workload == "gluing":
            key = str(math.prod(op["factors"]))
        else:
            key = str(op["order"])
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _layer_metrics(tracer: Tracer) -> dict:
    busy, calls = tracer.busy(), tracer.calls()
    out = {}
    for name in (
        "lattice.to_pointed_gv",
        "lattice.make_lattice",
        "forms.make_qform",
        "forms.radical",
        "pointed.check_axioms",
        "graphs.canonical_form",
        "blocks.block_dim_glued",
    ):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "pointed.verdicts",
        "pointed.mueger_center",
        "torus.st_matrices",
        "torus.check_relations",
        "torus.anomaly",
        "torus.fusion_from_s",
        "blocks.block_dim_direct",
        "blocks.verlinde_dim",
        "config.parse_config",
    ):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.busy_s"] = busy.get(f"cli.{sub}", 0.0)
    out["cli.output_bytes"] = sum(tracer.count_sum(f"cli.{sub}", "output_bytes") for sub in CLI_SUBCOMMANDS)
    out["pointed.check_axioms.pairs"] = tracer.count_sum("pointed.check_axioms", "pairs")
    out["torus.st_matrices.entries"] = tracer.count_sum("torus.st_matrices", "entries")
    out["torus.fusion_from_s.entries"] = tracer.count_sum("torus.fusion_from_s", "entries")
    out["blocks.block_dim_glued.labelings"] = tracer.count_sum("blocks.block_dim_glued", "labelings")
    moves = ("surfaces.whitehead_move", "surfaces.s_move")
    out["surfaces.moves.busy_s"] = sum(busy.get(m, 0.0) for m in moves)
    out["surfaces.moves.calls"] = sum(calls.get(m, 0) for m in moves)
    for key, value in tracer.enumeration().items():
        out[f"surfaces.enumerate_decompositions.{key}"] = value
    for layer, value in tracer.self_time_by_layer().items():
        out[f"{layer}.self_s"] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
