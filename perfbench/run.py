"""The gvblocks benchmark.

    python3 perfbench/run.py --workload {catalog,gluing,cli,caps} --seed N \\
        --seconds S --trace {0,1}

``catalog`` and ``gluing`` are the measured workloads of ``BENCHMARK.json``;
``cli`` and ``caps`` are probes run by the same command.

Run from the repository root; gvblocks is imported from ``src/``.  Each
workload runs in its own worker process (``worker.py``), single client,
closed loop.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run, and ``perfbench/out/`` keeps the full record.

``--trace 0`` measures the end-to-end metrics for S seconds of whole rounds,
and repeats set-up in fresh processes to report its median.  ``--trace 1``
runs a fixed number of rounds twice in fresh processes, untraced and traced,
and reports the per-layer metrics of the traced run and the tracing
overhead between the two.  ``caps`` probes every advertised cap once (see
``caps.py``).

The exit status is 0 when every check passed and 1 when an operation failed
(for ``caps``: when a completed operation gave a wrong result).  Without the
gvblocks sources beside it, the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
THREADS = "1"

sys.path.insert(0, str(HERE))

from metrics import CAPS, END_TO_END, MOVES, PER_LAYER, PROBE_WORKLOADS, WORKLOADS  # noqa: E402
from tracing import LAYERS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: steadier numbers on a shared machine, same as a user
    # who pins threads; recorded with every result
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def _worker(env, workload, seed, *, seconds=0.0, rounds=0, trace=0, setup_only=False):
    """Start a worker; return (set-up seconds, result dict or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    argv += ["--seconds", str(seconds)] if seconds else []
    argv += ["--rounds", str(rounds)] if rounds else []
    argv += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {workload} exited with status {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(THREADS),
        "cpu": cpu,
        "seed": seed,
    }


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(env, workload, seed, seconds):
    setup_main, result = _worker(env, workload, seed, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setups = [setup_main] + [
        _worker(env, workload, seed, setup_only=True)[0] for _ in range(SETUP_REPEATS - 1)
    ]
    lat = result["latencies"]
    p90 = _quantile(lat, 0.9)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in END_TO_END.items()}
    detail = {
        "latency_samples": len(lat),
        "latency_p90_samples_above": sum(x > p90 for x in lat),
        "rounds": result["rounds"],
        "setup_samples_s": setups,
        "failed_ratio": len(result["failures"]) / result["attempted"],
    }
    return result, metrics, detail


def _per_layer(env, workload, seed):
    from inputs import TRACE_ROUNDS

    rounds = TRACE_ROUNDS[workload]
    _, plain = _worker(env, workload, seed, rounds=rounds, trace=0)
    _, traced = _worker(env, workload, seed, rounds=rounds, trace=1)
    values = {name: 0 for name in PER_LAYER}
    values.update({k: v for k, v in traced["layers"].items() if k in PER_LAYER})
    values.update(traced["shares"])
    values["trace.overhead_share"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1
    values["failed_ratio"] = len(traced["failures"]) / traced["attempted"]
    detail = {
        "rounds": rounds,
        "untraced_ops_s": sum(plain["latencies"]),
        "traced_ops_s": sum(traced["latencies"]),
        "spans_file": traced["spans_file"],
        "not_exercised": sorted(k for k in PER_LAYER if k.split(".")[0] in LAYERS + ("caps",) and not values[k]),
        "wait_time": "not reported: single client, closed loop, no queue in any layer",
        "moves": MOVES,
    }
    metrics = {name: _metric(values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    return traced, metrics, detail, [{**f, "op": f"untraced {f['op']}"} for f in plain["failures"]]


def _caps(env, seed, trace):
    from caps import run_caps

    caps = run_caps(seed, env, OUT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failed_ratio = caps["failed"] / caps["attempted"]
    if trace:
        values = {name: 0 for name in PER_LAYER}
        values.update({f"caps.{k}": v for k, v in caps["counts"].items()})
        values.update({f"caps.{name}.wall_s": caps["results"][name]["wall_s"] for name in CAPS})
        values["failed_ratio"] = failed_ratio
        metrics = {name: _metric(values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": _metric(caps["setup_s"], "s"),
            "failed_ratio": _metric(failed_ratio, "ratio"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    return caps, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + PROBE_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "gvblocks" / "__init__.py").is_file():
        print(f"error: gvblocks sources not found at {SRC.relative_to(ROOT)}/gvblocks", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = _env()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "environment": _environment(args.seed)}

    if args.workload == "caps":
        caps, metrics = _caps(env, args.seed, args.trace)
        record["caps"] = caps
        attempted, failed, correct = caps["attempted"], caps["failed"], caps["wrong"] == 0
        failures = [
            {"op": name, "outcome": r["outcome"], "error": r.get("error", r.get("code", ""))}
            for name, r in caps["results"].items()
            if r["outcome"] != "completed"
        ]
    else:
        if args.trace:
            result, metrics, detail, plain_failures = _per_layer(env, args.workload, args.seed)
        else:
            result, metrics, detail = _end_to_end(env, args.workload, args.seed, args.seconds)
            plain_failures = []
        failures = result["failures"] + plain_failures
        attempted, failed = result["attempted"], len(result["failures"])
        correct = not failures
        record.update(detail=detail, histogram=result["histogram"], shares=result["shares"],
                      operations_in_list=result["operations_in_list"])
        record["environment"]["operation_list_sha256"] = result["digest"]
    record.update(metrics=metrics, failures=failures)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    if "detail" in record:
        print("# " + json.dumps({k: v for k, v in record["detail"].items() if k != "moves"}))
    for mname, m in metrics.items():
        print(f"# {mname:<48} {m['value']:.6g} {m['unit']}")
    print(f"# full record: {(OUT / name).relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
