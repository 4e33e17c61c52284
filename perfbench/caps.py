"""Each advertised cap, once, in its own child process.

The harness runs one child at a time under a wall-clock deadline and an
address-space limit well below the machine's memory, so an input that would
allocate tens of GiB (``fusion_from_s`` at |G| = 1024) fails inside its child
instead of exhausting the machine.  Every outcome is one of:

* ``completed``: finished within the deadline and passed its check;
* ``refused``: stopped with a coded ``GVBlocksError`` within the deadline;
* ``timed_out``: still running at the deadline, and killed;
* ``crashed``: any other end (an uncoded exception, ``MemoryError`` at the
  address-space limit, a signal, or a completed result that fails its check).

Timed-out and crashed operations count as failed.  A child prints ``READY``
after its imports and input construction, which gives a set-up time per
child.

Usage of a child: ``python3 caps.py --child NAME --seed N``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 25.0
ADDRESS_SPACE_BYTES = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


# --- children ---------------------------------------------------------------


def _category(gv, rng, factors, nondegenerate: bool):
    import inputs

    for _ in range(200):
        A = inputs.random_qform(rng, factors)
        if not nondegenerate or inputs.nondegenerate(factors, A):
            group = gv.make_group(factors)
            return gv.make_category(group, gv.make_qform(group, A), (0,) * len(factors)), A
    raise ValueError(f"no non-degenerate form on {factors}")


def _eight_vertex_graph(gv):
    vertices = {f"v{i}": [f"a{i}", f"b{i}", f"c{i}"] for i in range(8)}
    edges = [(f"a{i}", f"b{(i + 1) % 8}") for i in range(8)] + [(f"c{i}", f"c{i + 4}") for i in range(4)]
    return vertices, edges


def _child(name: str, seed: int):
    """Build the input, print READY, run the operation, then check it."""
    import gvblocks as gv
    import inputs
    import oracles as orc

    rng = inputs.rng_for("caps", seed, 0)
    if name.startswith(("axioms", "relations", "fusion", "verdicts")):
        factors = {"axioms_z4096": [4096], "axioms_z64x64": [64, 64], "relations_z4096": [4096],
                   "fusion_z1024": [1024], "verdicts_z65536": [256, 256]}[name]
        C, A = _category(gv, rng, factors, nondegenerate=name != "verdicts_z65536")
    print("READY", flush=True)
    if name.startswith("axioms"):
        report = gv.check_axioms(C)
        return None if report.all_passed else f"valid form fails axioms: {report.failed()}"
    if name == "relations_z4096":
        rel = gv.check_relations(gv.st_matrices(C))
        return None if rel.passed else f"relations fail: {rel}"
    if name == "verdicts_z65536":
        v = gv.verdicts(C)
        rad = int(orc.radical_mask(factors, A).sum())
        return None if v.nondegenerate == (rad == 1) else "nondegenerate verdict is wrong"
    if name == "fusion_z1024":
        md = gv.st_matrices(C)
        return orc.fusion_is_group_law(gv.fusion_from_s(md).tensor, md.elements, factors)
    if name.startswith("glued_c4"):
        m = int(name.rsplit("z", 1)[1])
        group = gv.make_group([m])
        C = gv.make_category(group, gv.make_qform(group, [[Fraction(1, 2 * m)]]), (0,))
        for genus, n in [(0, 6), (1, 4), (2, 2), (3, 0)]:
            labels = [(rng.randrange(m),) for _ in range(n)]
            expected = orc.direct_dim([m], [0], genus, labels)
            for pd in gv.enumerate_decompositions(gv.make_surface(genus, labels)):
                if gv.block_dim_glued(C, pd, labels) != expected:
                    return f"glued count differs from {expected} at ({genus}, {n})"
        return None
    if name == "canonical_8v":
        vertices, edges = _eight_vertex_graph(gv)
        order = list(vertices)
        rng.shuffle(order)
        relabel = {v: f"w{i}" for i, v in enumerate(order)}
        shuffled = {relabel[v]: hes for v, hes in vertices.items()}
        same = gv.canonical_form(gv.make_graph(vertices, edges)) == gv.canonical_form(gv.make_graph(shuffled, edges))
        return None if same else "canonical form depends on vertex names"
    raise ValueError(f"unknown cap {name}")


def child_main(name: str, seed: int) -> int:
    import gvblocks as gv

    try:
        failure = _child(name, seed)
    except gv.GVBlocksError as e:
        print(json.dumps({"status": "refused", "code": e.code}), flush=True)
        return 0
    print(json.dumps({"status": "completed", "check": failure}), flush=True)
    return 0


# --- harness ----------------------------------------------------------------


def _cli_config(seed: int, out_dir: Path) -> Path:
    import inputs

    rng = inputs.rng_for("caps", seed, 0)
    A = inputs.random_qform(rng, [64, 64])
    config = {"category": {"pointed": {"invariant_factors": [64, 64],
                                       "qform_matrix": [[inputs.frac(a) for a in row] for row in A],
                                       "h0": [0, 0]}}}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"caps-inspect-{seed}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_one(argv: list[str], env: dict, is_cli: bool) -> dict:
    """Run one child under the deadline; classify how it ended."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            preexec_fn=_limit_address_space)
    ready_s = None
    chunks: list[bytes] = []
    timed_out = False
    streams = [proc.stdout, proc.stderr]
    err_chunks: list[bytes] = []
    try:
        while streams:
            remaining = DEADLINE_S - (time.perf_counter() - t0)
            if remaining <= 0:
                timed_out = True
                break
            readable, _, _ = select.select(streams, [], [], remaining)
            for stream in readable:
                data = os.read(stream.fileno(), 1 << 16)
                if not data:
                    streams.remove(stream)
                elif stream is proc.stdout:
                    chunks.append(data)
                    if ready_s is None and b"READY\n" in b"".join(chunks):
                        ready_s = time.perf_counter() - t0
                else:
                    err_chunks.append(data)
    finally:
        if timed_out or streams:
            proc.kill()
        proc.wait()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    out = b"".join(chunks).decode(errors="replace").strip().splitlines()
    err = b"".join(err_chunks).decode(errors="replace").strip().splitlines()
    rec = {"wall_s": wall, "ready_s": ready_s, "returncode": proc.returncode}
    if timed_out:
        return {**rec, "outcome": "timed_out"}
    if is_cli:
        try:
            data = json.loads("\n".join(out))
        except ValueError:
            data = None
        axioms = data.get("axioms") if isinstance(data, dict) else None
        if proc.returncode == 0 and isinstance(axioms, dict) and all(axioms.values()):
            return {**rec, "outcome": "completed"}
        if proc.returncode == 0 and isinstance(axioms, str):
            return {**rec, "outcome": "refused", "code": axioms}
        if proc.returncode in (2, 3) and data and "error" in data:
            return {**rec, "outcome": "refused", "code": data["error"]["code"]}
        return {**rec, "outcome": "crashed", "error": (err or out or [""])[-1]}
    last = json.loads(out[-1]) if out and out[-1].startswith("{") else None
    if proc.returncode == 0 and last and last["status"] == "refused":
        return {**rec, "outcome": "refused", "code": last["code"]}
    if proc.returncode == 0 and last and last["check"] is None:
        return {**rec, "outcome": "completed"}
    if proc.returncode == 0 and last:
        return {**rec, "outcome": "crashed", "error": f"wrong result: {last['check']}", "wrong": True}
    return {**rec, "outcome": "crashed", "error": (err or [f"exit {proc.returncode}"])[-1]}


def run_caps(seed: int, env: dict, out_dir: Path) -> dict:
    from metrics import CAPS

    results = {}
    for name in CAPS:
        if name == "cli_inspect_z64x64":
            argv = [sys.executable, "-m", "gvblocks.cli", "inspect", "--config",
                    str(_cli_config(seed, out_dir)), "--json"]
        else:
            argv = [sys.executable, str(HERE / "caps.py"), "--child", name, "--seed", str(seed)]
        results[name] = run_one(argv, env, is_cli=name.startswith("cli"))
        print(f"  caps {name:<20} {results[name]['outcome']:<10} {results[name]['wall_s']:7.2f} s", file=sys.stderr)
    outcomes = [r["outcome"] for r in results.values()]
    ready = [r["ready_s"] for r in results.values() if r["ready_s"] is not None]
    return {
        "results": results,
        "attempted": len(results),
        "failed": sum(o in ("timed_out", "crashed") for o in outcomes),
        "wrong": sum(bool(r.get("wrong")) for r in results.values()),
        "setup_s": statistics.median(ready),
        "counts": {k: outcomes.count(k) for k in ("completed", "refused", "timed_out", "crashed")},
    }


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--child", required=True)
    p.add_argument("--seed", type=int, required=True)
    a = p.parse_args()
    sys.exit(child_main(a.child, a.seed))
