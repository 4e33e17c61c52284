"""Operations of the catalog, gluing and cli workloads, and their checks.

Each ``*_op`` function times only the calls into gvblocks (or the CLI
process) and returns the latency in seconds together with ``failure``:
``None`` for a verified operation, a message otherwise.  Input preparation that is
not gvblocks work (turning ``"p/q"`` strings into fractions, building a
deliberately broken twist table) happens before the clock starts, and the
oracle checks after it stops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gvblocks as gv
import gvblocks.cli
from gvblocks.config import parse_config

import oracles as orc

CLI_TIMEOUT_S = 120


def _frac_rows(rows):
    return [[Fraction(a) for a in row] for row in rows]


# --- catalog ----------------------------------------------------------------


def _prepare_catalog(op) -> dict:
    prep = {}
    if "gram" in op:
        prep["xi"] = [Fraction(x) for x in op["xi"]]
    else:
        prep["A"] = _frac_rows(op["qform"])
    if "twist_flip" in op:
        factors, h0 = op["factors"], op["h0"]
        table = orc.theta_table(factors, prep["A"], h0)
        flip = tuple(op["twist_flip"])
        table[flip] = (table[flip] + Fraction(1, 2)) % 1
        prep["twist_table"] = table
    return prep


def _catalog_pipeline(op, prep) -> dict:
    """The inspect / torus-rep pipeline through the public library API."""
    if "gram" in op:
        C = gv.to_pointed_gv(gv.make_lattice(op["gram"], prep["xi"]))
    else:
        group = gv.make_group(op["factors"])
        C = gv.make_category(group, gv.make_qform(group, prep["A"]), tuple(op["h0"]))
    if "twist_table" in prep:
        return {"C": C, "axioms": gv.check_axioms(C, twist=prep["twist_table"].__getitem__)}
    out = {"C": C, "axioms": gv.check_axioms(C), "verdicts": gv.verdicts(C), "center": gv.mueger_center(C)}
    if out["verdicts"].nondegenerate and C.h0 == C.group.zero:
        md = gv.st_matrices(C)
        out.update(md=md, relations=gv.check_relations(md), anomaly=gv.anomaly(C))
        if C.group.order <= 64:
            out["fusion"] = gv.fusion_from_s(md)
    return out


def _check_error(op, exc):
    expected = op["kind"].split(":", 1)[1]
    if exc is None:
        return f"expected error {expected}, got a result"
    if expected == "axiom_witness" or getattr(exc, "code", None) != expected:
        return f"expected {expected}, got {type(exc).__name__} {exc}"
    if expected == "forms.invalid_qform":
        w, A = exc.witness, _frac_rows(op["qform"])
        reduced = [c % n for c, n in zip(w, op["factors"])]
        if w is None or orc.q_value(A, w) == orc.q_value(A, reduced):
            return f"witness {w} does not show q ill-defined"
    return None


def check_catalog(op, prep, out, exc):
    if op["kind"].startswith("invalid:") and op["kind"] != "invalid:axiom_witness":
        return _check_error(op, exc)
    if exc is not None:
        return f"unexpected {type(exc).__name__}: {exc}"
    C = out["C"]
    factors, A, h0 = C.group.invariant_factors, _frac_rows(C.qform.matrix), C.h0
    if "gram" in op:
        if tuple(factors) != orc.smith_invariants(op["gram"]):
            return f"discriminant group {factors} != Smith invariants {orc.smith_invariants(op['gram'])}"
    elif tuple(factors) != tuple(op["factors"]):
        return f"group {factors} != input {op['factors']}"
    if "twist_table" in prep:
        failed = out["axioms"].failed()
        if not failed:
            return "broken twist passed every axiom"
        if not any(
            c.witness is not None
            and orc.twist_witness_holds(factors, A, h0, prep["twist_table"], c.name, c.witness)
            for c in failed
        ):
            return f"no failed axiom has a real witness: {failed}"
        return None
    if not out["axioms"].all_passed:
        return f"valid category fails axioms: {out['axioms'].failed()}"
    mask = orc.radical_mask(factors, A)
    rad = int(mask.sum())
    v = out["verdicts"]
    if v.nondegenerate != (rad == 1):
        return f"nondegenerate={v.nondegenerate} but the radical has order {rad}"
    if v.modular != (rad == 1 and not any((2 * h) % n for h, n in zip(h0, factors))):
        return f"modular verdict {v.modular} is wrong"
    center = out["center"]
    if center.radical.order != rad:
        return f"Mueger radical order {center.radical.order} != {rad}"
    radical = [x for x, keep in zip(orc.all_elements(factors), mask) if keep]
    balanced = sum((orc.q_value(A, x) - orc.b_value(A, x, h0)) % 1 == 0 for x in radical)
    if center.balanced.order != balanced:
        return f"balanced order {center.balanced.order} != {balanced}"
    torus = rad == 1 and not any(h0)
    if torus != ("md" in out):
        return "torus data computed in the wrong regime"
    if not torus:
        return None
    rel, gamma = out["relations"], out["anomaly"].gamma
    if not rel.passed:
        return f"SL(2,Z) relations fail: {rel}"
    reference = orc.milgram_gamma(op["gram"]) if "gram" in op else orc.gauss_sum(factors, A)
    failure = orc.close(rel.lam, gamma, "lambda vs gamma") or orc.close(
        gamma, reference, "gamma vs Milgram" if "gram" in op else "gamma vs Gauss sum"
    )
    if failure or "fusion" not in out:
        return failure
    return orc.fusion_is_group_law(out["fusion"].tensor, out["md"].elements, factors)


def catalog_op(op, paths=None, tracer=None):
    if op["source"] == "cli":
        return cli_inprocess_op(op, paths[cli_key(op)], tracer)
    prep = _prepare_catalog(op)
    out = exc = None
    t0 = time.perf_counter()
    try:
        out = _catalog_pipeline(op, prep)
    except gv.GVBlocksError as e:
        exc = e
    latency = time.perf_counter() - t0
    return latency, check_catalog(op, prep, out, exc)


def catalog_warmup():
    """First-call costs (LAPACK, numpy kernels) on a small modular input."""
    op = {"source": "lattice", "kind": "modular", "order": 8, "gram": [[2, 1, 0], [1, 2, 0], [0, 0, 4]], "xi": ["0"] * 3}
    prep = _prepare_catalog(op)
    return check_catalog(op, prep, _catalog_pipeline(op, prep), None)


# --- gluing -----------------------------------------------------------------


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def _gluing_pipeline(op, A, labels) -> dict:
    group = gv.make_group(op["factors"])
    C = gv.make_category(group, gv.make_qform(group, A), tuple(op["h0"]))
    spec = gv.make_surface(op["genus"], labels)
    direct = gv.block_dim_direct(C, spec)
    pds = gv.enumerate_decompositions(spec)
    glued = [gv.block_dim_glued(C, pd, labels) for pd in pds]
    pd0 = pds[op["move_pick"] % len(pds)]
    moved = []
    for a, b in pd0.dual.pairing:
        loop = pd0.dual.attach_map[a] == pd0.dual.attach_map[b]
        pd = gv.s_move(pd0, a) if loop else gv.whitehead_move(pd0, a)
        moved.append((pd, gv.block_dim_glued(C, pd, labels), pd.canonical_key))
    return {"direct": direct, "pds": pds, "glued": glued, "moved": moved}


def check_gluing(op, out):
    genus, n = op["genus"], op["n"]
    expected = orc.direct_dim(op["factors"], op["h0"], genus, op["labels"])
    if out["direct"] != expected:
        return f"direct {out['direct']} != {expected}"
    if genus == 0 and len(out["pds"]) != _double_factorial(2 * n - 5):
        return f"{len(out['pds'])} genus-0 classes, expected (2n-5)!! = {_double_factorial(2 * n - 5)}"
    bad = [d for d in out["glued"] if d != expected]
    if bad:
        return f"glued {bad[0]} != direct {expected}"
    keys = {pd.canonical_key for pd in out["pds"]}
    for pd, dim, key in out["moved"]:
        if dim != expected:
            return f"moved decomposition glues to {dim} != {expected}"
        if key not in keys or (pd.genus, pd.n) != (genus, n):
            return f"move {pd.moves[-1]} leaves the enumerated classes"
    return None


def gluing_op(op):
    A = _frac_rows(op["qform"])
    labels = [tuple(lab) for lab in op["labels"]]
    t0 = time.perf_counter()
    try:
        out = _gluing_pipeline(op, A, labels)
    except gv.GVBlocksError as e:
        return time.perf_counter() - t0, f"unexpected {type(e).__name__}: {e}"
    latency = time.perf_counter() - t0
    return latency, check_gluing(op, out)


def gluing_warmup():
    """Fill the decomposition cache for every surface; users pay this once."""
    from inputs import SURFACES

    for genus, n in SURFACES:
        gv.enumerate_decompositions(gv.make_surface(genus, [(0,)] * n))


# --- cli --------------------------------------------------------------------


def write_configs(rounds, directory: Path) -> dict[str, Path]:
    """One file per distinct CLI config; returns op key -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for rnd in rounds:
        for op in rnd:
            if "config" not in op:
                continue
            text = json.dumps(op["config"], sort_keys=True)
            path = directory / (hashlib.sha256(text.encode()).hexdigest()[:16] + ".json")
            if not path.exists():
                path.write_text(text, encoding="utf-8")
            paths[cli_key(op)] = path
    return paths


def cli_key(op) -> str:
    return json.dumps([op["sub"], op["config"], op["args"]], sort_keys=True)


def cli_argv(op, path) -> list[str]:
    return [op["sub"], "--config", str(path), "--json", *op["args"]]


def _namespace(op) -> argparse.Namespace:
    """The parsed arguments cli.run reads, with the parser's defaults."""
    ns = argparse.Namespace(tol=None, json=True, genus=None, labels="", glued=False, max_genus=3)
    args = list(op["args"])
    while args:
        flag = args.pop(0)
        if flag == "--glued":
            ns.glued = True
        elif flag == "--genus":
            ns.genus = int(args.pop(0))
        elif flag == "--labels":
            ns.labels = args.pop(0)
        elif flag == "--max-genus":
            ns.max_genus = int(args.pop(0))
    return ns


def cli_expected_bytes(op, path) -> bytes:
    """The --json bytes the in-process ``cli.run`` result renders to."""
    try:
        data = gvblocks.cli.run(op["sub"], parse_config(path), _namespace(op))
    except gv.GVBlocksError as e:
        data = {"error": {"code": e.code, "message": e.message}}
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _verlinde_reference(name: str, genus: int) -> float:
    if name == "ising":
        return 2 ** (2 * genus - 1) + 2 ** (genus - 1)
    phi = (1 + math.sqrt(5)) / 2
    return (2 + phi) ** (genus - 1) * (1 + phi ** (2 - 2 * genus))


def _gamma_reference(category) -> complex:
    """Milgram's formula for lattices, the Gauss sum computed here for forms."""
    if "lattice" in category:
        return orc.milgram_gamma(category["lattice"]["gram"])
    p = category["pointed"]
    return orc.gauss_sum(p["invariant_factors"], _frac_rows(p["qform_matrix"]))


def check_cli_output(op, returncode: int, stdout: bytes):
    """Checks of one CLI report against arithmetic done here."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return f"exit {returncode}, output is not JSON"
    if op["expect_error"]:
        code = data.get("error", {}).get("code")
        if returncode != 2 or code != op["expect_error"]:
            return f"expected exit 2 with {op['expect_error']}, got exit {returncode} {code}"
        return None
    if returncode != 0:
        return f"exit {returncode}: {data}"
    cat = op["config"]["category"]
    lattice = cat.get("lattice")
    pointed = cat.get("pointed")
    sub = op["sub"]
    if sub == "inspect":
        if not all(data["axioms"].values()):
            return f"axioms fail: {data['axioms']}"
        if isinstance(data["anomaly"], dict):
            return orc.close(complex(*data["anomaly"]["gamma"]), _gamma_reference(cat), "gamma")
    elif sub == "lattice":
        group = data["discriminant_group"]
        if tuple(group["invariant_factors"]) != orc.smith_invariants(lattice["gram"]):
            return f"discriminant group {group['invariant_factors']} is wrong"
    elif sub == "blocks":
        genus = data["genus"]
        expected = orc.direct_dim(pointed["invariant_factors"], pointed["h0"], genus, data["labels"])
        bad = [r for r in data["results"] if r["dim"] != expected]
        if bad:
            return f"{bad[0]['method']} dimension {bad[0]['dim']} != {expected}"
        if ("--glued" in op["args"]) != (len(data["results"]) > 1):
            return "glued results missing or unexpected"
    elif sub == "torus-rep":
        if not data["relations_pass"]:
            return "relations fail"
        if "anomaly" in data:
            lam, gamma = complex(*data["lambda"]), complex(*data["anomaly"]["gamma"])
            return orc.close(lam, gamma, "lambda vs gamma") or orc.close(gamma, _gamma_reference(cat), "gamma")
    elif sub == "verlinde":
        for row in data["table"]:
            g = row["genus"]
            if pointed:
                ref = math.prod(pointed["invariant_factors"]) ** g
            else:
                ref = _verlinde_reference(cat["builtin"], g)
            if row["rounded"] != round(ref) or row["residual"] > 1e-6:
                return f"genus {g}: Verlinde {row['rounded']} != {round(ref)}"
    return None


def cli_subprocess_op(op, path):
    """One fresh ``python -m gvblocks.cli`` process; returns (latency, process, failure)."""
    argv = [sys.executable, "-m", "gvblocks.cli", *cli_argv(op, path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, f"timed out after {CLI_TIMEOUT_S} s"
    latency = time.perf_counter() - t0
    return latency, proc, check_cli_output(op, proc.returncode, proc.stdout)


def cli_inprocess_op(op, path, tracer=None):
    """``cli.main`` in this process; the traced span records the output size."""
    buf = io.StringIO()
    span = tracer.span(f"cli.{op['sub']}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(buf):
        code = gvblocks.cli.main(cli_argv(op, path))
    latency = time.perf_counter() - t0
    out = buf.getvalue().encode()
    if tracer:
        tracer.counts[span.idx] = {"output_bytes": len(out)}
    return latency, check_cli_output(op, code, out)
