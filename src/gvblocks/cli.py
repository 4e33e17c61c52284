"""Command-line front end.

Subcommands: ``inspect``, ``lattice``, ``blocks``, ``torus-rep``,
``verlinde``.  Exit codes: 0 success, 2 validation error, 3 capacity,
unsupported regime or internal inconsistency.  ``--json`` switches to a
machine-readable report with floats rounded to 12 digits, which makes
repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .blocks import block_dim_direct, block_dim_glued, meets_condition, verlinde_dim
from .config import BuiltinSpec, CategorySpec, build_category, build_lattice, parse_config
from .errors import CapacityError, GVBlocksError, ValidationError
from .lattice import discriminant_data, to_pointed_gv
from .pointed import PointedGVCategory, check_axioms, mueger_center, verdicts
from .surfaces import enumerate_decompositions, make_surface
from .torus import (
    ModularData,
    anomaly,
    builtin_modular_data,
    check_relations,
    st_matrices,
    st_preflight,
)


def _r12(x: float) -> float:
    # + 0.0 turns -0.0 into 0.0, so the sign of rounding noise never prints
    return round(float(x), 12) + 0.0


def _c12(z: complex) -> list[float]:
    return [_r12(z.real), _r12(z.imag)]


def _matrix12(m) -> list[list[list[float]]]:
    return [[_c12(complex(x)) for x in row] for row in m]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _tristate(v: bool | None) -> str:
    return "undetermined" if v is None else ("true" if v else "false")


def _parse_labels(text: str | None, rank: int) -> list[tuple[int, ...]]:
    if not text or not text.strip():
        return []
    labels = []
    for part in text.split(";"):
        coords = [c.strip() for c in part.split(",")]
        try:
            vec = tuple(int(c) for c in coords)
        except ValueError:
            raise ValidationError(
                "cli.bad_labels", f"label {part!r} is not a comma-separated integer vector"
            ) from None
        if len(vec) != rank:
            raise ValidationError(
                "cli.bad_labels",
                f"label {part!r} has {len(vec)} coordinates, the group has rank {rank}",
            )
        labels.append(vec)
    return labels


def _category_summary(C: PointedGVCategory) -> dict:
    group = C.group
    return {
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
        "h0": list(C.h0),
        "g0": list(C.g0),
        "qform_matrix": [[_frac(a) for a in row] for row in C.qform.matrix],
    }


def _cmd_inspect(cat: CategorySpec, args) -> dict:
    C = build_category(cat)
    v = verdicts(C)
    center = mueger_center(C)
    try:
        axioms = {c.name: bool(c.passed) for c in check_axioms(C).checks}
    except CapacityError:
        axioms = "skipped (group too large for the exhaustive suite)"
    data = {
        "command": "inspect",
        "category": _category_summary(C),
        "axioms": axioms,
        "verdicts": {
            "nondegenerate": v.nondegenerate,
            "cofactorizable": v.cofactorizable,
            "modular": v.modular,
            "connected": _tristate(v.connected),
            "extension_unique": _tristate(v.extension_unique),
        },
        "mueger_center": {
            "radical_order": center.radical.order,
            "radical_invariant_factors": list(center.radical.invariant_factors),
            "balanced_order": center.balanced.order,
            "balanced_invariant_factors": list(center.balanced.invariant_factors),
        },
    }
    if v.nondegenerate and C.h0 == C.group.zero:
        rep = anomaly(C)
        data["anomaly"] = {
            "gamma": _c12(rep.gamma),
            "central_charge_mod8": _r12(rep.central_charge_mod8),
        }
    else:
        data["anomaly"] = "undefined (needs h0 = 0 and non-degenerate braiding)"
    return data


def _cmd_lattice(cat: CategorySpec, args) -> dict:
    L = build_lattice(cat)
    C = to_pointed_gv(L)
    return {
        "command": "lattice",
        "gram": [list(row) for row in L.gram],
        "xi": [_frac(x) for x in L.xi],
        "determinant": L.determinant,
        "discriminant_group": {
            "invariant_factors": list(C.group.invariant_factors),
            "order": C.group.order,
            "generator_lifts": [[_frac(c) for c in lift] for lift in discriminant_data(L).lifts],
        },
        "discriminant_form_matrix": [[_frac(a) for a in row] for row in C.qform.matrix],
        "h0": list(C.h0),
        "g0": list(C.g0),
    }


def _cmd_blocks(cat: CategorySpec, args) -> dict:
    C = build_category(cat)
    if args.genus is None or args.genus < 0:
        raise ValidationError("cli.bad_genus", "blocks needs --genus INT >= 0")
    labels = _parse_labels(args.labels, C.group.rank)
    spec = make_surface(args.genus, labels)
    condition_met = meets_condition(C, spec)
    limit = sys.get_int_max_str_digits()
    if condition_met and limit and spec.genus * math.log10(C.group.order) >= limit:
        raise CapacityError(
            "cli.output_cap",
            f"the dimension {C.group.order}^{spec.genus} has more than {limit} digits, "
            "Python's int-to-text limit (sys.get_int_max_str_digits)",
        )
    results = [
        {
            "dim": block_dim_direct(C, spec),
            "method": "direct",
            "condition_met": condition_met,
        }
    ]
    if args.glued:
        for i, pd in enumerate(enumerate_decompositions(spec)):
            results.append(
                {
                    "dim": block_dim_glued(C, pd, labels),
                    "method": "glued",
                    "decomposition_id": i,
                    "condition_met": condition_met,
                }
            )
    return {
        "command": "blocks",
        "genus": spec.genus,
        "labels": [list(lab) for lab in labels],
        "results": results,
    }


#: Largest rank whose S and T matrices ``torus-rep`` prints: the report
#: grows as rank^2 (27.8 MB of JSON at rank 512).
OUTPUT_CAP = 1024


def _torus_data(
    cat: CategorySpec, max_rank: int | None = None
) -> tuple[ModularData, PointedGVCategory | None]:
    """Modular data of the config and the pointed category behind it, if any.

    A pointed category that :func:`st_matrices` accepts but whose order
    exceeds ``max_rank`` is refused before its matrices are built.
    """
    if isinstance(cat, BuiltinSpec):
        return builtin_modular_data(cat.name), None
    C = build_category(cat)
    if max_rank is not None and C.group.order > max_rank:
        st_preflight(C)  # the library's own refusals keep their codes
        raise CapacityError(
            "cli.output_cap",
            f"torus-rep prints rank^2 matrix entries; rank {C.group.order} "
            f"exceeds the output cap {max_rank}",
        )
    return st_matrices(C), C


def _cmd_torus_rep(cat: CategorySpec, args) -> dict:
    md, C = _torus_data(cat, max_rank=OUTPUT_CAP)
    rel = check_relations(md)
    data = {
        "command": "torus-rep",
        "labels": list(md.labels),
        "S": _matrix12(md.S),
        "T": _matrix12(np.diag(md.T)),
        "lambda": _c12(rel.lam),
        "central_charge_mod8": _r12((4 / math.pi) * cmath.phase(rel.lam) % 8),
        "residuals": {
            "projective_st3": _r12(rel.residual_st3),
            "s_squared_conjugation": _r12(rel.residual_s2),
            "unitarity": _r12(rel.residual_unitary),
        },
        "relations_pass": rel.passed,
    }
    if C is not None:
        rep = anomaly(C)
        data["anomaly"] = {
            "gamma": _c12(rep.gamma),
            "central_charge_mod8": _r12(rep.central_charge_mod8),
        }
    return data


def _cmd_verlinde(cat: CategorySpec, args) -> dict:
    max_genus = args.max_genus
    if max_genus < 1:
        raise ValidationError("cli.bad_genus", "--max-genus must be >= 1")
    md, C = _torus_data(cat)
    table = []
    for g in range(1, max_genus + 1):
        rep = verlinde_dim(md, g)
        row = {
            "genus": g,
            "value": _c12(rep.value),
            "rounded": rep.rounded,
            "residual": _r12(rep.residual),
        }
        if C is not None:
            row["direct_dim"] = block_dim_direct(C, make_surface(g))
        table.append(row)
    return {"command": "verlinde", "max_genus": max_genus, "table": table}


def _render_text(data: dict) -> str:
    lines: list[str] = []

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, val in obj.items():
                if isinstance(val, (dict, list)) and val and not _is_flat(val):
                    lines.append(f"{indent}{k}:")
                    walk(val, indent + "  ")
                else:
                    lines.append(f"{indent}{k}: {_flat(val)}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)) and val and not _is_flat(val):
                    lines.append(f"{indent}-")
                    walk(val, indent + "  ")
                else:
                    lines.append(f"{indent}- {_flat(val)}")

    def _is_flat(val):
        if isinstance(val, list):
            return all(not isinstance(x, (dict, list)) for x in val) and len(val) <= 12
        return False

    def _flat(val):
        if isinstance(val, bool):
            return "true" if val else "false"
        if isinstance(val, list):
            return "[" + ", ".join(_flat(x) for x in val) + "]"
        return str(val)

    walk(data)
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "inspect": _cmd_inspect,
    "lattice": _cmd_lattice,
    "blocks": _cmd_blocks,
    "torus-rep": _cmd_torus_rep,
    "verlinde": _cmd_verlinde,
}


def run(subcommand: str, cat: CategorySpec, args) -> dict:
    """Dispatch a subcommand on a parsed config; returns the report data."""
    return _COMMANDS[subcommand](cat, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvblocks",
        description="Modular-functor data for pointed ribbon Grothendieck-Verdier categories",
    )
    parser.add_argument("--version", action="version", version=f"gvblocks {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("inspect", "group data, axiom suite, verdicts, Mueger center, anomaly"),
        ("lattice", "discriminant group/form report of a lattice config"),
        ("blocks", "conformal-block dimensions (direct and optionally glued)"),
        ("torus-rep", "projective SL(2,Z) representation data"),
        ("verlinde", "Verlinde dimensions for closed surfaces g = 1..max"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name == "blocks":
            p.add_argument("--genus", type=int, default=None)
            p.add_argument(
                "--labels",
                default="",
                help="boundary labels 'a,b;c,d;...' (semicolon-separated elements)",
            )
            p.add_argument("--glued", action="store_true", help="also sum over decompositions")
        if name == "verlinde":
            p.add_argument("--max-genus", type=int, default=3, dest="max_genus")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = run(args.subcommand, parse_config(args.config), args)
    except GVBlocksError as e:
        payload = {"error": {"code": e.code, "message": e.message}}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"error {e}", file=sys.stderr)
        return e.exit_code
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(_render_text(data), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
