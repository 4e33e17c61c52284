"""CLI configuration: one JSON file selecting exactly one category source.

Rationals are carried as "p/q" strings so exactness survives serialization;
floats appear only in outputs.  Example::

    {"category": {"lattice": {"gram": [[8]], "xi": ["1/8"]}}}
    {"category": {"pointed": {"invariant_factors": [2],
                              "qform_matrix": [["1/4"]], "h0": [0]}}}
    {"category": {"builtin": "fibonacci"}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .forms import make_group, make_qform
from .lattice import LatticeData, make_lattice, to_pointed_gv
from .pointed import PointedGVCategory, make_category
from .torus import BUILTIN_NAMES


@dataclass(frozen=True)
class PointedSpec:
    invariant_factors: tuple[int, ...]
    qform_matrix: tuple[tuple[Fraction, ...], ...]
    h0: tuple[int, ...]


@dataclass(frozen=True)
class LatticeSpec:
    gram: tuple[tuple[int, ...], ...]
    xi: tuple[Fraction, ...]


@dataclass(frozen=True)
class BuiltinSpec:
    name: str


@dataclass(frozen=True)
class Config:
    category: PointedSpec | LatticeSpec | BuiltinSpec
    tolerance: float = 1e-9
    enumeration_cap: int = 64


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, f"expected a rational 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(path, f"malformed rational {value!r}: {e}") from None
        return f
    raise ConfigError(path, f"expected a rational 'p/q' string, got {value!r}")


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _int_list(value, path: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), path, "expected a list of integers")
    return tuple(_int(x, f"{path}[{i}]") for i, x in enumerate(value))


def _int_matrix(value, path: str) -> tuple[tuple[int, ...], ...]:
    _expect(isinstance(value, list) and value, path, "expected a non-empty matrix")
    return tuple(_int_list(row, f"{path}[{i}]") for i, row in enumerate(value))


def _rational_matrix(value, path: str) -> tuple[tuple[Fraction, ...], ...]:
    _expect(isinstance(value, list) and value, path, "expected a non-empty matrix")
    out = []
    for i, row in enumerate(value):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected a list")
        out.append(tuple(_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


def _no_extra_keys(obj: dict, allowed: set[str], path: str):
    extra = set(obj) - allowed
    _expect(not extra, path, f"unknown fields {sorted(extra)}")


def parse_config_data(data, path: str = "") -> Config:
    root = path or "config"
    _expect(isinstance(data, dict), root, "top level must be an object")
    _no_extra_keys(data, {"category", "tolerance", "enumeration_cap"}, root)
    _expect("category" in data, root, "missing 'category'")
    cat = data["category"]
    _expect(isinstance(cat, dict), f"{root}.category", "must be an object")
    variants = set(cat) & {"pointed", "lattice", "builtin"}
    _no_extra_keys(cat, {"pointed", "lattice", "builtin"}, f"{root}.category")
    _expect(
        len(variants) == 1,
        f"{root}.category",
        f"exactly one of pointed/lattice/builtin required, got {sorted(set(cat))}",
    )
    variant = variants.pop()
    body = cat[variant]
    if variant == "builtin":
        _expect(isinstance(body, str), f"{root}.category.builtin", "expected a name string")
        _expect(
            body.lower() in BUILTIN_NAMES,
            f"{root}.category.builtin",
            f"unknown builtin {body!r}; choose from {list(BUILTIN_NAMES)}",
        )
        category = BuiltinSpec(body.lower())
    elif variant == "pointed":
        p = f"{root}.category.pointed"
        _expect(isinstance(body, dict), p, "must be an object")
        _no_extra_keys(body, {"invariant_factors", "qform_matrix", "h0"}, p)
        for key in ("invariant_factors", "qform_matrix", "h0"):
            _expect(key in body, p, f"missing '{key}'")
        category = PointedSpec(
            _int_list(body["invariant_factors"], f"{p}.invariant_factors"),
            _rational_matrix(body["qform_matrix"], f"{p}.qform_matrix"),
            _int_list(body["h0"], f"{p}.h0"),
        )
    else:
        p = f"{root}.category.lattice"
        _expect(isinstance(body, dict), p, "must be an object")
        _no_extra_keys(body, {"gram", "xi"}, p)
        for key in ("gram", "xi"):
            _expect(key in body, p, f"missing '{key}'")
        xi_raw = body["xi"]
        _expect(isinstance(xi_raw, list), f"{p}.xi", "expected a list of rationals")
        category = LatticeSpec(
            _int_matrix(body["gram"], f"{p}.gram"),
            tuple(_rational(x, f"{p}.xi[{i}]") for i, x in enumerate(xi_raw)),
        )
    tolerance = data.get("tolerance", 1e-9)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or tolerance <= 0:
        raise ConfigError(f"{root}.tolerance", f"expected a positive number, got {tolerance!r}")
    cap = data.get("enumeration_cap", 64)
    cap = _int(cap, f"{root}.enumeration_cap")
    _expect(cap >= 1, f"{root}.enumeration_cap", "must be >= 1")
    return Config(category, float(tolerance), cap)


def parse_config(path) -> Config:
    """Load and validate a config file; errors carry the offending field path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"malformed JSON: {e}") from None
    return parse_config_data(data)


def build_lattice(config: Config) -> LatticeData:
    if not isinstance(config.category, LatticeSpec):
        raise ConfigError("config.category", "this command needs a lattice category")
    return make_lattice(config.category.gram, config.category.xi)


def build_category(config: Config) -> PointedGVCategory:
    """Pointed category from a pointed or lattice config variant."""
    cat = config.category
    if isinstance(cat, PointedSpec):
        group = make_group(cat.invariant_factors)
        q = make_qform(group, cat.qform_matrix)
        return make_category(group, q, group.reduce(cat.h0))
    if isinstance(cat, LatticeSpec):
        return to_pointed_gv(make_lattice(cat.gram, cat.xi))
    raise ConfigError(
        "config.category", "this command needs a pointed or lattice category, not a builtin table"
    )
