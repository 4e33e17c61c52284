"""CLI configuration: one JSON file naming exactly one category source.

This module checks the envelope: both levels are objects, no field is
unknown, exactly one of ``pointed``/``lattice``/``builtin`` is given and
its required fields are present.  A breach raises
:class:`~gvblocks.errors.ConfigError` (``cli.config``) naming the field.
The values go as read to the library constructor that uses them
(:func:`~gvblocks.forms.make_group`, :func:`~gvblocks.forms.make_qform`,
:func:`~gvblocks.pointed.make_category`,
:func:`~gvblocks.lattice.make_lattice` or
:func:`~gvblocks.torus.builtin_modular_data`), which refuses a bad one
with its own code.

Rationals are carried as "p/q" strings so exactness survives
serialization; floats appear only in outputs.  Empty lists describe
rank 0.  Example::

    {"category": {"lattice": {"gram": [[8]], "xi": ["1/8"]}}}
    {"category": {"pointed": {"invariant_factors": [2],
                              "qform_matrix": [["1/4"]], "h0": [0]}}}
    {"category": {"builtin": "fibonacci"}}
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError
from .forms import make_group, make_qform
from .lattice import LatticeData, make_lattice, to_pointed_gv
from .pointed import PointedGVCategory, make_category
from .torus import ModularData, builtin_modular_data

#: The fields of each category variant, all required; a builtin is a bare name.
_FIELDS = {
    "pointed": ("invariant_factors", "qform_matrix", "h0"),
    "lattice": ("gram", "xi"),
    "builtin": (),
}


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _check_object(obj, path: str, fields, not_object: str = "must be an object"):
    """``obj`` is a JSON object with no field outside ``fields``."""
    _expect(isinstance(obj, dict), path, not_object)
    extra = set(obj) - set(fields)
    _expect(not extra, path, f"unknown fields {sorted(extra)}")


def parse_config_data(data) -> LatticeData | PointedGVCategory | ModularData:
    """The lattice, pointed category or modular data a parsed config names."""
    _check_object(data, "config", ("category",), "top level must be an object")
    _expect("category" in data, "config", "missing 'category'")
    cat = data["category"]
    _check_object(cat, "config.category", _FIELDS)
    _expect(
        len(cat) == 1,
        "config.category",
        f"exactly one of pointed/lattice/builtin required, got {sorted(cat)}",
    )
    ((variant, body),) = cat.items()
    if variant == "builtin":
        return builtin_modular_data(body)
    path = f"config.category.{variant}"
    _check_object(body, path, _FIELDS[variant])
    for key in _FIELDS[variant]:
        _expect(key in body, path, f"missing '{key}'")
    if variant == "lattice":
        return make_lattice(body["gram"], body["xi"])
    group = make_group(body["invariant_factors"])
    return make_category(group, make_qform(group, body["qform_matrix"]), body["h0"])


def parse_config(path) -> LatticeData | PointedGVCategory | ModularData:
    """Load a config file and build what it names; envelope errors carry the
    offending field path, value errors the constructor's code."""
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


def build_lattice(cat: LatticeData | PointedGVCategory | ModularData) -> LatticeData:
    if not isinstance(cat, LatticeData):
        raise ConfigError("config.category", "this command needs a lattice category")
    return cat


def build_category(cat: LatticeData | PointedGVCategory | ModularData) -> PointedGVCategory:
    """Pointed category from a pointed or lattice config variant."""
    if isinstance(cat, LatticeData):
        return to_pointed_gv(cat)
    if isinstance(cat, PointedGVCategory):
        return cat
    raise ConfigError(
        "config.category", "this command needs a pointed or lattice category, not a builtin table"
    )
