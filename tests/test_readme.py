"""The config examples of README's CLI section parse and run."""

import argparse
import json
import pathlib

import pytest

from gvblocks import cli
from gvblocks.config import parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[dict]:
    """The lines of the first ```json block after the ``## CLI`` heading."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    return [json.loads(line) for line in block.splitlines() if line.strip()]


def test_three_examples_one_per_variant():
    assert [next(iter(c["category"])) for c in cli_examples()] == ["lattice", "pointed", "builtin"]


@pytest.mark.parametrize("index", range(3))
def test_example_runs(tmp_path, index):
    config = cli_examples()[index]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    sub = "verlinde" if "builtin" in config["category"] else "inspect"
    data = cli.run(sub, parse_config(path), argparse.Namespace(max_genus=2))
    assert data["command"] == sub
