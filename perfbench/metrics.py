"""Metric names, units and the claims that connect them.

``BENCHMARK.json`` at the repository root mirrors ``END_TO_END`` and
``PER_LAYER`` (the self-tests check that they agree).  ``MOVES`` records, for
each per-layer metric, which end-to-end metric on which workload it should
move; the traced run prints it beside the numbers.
"""

from __future__ import annotations

from tracing import LAYERS

WORKLOADS = ("catalog", "gluing")
#: Runnable with the same command but not measured workloads.  ``cli`` (a
#: fresh CLI process per operation) spreads too much run to run on a shared
#: 2-vCPU machine for its bounds; ``caps`` exists to show the operations that
#: fail at their advertised caps.
PROBE_WORKLOADS = ("cli", "caps")

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
#: The caps probe reports only these end-to-end numbers (failed_ratio is a
#: per-layer name because it is 0 on every measured workload).
CAPS_END_TO_END = ("setup_s", "failed_ratio", "peak_rss_mb")

CLI_SUBCOMMANDS = ("inspect", "lattice", "blocks", "torus-rep", "verlinde")

CAPS = {
    "axioms_z4096": "check_axioms on Z/4096 (AXIOM_CAP)",
    "axioms_z64x64": "check_axioms on Z/64 x Z/64 (AXIOM_CAP)",
    "relations_z4096": "st_matrices + check_relations at |G| = 4096 (matrix cap)",
    "verdicts_z65536": "verdicts at |G| = 2^16 (ENUMERATION_CAP)",
    "glued_c4_z32": "enumeration + glued count at complexity 4 on Z/32 (COMPLEXITY_RANGE)",
    "glued_c4_z64": "enumeration + glued count at complexity 4 on Z/64 (COMPLEXITY_RANGE)",
    "canonical_8v": "canonical_form on an 8-vertex graph (CANONICAL_CAP)",
    "fusion_z1024": "fusion_from_s at |G| = 1024 (no cap)",
    "cli_inspect_z64x64": "gvblocks inspect on Z/64 x Z/64",
}

_LAYER_METRICS = [
    # name, unit, better, (workload, end-to-end metric it should move)
    ("lattice.to_pointed_gv.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("lattice.to_pointed_gv.calls", "count", "lower", "catalog latency_p50_ms"),
    ("lattice.make_lattice.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("lattice.make_lattice.calls", "count", "lower", "catalog latency_p50_ms"),
    ("forms.make_qform.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("forms.make_qform.calls", "count", "lower", "catalog latency_p50_ms"),
    ("forms.radical.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("forms.radical.calls", "count", "lower", "catalog latency_p50_ms"),
    ("pointed.check_axioms.busy_s", "s", "lower", "catalog latency_p90_ms"),
    ("pointed.check_axioms.calls", "count", "lower", "catalog latency_p90_ms"),
    ("pointed.check_axioms.pairs", "count", "lower", "catalog latency_p90_ms"),
    ("pointed.verdicts.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("pointed.mueger_center.busy_s", "s", "lower", "catalog latency_p50_ms"),
    ("torus.st_matrices.busy_s", "s", "lower", "catalog latency_p90_ms"),
    ("torus.st_matrices.entries", "count", "lower", "catalog latency_p90_ms"),
    ("torus.check_relations.busy_s", "s", "lower", "catalog ops_per_s"),
    ("torus.anomaly.busy_s", "s", "lower", "catalog ops_per_s"),
    ("torus.fusion_from_s.busy_s", "s", "lower", "catalog ops_per_s"),
    ("torus.fusion_from_s.entries", "count", "lower", "catalog ops_per_s"),
    ("surfaces.enumerate_decompositions.cold_busy_s", "s", "lower", "cli-probe latency_p90_ms; gluing setup_s"),
    ("surfaces.enumerate_decompositions.warm_busy_s", "s", "lower", "gluing ops_per_s (should not move)"),
    ("surfaces.enumerate_decompositions.classes", "count", "higher", "cli-probe latency_p90_ms; gluing setup_s"),
    ("surfaces.moves.busy_s", "s", "lower", "gluing ops_per_s"),
    ("surfaces.moves.calls", "count", "lower", "gluing ops_per_s"),
    ("graphs.canonical_form.busy_s", "s", "lower", "gluing ops_per_s"),
    ("graphs.canonical_form.calls", "count", "lower", "gluing ops_per_s"),
    ("blocks.block_dim_glued.busy_s", "s", "lower", "gluing ops_per_s, latency_p90_ms; no change on catalog"),
    ("blocks.block_dim_glued.calls", "count", "lower", "gluing ops_per_s"),
    ("blocks.block_dim_glued.labelings", "count", "lower", "gluing ops_per_s"),
    ("blocks.block_dim_direct.busy_s", "s", "lower", "control: negligible everywhere"),
    ("blocks.verlinde_dim.busy_s", "s", "lower", "control: negligible everywhere"),
    ("config.parse_config.busy_s", "s", "lower", "catalog latency_p50_ms; cli-probe latency_p50_ms"),
    ("cli.interpreter_s", "s", "lower", "cli-probe latency_p50_ms"),
    ("cli.import_s", "s", "lower", "cli-probe latency_p50_ms"),
    *[
        (f"cli.{sub}.busy_s", "s", "lower", "catalog latency_p50_ms; cli-probe latency_p50_ms, latency_p90_ms")
        for sub in CLI_SUBCOMMANDS
    ],
    ("cli.output_bytes", "bytes", "lower", "cli-probe latency_p90_ms"),
    ("caps.completed", "count", "higher", "caps failed_ratio"),
    ("caps.refused", "count", "lower", "caps failed_ratio"),
    ("caps.timed_out", "count", "lower", "caps failed_ratio"),
    ("caps.crashed", "count", "lower", "caps failed_ratio"),
    *[(f"caps.{name}.wall_s", "s", "lower", "caps failed_ratio") for name in CAPS],
    ("catalog.group_reuse_share", "ratio", "higher", "input property of catalog"),
    ("catalog.invalid_share", "ratio", "higher", "input property of catalog"),
    ("gluing.condition_met_share", "ratio", "higher", "input property of gluing"),
    *[
        (f"{layer}.self_s", "s", "lower", "its workload's latency")
        for layer in LAYERS
    ],
    ("trace.overhead_share", "ratio", "lower", "none: traced against untraced time"),
    ("failed_ratio", "ratio", "lower", "every workload; caps above all"),
]

PER_LAYER = {name: (unit, better) for name, unit, better, _ in _LAYER_METRICS}
MOVES = {name: moves for name, _, _, moves in _LAYER_METRICS}
