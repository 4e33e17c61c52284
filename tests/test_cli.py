import json
import random
import sys

import pytest

from gvblocks import cli
from gvblocks.config import parse_config, parse_config_data
from gvblocks.errors import ConfigError, ValidationError

SEMION_POINTED = {
    "category": {
        "pointed": {"invariant_factors": [2], "qform_matrix": [["1/4"]], "h0": [0]}
    }
}
SEMION_LATTICE = {"category": {"lattice": {"gram": [[2]], "xi": ["0/1"]}}}
FF8 = {"category": {"lattice": {"gram": [[8]], "xi": ["1/8"]}}}
FIB = {"category": {"builtin": "fibonacci"}}
ISING = {"category": {"builtin": "ising"}}
VARIANTS = {"pointed", "lattice", "builtin"}


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_lattice_route(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SEMION_LATTICE))
        from gvblocks.config import build_category

        C = build_category(cfg)
        assert C.group.invariant_factors == (2,)
        assert C.qform((1,)) == cli.Fraction(1, 4)

    def test_pointed_route_agrees_with_lattice(self, tmp_path):
        from gvblocks.config import build_category

        C1 = build_category(parse_config(write_config(tmp_path, SEMION_POINTED, "a.json")))
        C2 = build_category(parse_config(write_config(tmp_path, SEMION_LATTICE, "b.json")))
        assert C1.group == C2.group
        assert C1.qform.matrix == C2.qform.matrix
        assert C1.h0 == C2.h0

    def test_two_variants_rejected(self):
        data = {
            "category": {
                "builtin": "ising",
                "lattice": {"gram": [[2]], "xi": ["0/1"]},
            }
        }
        with pytest.raises(ConfigError) as e:
            parse_config_data(data)
        assert "exactly one" in e.value.message

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_malformed_rational(self):
        data = {"category": {"lattice": {"gram": [[2]], "xi": ["1/0"]}}}
        with pytest.raises(ValidationError) as e:
            parse_config_data(data)
        assert e.value.code == "lattice.bad_xi" and "'1/0'" in e.value.message

    def test_bool_rational_refused(self):
        with pytest.raises(ValidationError) as e:
            parse_config_data({"category": {"lattice": {"gram": [[2]], "xi": [True]}}})
        assert e.value.code == "lattice.bad_xi" and "True" in e.value.message

    def test_field_paths(self):
        with pytest.raises(ConfigError) as e:
            parse_config_data({"category": {"pointed": {"invariant_factors": [2]}}})
        assert "pointed" in e.value.message

    @pytest.mark.parametrize(
        "data, message",
        [
            (dict(FIB, junk=1), "config: unknown fields ['junk']"),
            (
                {"category": dict(FIB["category"], **SEMION_LATTICE["category"])},
                "config.category: exactly one of pointed/lattice/builtin required, "
                "got ['builtin', 'lattice']",
            ),
            (
                {"category": {"pointed": {"invariant_factors": [2], "qform_matrix": [["1/4"]]}}},
                "config.category.pointed: missing 'h0'",
            ),
            ({"category": [FIB["category"]]}, "config.category: must be an object"),
        ],
        ids=["junk_key", "two_variants", "missing_h0", "category_not_object"],
    )
    def test_envelope_refusals_name_the_field(self, data, message):
        with pytest.raises(ConfigError) as e:
            parse_config_data(data)
        assert e.value.code == "cli.config" and e.value.message == message

    def test_fuzz_no_uncontrolled_exceptions(self):
        rng = random.Random(55)
        atoms = [
            0, 1, -3, "1/4", "x", True, None, [], {}, [1, 2], {"a": 1},
            "fibonacci", [[2]], [["1/4"]], 3.5,
        ]

        def mutate(obj, depth=0):
            r = rng.random()
            if depth < 3 and r < 0.3 and isinstance(obj, dict):
                out = dict(obj)
                if out and r < 0.15:
                    out.pop(rng.choice(sorted(out)))
                else:
                    out[rng.choice(["category", "junk", "tolerance"])] = mutate(
                        rng.choice(atoms), depth + 1
                    )
                return out
            if depth < 3 and isinstance(obj, dict):
                return {k: mutate(v, depth + 1) for k, v in obj.items()}
            if depth < 3 and isinstance(obj, list):
                return [mutate(v, depth + 1) for v in obj]
            return rng.choice(atoms) if r < 0.4 else obj

        def envelope_fault(data):
            """The field of the top two levels whose envelope is broken, if any."""
            if not isinstance(data, dict) or set(data) != {"category"}:
                return "config"
            cat = data["category"]
            if not isinstance(cat, dict) or len(cat) != 1 or not set(cat) <= VARIANTS:
                return "config.category"
            return None

        bases = [SEMION_POINTED, SEMION_LATTICE, FF8, FIB, {}, {"category": {}}]
        faults = 0
        for _ in range(400):
            data = mutate(rng.choice(bases))
            fault = envelope_fault(data)
            try:
                parse_config_data(data)
            except ValidationError as e:
                # a coded refusal, the envelope's own where the envelope is broken
                assert e.code and e.exit_code == 2
                if fault:
                    faults += 1
                    assert isinstance(e, ConfigError) and e.code == "cli.config"
                    assert e.message.startswith(f"{fault}: ")
            else:
                assert fault is None
        assert faults > 100

    @pytest.mark.parametrize(
        "category, code",
        [
            ({"pointed": dict(SEMION_POINTED["category"]["pointed"], invariant_factors=[True])},
             "forms.invalid_factor"),
            ({"lattice": {"gram": [[2.0]], "xi": [0]}}, "lattice.bad_matrix"),
            ({"lattice": {"gram": [[2]], "xi": ["1/0"]}}, "lattice.bad_xi"),
            ({"pointed": dict(SEMION_POINTED["category"]["pointed"], qform_matrix=[0])},
             "forms.bad_matrix"),
            ({"pointed": dict(SEMION_POINTED["category"]["pointed"], qform_matrix=[{"1/4": 0}])},
             "forms.bad_matrix"),
            ({"pointed": dict(SEMION_POINTED["category"]["pointed"], h0=0)}, "forms.bad_element"),
            ({"builtin": "lucas"}, "blocks.bad_builtin"),
            ({"builtin": 3}, "blocks.bad_builtin"),
        ],
        ids=["bool_factor", "float_gram", "zero_denominator_xi", "scalar_row", "mapping_row",
             "scalar_h0", "unknown_builtin", "non_string_builtin"],
    )
    def test_values_refused_with_the_constructor_code(self, tmp_path, capsys, category, code):
        cfg = write_config(tmp_path, {"category": category})
        status, out, _ = run_cli(capsys, "inspect", "--config", cfg, "--json")
        assert status == 2 and json.loads(out)["error"]["code"] == code

    @pytest.mark.parametrize("sub", ["inspect", "lattice", "blocks", "torus-rep", "verlinde"])
    @pytest.mark.parametrize(
        "category",
        [
            {"pointed": {"invariant_factors": [], "qform_matrix": [], "h0": []}},
            {"lattice": {"gram": [], "xi": []}},
        ],
        ids=["pointed", "lattice"],
    )
    def test_rank_zero(self, tmp_path, capsys, category, sub):
        # empty lists describe the trivial group: order 1, dimension 1 everywhere
        cfg = write_config(tmp_path, {"category": category})
        argv = [sub, "--config", cfg, "--json"] + (["--genus", "2", "--glued"] if sub == "blocks" else [])
        status, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        if sub == "lattice" and "pointed" in category:
            assert status == 2 and data["error"]["code"] == "cli.config"
            return
        assert status == 0
        if sub == "inspect":
            assert data["category"]["order"] == 1 and all(data["axioms"].values())
            assert data["anomaly"]["gamma"] == [1.0, 0.0]
        elif sub == "lattice":
            assert data["determinant"] == 1 and data["discriminant_group"]["order"] == 1
        elif sub == "blocks":
            assert [r["dim"] for r in data["results"]] == [1, 1, 1]
        elif sub == "torus-rep":
            assert data["relations_pass"] and data["anomaly"]["gamma"] == [1.0, 0.0]
        else:
            assert [row["rounded"] for row in data["table"]] == [1, 1, 1]


class TestSubcommands:
    def test_inspect_feigin_fuchs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--config", write_config(tmp_path, FF8)
        )
        assert code == 0
        assert "modular: false" in out
        assert "cofactorizable: true" in out
        assert "connected: true" in out

    @pytest.mark.parametrize(
        "pointed",
        [
            {"invariant_factors": [8], "qform_matrix": [["1/16"]], "h0": [1]},
            {"invariant_factors": [2], "qform_matrix": [["1/2"]], "h0": [0]},
        ],
        ids=["h0_nonzero", "degenerate"],
    )
    def test_inspect_anomaly_undefined_where_anomaly_refuses(self, tmp_path, capsys, pointed):
        config = write_config(tmp_path, {"category": {"pointed": pointed}})
        code, out, _ = run_cli(capsys, "inspect", "--config", config, "--json")
        assert code == 0
        assert json.loads(out)["anomaly"] == "undefined (needs h0 = 0 and non-degenerate braiding)"

    def test_inspect_json_fields(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--config", write_config(tmp_path, SEMION_POINTED), "--json"
        )
        data = json.loads(out)
        assert data["verdicts"] == {
            "nondegenerate": True,
            "cofactorizable": True,
            "modular": True,
            "connected": "true",
            "extension_unique": "true",
        }
        assert data["anomaly"]["central_charge_mod8"] == 1.0

    @pytest.mark.parametrize("sub", ["torus-rep", "inspect"])
    def test_central_charge_of_phase_noise_is_zero(self, tmp_path, capsys, sub):
        # lambda = gamma = 1 up to a phase of about -1e-16, which used to print 8.0
        config = {
            "category": {
                "pointed": {
                    "invariant_factors": [2, 4],
                    "qform_matrix": [["1/4", "0"], ["0", "7/8"]],
                    "h0": [0, 0],
                }
            }
        }
        code, out, _ = run_cli(capsys, sub, "--config", write_config(tmp_path, config), "--json")
        data = json.loads(out)
        assert code == 0 and data["anomaly"] == {"gamma": [1.0, 0.0], "central_charge_mod8": 0.0}
        if sub == "torus-rep":
            assert data["lambda"] == [1.0, 0.0] and data["central_charge_mod8"] == 0.0

    def test_blocks_direct_and_glued(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FF8)
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "2", "--glued", "--json"
        )
        data = json.loads(out)
        assert code == 0
        dims = {r["method"]: r["dim"] for r in data["results"]}
        assert dims["direct"] == 0 and dims["glued"] == 0
        assert all(not r["condition_met"] for r in data["results"])
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "1", "--labels", "", "--json"
        )
        data = json.loads(out)
        assert data["results"][0]["dim"] == 8

    def test_blocks_with_labels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEMION_LATTICE)
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "0", "--labels", "1;1", "--json"
        )
        data = json.loads(out)
        assert code == 0 and data["results"][0]["dim"] == 1

    def test_blocks_glued_at_complexity_five(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEMION_LATTICE)
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "0", "--labels", "1;1;0;1;0;0;1",
            "--glued", "--json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0]["method"] == "direct" and results[0]["dim"] == 1
        glued = [r["dim"] for r in results if r["method"] == "glued"]
        assert glued == [1] * 945

    def test_blocks_glued_at_complexity_six_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEMION_LATTICE)
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "0", "--labels", "0;0;0;0;0;0;0;0",
            "--glued", "--json",
        )
        assert code == 3
        assert json.loads(out)["error"]["code"] == "surfaces.complexity"

    def test_blocks_bad_labels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEMION_LATTICE)
        code, _, err = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "0", "--labels", "1,0"
        )
        assert code == 2

    def test_blocks_non_integer_label(self, tmp_path, capsys):
        # rank 2, so "a,1" has the right length and only the integer parse fails
        cfg = write_config(tmp_path, {
            "category": {
                "pointed": {
                    "invariant_factors": [2, 2],
                    "qform_matrix": [["0", "1/4"], ["1/4", "0"]],
                    "h0": [0, 0],
                }
            }
        })
        code, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "0", "--labels", "a,1", "--json"
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "cli.bad_labels"

    def test_blocks_text_renders_nested_lists(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FF8)
        code, out, _ = run_cli(capsys, "blocks", "--config", cfg, "--genus", "1")
        assert code == 0
        assert "results:\n  -\n    dim: 8\n    method: direct\n" in out

    def test_inspect_skips_axioms_above_the_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "category": {
                "pointed": {"invariant_factors": [8192], "qform_matrix": [["1/16384"]], "h0": [0]}
            }
        })
        code, out, _ = run_cli(capsys, "inspect", "--config", cfg)
        assert code == 0
        assert "axioms: skipped (group too large for the exhaustive suite)\n" in out
        assert "modular: true" in out

    def test_torus_rep_unsupported_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "torus-rep", "--config", write_config(tmp_path, FF8)
        )
        assert code == 3
        assert "torus.unsupported" in err

    def test_torus_rep_semion(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "torus-rep", "--config", write_config(tmp_path, SEMION_POINTED), "--json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["lambda"][0] == pytest.approx(2**-0.5, abs=1e-9)
        assert data["relations_pass"] is True
        assert data["S"][1][1] == [-0.707106781187, -0.0]

    def test_torus_rep_refuses_rank_above_output_cap(self, tmp_path, capsys, monkeypatch):
        def never(C):
            raise AssertionError("st_matrices ran before the output cap refused")

        monkeypatch.setattr(cli, "st_matrices", never)
        cfg = write_config(tmp_path, {
            "category": {
                "pointed": {"invariant_factors": [2048], "qform_matrix": [["1/4096"]], "h0": [0]}
            }
        })
        code, out, _ = run_cli(capsys, "torus-rep", "--config", cfg, "--json")
        assert code == 3
        assert json.loads(out)["error"]["code"] == "cli.output_cap"

    @pytest.mark.parametrize(
        "factors, form, h0, code",
        [
            ([8192], "1/16384", [0], "torus.capacity"),
            ([2048], "1/4096", [1], "torus.unsupported"),
            ([2048], "0", [0], "torus.degenerate"),
        ],
    )
    def test_torus_rep_library_refusals_precede_output_cap(
        self, tmp_path, capsys, factors, form, h0, code
    ):
        cfg = write_config(tmp_path, {
            "category": {"pointed": {"invariant_factors": factors, "qform_matrix": [[form]], "h0": h0}}
        })
        exit_code, out, _ = run_cli(capsys, "torus-rep", "--config", cfg, "--json")
        assert exit_code == 3 and json.loads(out)["error"]["code"] == code

    def test_torus_rep_output_cap_boundary(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, SEMION_POINTED)
        monkeypatch.setattr(cli, "OUTPUT_CAP", 2)
        assert run_cli(capsys, "torus-rep", "--config", cfg)[0] == 0
        monkeypatch.setattr(cli, "OUTPUT_CAP", 1)
        code, _, err = run_cli(capsys, "torus-rep", "--config", cfg)
        assert code == 3 and "cli.output_cap" in err

    def test_torus_rep_builtin(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "torus-rep", "--config", write_config(tmp_path, FIB), "--json"
        )
        assert code == 0
        assert json.loads(out)["relations_pass"] is True

    def test_lattice_report(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "lattice", "--config", write_config(tmp_path, FF8), "--json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["discriminant_group"]["invariant_factors"] == [8]
        assert data["h0"] == [1] and data["g0"] == [2]

    def test_lattice_needs_lattice_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "lattice", "--config", write_config(tmp_path, SEMION_POINTED)
        )
        assert code == 2

    def test_verlinde_table(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "verlinde",
            "--config",
            write_config(tmp_path, FIB),
            "--max-genus",
            "2",
            "--json",
        )
        data = json.loads(out)
        assert [row["rounded"] for row in data["table"]] == [2, 5]

    def test_verlinde_pointed_matches_direct(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "category": {
                "pointed": {"invariant_factors": [3], "qform_matrix": [["1/3"]], "h0": [0]}
            }
        })
        code, out, _ = run_cli(capsys, "verlinde", "--config", cfg, "--json")
        table = json.loads(out)["table"]
        assert code == 0 and [row["direct_dim"] for row in table] == [3, 9, 27]
        assert all(row["rounded"] == row["direct_dim"] for row in table)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verlinde", "--max-genus", "0"], "cli.bad_genus"),
            (["blocks", "--genus", "-1"], "cli.bad_genus"),
            (["verlinde", "--max-genus", "-1"], "cli.bad_genus"),
            (["blocks"], "cli.bad_genus"),
        ],
    )
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, argv, code):
        cfg = write_config(tmp_path, SEMION_POINTED)
        status, out, _ = run_cli(capsys, *argv, "--config", cfg, "--json")
        assert status == 2
        assert json.loads(out)["error"]["code"] == code

    @pytest.mark.parametrize("sub", ["inspect", "lattice", "blocks", "torus-rep", "verlinde"])
    def test_tol_only_where_read(self, tmp_path, capsys, sub):
        # no subcommand reads a tolerance: the library default decides
        cfg = write_config(tmp_path, SEMION_LATTICE)
        with pytest.raises(SystemExit) as e:
            cli.main([sub, "--config", cfg, "--tol", "-1"])
        assert e.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("tolerance", 0.6), ("enumeration_cap", 1000)])
    def test_retired_config_fields_refused(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, dict(FIB, **{field: value}))
        status, out, _ = run_cli(capsys, "verlinde", "--config", cfg, "--json")
        assert status == 2
        error = json.loads(out)["error"]
        assert error["code"] == "cli.config" and field in error["message"]
        # without the field, Fibonacci (smallest vacuum entry about 0.526)
        # passes at the library default tolerance
        cfg = write_config(tmp_path, FIB)
        status, out, _ = run_cli(capsys, "verlinde", "--config", cfg, "--json")
        assert status == 0
        assert [row["rounded"] for row in json.loads(out)["table"]] == [2, 5, 15]

    @pytest.mark.parametrize(
        "config, argv, code",
        [
            (SEMION_POINTED, ["blocks", "--genus", "20000"], "cli.output_cap"),
            (ISING, ["verlinde", "--max-genus", "2000"], "cli.output_cap"),
            (SEMION_POINTED, ["verlinde", "--max-genus", "20000"], "cli.output_cap"),
        ],
        ids=["blocks_semion", "verlinde_ising", "verlinde_semion"],
    )
    def test_large_genus_refused_with_a_code(self, tmp_path, capsys, config, argv, code):
        cfg = write_config(tmp_path, config)
        status, out, _ = run_cli(capsys, *argv, "--config", cfg, "--json")
        assert status == 3 and json.loads(out)["error"]["code"] == code

    def test_blocks_digit_limit_boundary(self, tmp_path, capsys):
        # 10^4299 has 4300 digits, Python's default int-to-text limit
        assert sys.get_int_max_str_digits() == 4300
        cfg = write_config(tmp_path, {
            "category": {
                "pointed": {"invariant_factors": [10], "qform_matrix": [["1/20"]], "h0": [0]}
            }
        })
        status, out, _ = run_cli(capsys, "blocks", "--config", cfg, "--genus", "4299", "--json")
        assert status == 0 and json.loads(out)["results"][0]["dim"] == 10**4299
        status, out, _ = run_cli(capsys, "blocks", "--config", cfg, "--genus", "4300", "--json")
        assert status == 3 and json.loads(out)["error"]["code"] == "cli.output_cap"
        # an unmet condition prints 0, whatever the genus
        status, out, _ = run_cli(
            capsys, "blocks", "--config", cfg, "--genus", "4300", "--labels", "1", "--json"
        )
        assert status == 0 and json.loads(out)["results"][0]["dim"] == 0

    def test_verlinde_genus_cap_boundary(self, tmp_path, capsys):
        # rank-1 data never overflows, so only the cap ends its table
        cfg = write_config(tmp_path, {
            "category": {"pointed": {"invariant_factors": [1], "qform_matrix": [[0]], "h0": [0]}}
        })
        status, out, _ = run_cli(capsys, "verlinde", "--config", cfg, "--max-genus", "1024", "--json")
        table = json.loads(out)["table"]
        assert status == 0 and len(table) == 1024
        assert {(row["rounded"], row["direct_dim"]) for row in table} == {(1, 1)}
        status, out, _ = run_cli(capsys, "verlinde", "--config", cfg, "--max-genus", "1025", "--json")
        assert status == 3 and json.loads(out)["error"]["code"] == "cli.output_cap"

    @pytest.mark.parametrize("sub", ["inspect", "blocks"])
    def test_builtin_config_refused_where_a_category_is_built(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, FIB)
        status, out, _ = run_cli(capsys, sub, "--config", cfg, "--json")
        assert status == 2 and json.loads(out)["error"]["code"] == "cli.config"

    def test_config_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope", encoding="utf-8")
        code, _, err = run_cli(capsys, "inspect", "--config", str(p))
        assert code == 2
        assert "cli.config" in err

    def test_rounding_noise_prints_no_negative_zero(self):
        assert json.dumps(cli._c12(complex(0.5, -1e-17))) == "[0.5, 0.0]"
        assert json.dumps(cli._r12(-4e-13)) == "0.0"
        assert cli._r12(-0.25) == -0.25

    def test_json_output_is_stable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FF8)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "inspect", "--config", cfg, "--json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        for sub in (["blocks", "--genus", "3", "--glued"], ["lattice"], ["verlinde"]):
            outs = []
            for _ in range(2):
                code, out, _ = run_cli(capsys, sub[0], *sub[1:], "--config", cfg, "--json")
                outs.append(out)
            assert outs[0] == outs[1]
