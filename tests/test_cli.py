import json
import math

import numpy as np
import pytest

import subentropy
from subentropy import entropy_report, intermediate_entropy
from subentropy.cli import _g15, _parse_alpha_grid, _style, _UsageError, main
from subentropy.verify import PropertyVerdict


@pytest.fixture
def spectrum_file(tmp_path):
    p = tmp_path / "state.json"
    p.write_text(json.dumps({"kind": "spectrum", "values": [0.4, 0.3, 0.2, 0.1]}))
    return str(p)


@pytest.fixture
def density_file(tmp_path):
    p = tmp_path / "dm.json"
    p.write_text(json.dumps({"kind": "density_matrix", "re": [[0.5, 0.2], [0.2, 0.5]]}))
    return str(p)


class TestCompute:
    def test_json_round_trips_bit_for_bit(self, spectrum_file, capsys):
        assert main(["compute", "--input", spectrum_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = entropy_report([0.4, 0.3, 0.2, 0.1])
        assert payload["n"] == 4
        assert payload["entropy"] == rep.entropy
        assert payload["subentropy"] == rep.subentropy
        assert payload["intermediate"] == [float(v) for v in rep.intermediate]
        assert payload["alpha_samples"][0] == [0.0, rep.entropy]
        assert payload["alpha_samples"][-1] == [1.0, rep.subentropy]

    def test_csv_format(self, density_file, capsys):
        assert main(["compute", "--input", density_file, "--format", "csv",
                     "--alpha-grid", "0:1:0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,parameter,value"
        ent = dict(l.split(",", 1) for l in lines[1:])["entropy"]
        assert ent == "," + format(0.6108643020548935, ".15g")
        interp = [l for l in lines if l.startswith("interpolated,")]
        assert [l.split(",")[1] for l in interp] == ["0", "0.5", "1"]

    def test_csv_has_15_significant_digits(self, spectrum_file, capsys):
        main(["compute", "--input", spectrum_file, "--format", "csv"])
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if l.startswith("intermediate,2,")][0]
        value = row.split(",")[2]
        assert value == format(intermediate_entropy([0.4, 0.3, 0.2, 0.1], 2), ".15g")
        assert len(value.replace("0.", "")) >= 14

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"kind": "spectrum", "values": [0.7, 0.3]}')
        )
        assert main(["compute"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2

    def test_output_file(self, spectrum_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compute", "--input", spectrum_file, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_alpha_grid_endpoints_exact(self, spectrum_file, capsys):
        main(["compute", "--input", spectrum_file, "--alpha-grid", "0:1:0.25"])
        payload = json.loads(capsys.readouterr().out)
        alphas = [a for a, _ in payload["alpha_samples"]]
        assert alphas == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestOracle:
    def test_contour_payload(self, spectrum_file, capsys):
        assert main(["oracle", "contour", "--input", spectrum_file, "--r", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "contour"
        assert payload["r"] == 2
        assert payload["samples"] == 512
        assert payload["abs_error"] < 1e-10
        assert "seed" not in payload

    def test_contour_alpha_zero_maps_to_order_one(self, spectrum_file, capsys):
        assert main(["oracle", "contour", "--input", spectrum_file,
                     "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = subentropy.von_neumann_entropy([0.4, 0.3, 0.2, 0.1])
        assert abs(payload["value"] - want) < 1e-10

    def test_contour_custom_nodes(self, spectrum_file, capsys):
        assert main(["oracle", "contour", "--input", spectrum_file, "--r", "1",
                     "--nodes", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 64

    def test_contour_zero_nodes_is_a_usage_error(self, spectrum_file, capsys):
        assert main(["oracle", "contour", "--input", spectrum_file, "--nodes", "0"]) == 5
        assert capsys.readouterr().out == ""

    def test_contour_reports_closed_form_past_dimension_24(self, tmp_path, capsys):
        v = np.sort(np.random.default_rng(30).dirichlet(np.ones(30)))[::-1]
        p = tmp_path / "n30.json"
        p.write_text(json.dumps({"kind": "spectrum", "values": v.tolist()}))
        assert main(["oracle", "contour", "--input", str(p)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 30
        assert payload["abs_error"] < 1e-10

    def test_simplex_seed_reproducible(self, spectrum_file, capsys):
        args = ["oracle", "simplex", "--input", spectrum_file, "--r", "2",
                "--samples", "5000", "--seed", "3"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["seed"] == 3
        assert abs(first["z_score"]) < 5.0

    def test_seed_drawn_and_echoed_when_omitted(self, spectrum_file, capsys):
        assert main(["oracle", "haar", "--input", spectrum_file,
                     "--samples", "500"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "seed" in payload
        assert str(payload["seed"]) in captured.err

    def test_haar_rejects_r(self, spectrum_file, capsys):
        assert main(["oracle", "haar", "--input", spectrum_file, "--r", "2"]) == 5

    def test_r_and_alpha_conflict(self, spectrum_file):
        assert main(["oracle", "contour", "--input", spectrum_file,
                     "--r", "2", "--alpha", "0.5"]) == 5

    def test_default_order_is_dimension(self, spectrum_file, capsys):
        assert main(["oracle", "contour", "--input", spectrum_file]) == 0
        assert json.loads(capsys.readouterr().out)["r"] == 4


class TestCheck:
    def test_json_lines_and_exit_zero(self, capsys):
        code = main(["check", "--suite", "chain", "--trials", "30", "--seed", "5"])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(l) for l in out_lines]
        assert records[-1] == {"overall_passed": True}
        verdict = records[0]
        assert verdict["property"] == "inequality-chain"
        assert verdict["passed"] is True
        assert verdict["expect_failure"] is False

    def test_all_suites_emit_control_and_demo(self, capsys):
        code = main(["check", "--n", "3", "--trials", "20", "--samples", "2000",
                     "--seed", "8"])
        assert code == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        props = [r.get("property") for r in records]
        assert "invariance-control-order-2" in props
        assert any("demo" in r for r in records)

    def test_seed_line_when_drawn(self, capsys):
        code = main(["check", "--suite", "coefficients"])
        assert code == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "seed" in first

    def test_property_failure_exit_code(self, capsys, monkeypatch):
        bad = PropertyVerdict(property="forced", trials=1, failures=1,
                              worst_violation=1.0, passed=False, details=())

        def fake_run_suites(**kwargs):
            return [{"verdict": bad, "expect_failure": False, "demo": None}], False

        monkeypatch.setattr("subentropy.cli.run_suites", fake_run_suites)
        assert main(["check", "--seed", "1"]) == 1
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert records[-1] == {"overall_passed": False}


class TestSurface:
    def test_resolution_two_has_six_rows(self, capsys):
        assert main(["surface", "Q", "--resolution", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2,lambda3,value"
        assert len(lines) == 7

    def test_vertex_and_center_values(self, capsys):
        assert main(["surface", "S", "--resolution", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        table = {tuple(l.split(",")[:3]): float(l.split(",")[3]) for l in lines}
        assert table[("1", "0", "0")] == 0.0
        mixed = table[("0.5", "0.5", "0")]
        assert mixed == pytest.approx(math.log(2), rel=1e-12)

    def test_quantity_specs(self, capsys):
        for q in ("S", "Q", "R:2", "Ralpha:0.3"):
            assert main(["surface", q, "--resolution", "1"]) == 0
            capsys.readouterr()

    def test_rows_cover_simplex_grid(self, capsys):
        res = 4
        assert main(["surface", "R:1", "--resolution", str(res)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == (res + 1) * (res + 2) // 2
        for l in lines:
            a, b, c, _ = (float(x) for x in l.split(","))
            assert a + b + c == pytest.approx(1.0, abs=1e-12)

    def test_malformed_specs_rejected(self, capsys):
        for q in ("R:0", "R:9", "R:x", "Ralpha:1.5", "Ralpha:", "bogus", "q"):
            assert main(["surface", q, "--resolution", "2"]) == 5, q

    def test_bad_resolution(self):
        assert main(["surface", "Q", "--resolution", "0"]) == 5


class TestExitCodes:
    def test_parse_error_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        assert main(["compute", "--input", str(p)]) == 2

    def test_parse_error_missing_file(self, tmp_path):
        assert main(["compute", "--input", str(tmp_path / "nope.json")]) == 2

    def test_parse_error_wrong_kind(self, tmp_path):
        p = tmp_path / "k.json"
        p.write_text('{"kind": "wavefunction", "values": [1]}')
        assert main(["compute", "--input", str(p)]) == 2

    def test_parse_error_ragged_matrix(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text('{"kind": "density_matrix", "re": [[1, 0], [0]]}')
        assert main(["compute", "--input", str(p)]) == 2

    def test_validation_error_bad_sum(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"kind": "spectrum", "values": [0.5, 0.2]}')
        assert main(["compute", "--input", str(p)]) == 3

    def test_validation_error_not_psd(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"kind": "density_matrix", "re": [[0.6, 0.5], [0.5, 0.4]]}')
        assert main(["compute", "--input", str(p)]) == 3

    def test_cap_exceeded(self, tmp_path, capsys):
        # no dimension cap: n = 30 computes, with the uniform subentropy
        p = tmp_path / "big.json"
        n = 30
        p.write_text(json.dumps({"kind": "spectrum", "values": [1.0 / n] * n}))
        assert main(["compute", "--input", str(p)]) == 0
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        payload = json.loads(capsys.readouterr().out)
        assert payload["subentropy"] == pytest.approx(math.log(n) - (harmonic - 1.0), abs=1e-13)

    def test_usage_error_bad_subcommand(self):
        assert main(["frobnicate"]) == 5

    def test_usage_error_bad_flag_value(self, spectrum_file):
        assert main(["oracle", "simplex", "--input", spectrum_file,
                     "--r", "two"]) == 5

    def test_usage_error_too_few_samples(self, spectrum_file):
        assert main(["oracle", "simplex", "--input", spectrum_file, "--r", "1",
                     "--samples", "10"]) == 5

    def test_usage_error_bad_alpha_grid(self, spectrum_file):
        assert main(["compute", "--input", spectrum_file,
                     "--alpha-grid", "0-1-0.1"]) == 5

    def test_usage_error_invalid_order(self, spectrum_file):
        assert main(["oracle", "contour", "--input", spectrum_file, "--r", "7"]) == 5

    @pytest.mark.parametrize("argv", [
        ["oracle", "simplex", "--seed", "-1"],
        ["oracle", "haar", "--seed", "-1"],
        ["check", "--trials", "0"],
        ["check", "--trials", "-2"],
        ["check", "--suite", "chain", "--seed", "-1"],
    ])
    def test_usage_error_bad_seed_or_trials(self, spectrum_file, capsys, argv):
        if argv[0] == "oracle":
            argv = argv + ["--input", spectrum_file, "--samples", "1000"]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestHelpers:
    def test_g15_normalizes_negative_zero(self):
        assert _g15(-0.0) == "0"

    def test_alpha_grid_parser(self):
        assert _parse_alpha_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_alpha_grid("0.5:0.5:0.1") == [0.5]
        with pytest.raises(_UsageError):
            _parse_alpha_grid("0:1")
        with pytest.raises(_UsageError):
            _parse_alpha_grid("1:0:0.1")
        with pytest.raises(_UsageError):
            _parse_alpha_grid("0:1:0")

    def test_style_respects_no_color(self, monkeypatch):
        class Tty:
            def isatty(self):
                return True

        monkeypatch.delenv("NO_COLOR", raising=False)
        assert "\x1b[32m" in _style("x", "32", Tty())
        monkeypatch.setenv("NO_COLOR", "1")
        assert _style("x", "32", Tty()) == "x"

    def test_style_plain_when_not_tty(self, monkeypatch):
        class NoTty:
            def isatty(self):
                return False

        monkeypatch.delenv("NO_COLOR", raising=False)
        assert _style("x", "31", NoTty()) == "x"
