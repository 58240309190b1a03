import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from betacrit import birman_schwinger as bs
from betacrit import cli, fkw

import oracles as oc

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_config(tmp_path, name, subcommand, extra=None):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    if extra:
        for key, val in extra.items():
            cfg.setdefault(key, {}).update(val)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.run(subcommand, str(path), str(tmp_path))
    return code, cfg


def betacrit(*args):
    """The command line in a subprocess: (exit code, stderr lines)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "betacrit.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr.strip().splitlines()


def read_json(tmp_path, cfg):
    with open(tmp_path / cfg["output"]["json"]) as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_out_of_range_field_is_named(self, tmp_path, capsys):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]},
               "numerics": {"m": 0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 1
        diag = json.loads(capsys.readouterr().err.strip())
        assert diag["error"] == "config-error"
        assert diag["field"] == "numerics/m"

    @pytest.mark.parametrize("section, field, value", [
        ("numerics", "panel_order", 8), ("numerics", "eig_tol", 1e-8),
        ("numerics", "bisect_tol", 1e-6), ("study", "refine", True),
        ("study", "constant", 0.2)])
    def test_retired_field_is_a_config_error(self, tmp_path, capsys, section, field,
                                             value):
        code, _ = run_config(tmp_path, "mu_curve_neumann_1d.json", "mu-curve",
                             extra={section: {field: value}})
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config-error"
        assert json.loads(lines[0])["field"] == section
        assert field in json.loads(lines[0])["message"]

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet", "typo": 1},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 1

    def test_samples_with_a_slope_past_the_float_range_are_a_config_error(
            self, tmp_path, capsys):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "samples",
                             "samples": [[0.0, 0.0], [2.22507386e-311, 1.0], [1.0, 0.0]]},
               "numerics": {"m": 32}}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config-error"

    def test_missing_file(self, tmp_path):
        assert cli.run("beta-cr", str(tmp_path / "nope.json"), str(tmp_path)) == 1

    def test_mu_curve_zero_potential_has_no_bound_states(self, tmp_path):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "zero", "support": [1.0, 2.0]},
               "numerics": {"m": 32}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("mu-curve", str(path), str(tmp_path)) == 0
        with open(tmp_path / "mu-curve.json") as fh:
            payload = json.load(fh)
        assert payload["beta_cr"] is None
        assert payload["beta_cr_verdict"] == "no-bound-states"

    def test_mu_curve_indeterminate_tail_has_no_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bs, "classify_limit", lambda report: bs.Classification(
            "indeterminate", mu_last=1.0, growth_per_decade=0.03))
        code, cfg = run_config(tmp_path, "mu_curve_neumann_1d.json", "mu-curve",
                               extra={"numerics": {"m": 32}})
        assert code == 0
        payload = read_json(tmp_path, cfg)
        assert payload["classification"]["verdict"] == "indeterminate"
        assert payload["beta_cr"] is None
        assert "beta_cr_verdict" not in payload

    @pytest.mark.parametrize("potential", [
        {"kind": "indicator", "support": [-3.0, -2.0]},
        {"kind": "samples", "samples": [[1.0, 0.0], [1.5, 1.0], [2.0, -1.0], [2.5, 0.0]]}])
    def test_invalid_potential_on_a_divergent_sector_is_a_config_error(
            self, tmp_path, capsys, potential):
        # the rule gives beta_cr = 0 here, but only for a potential in the domain
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann"},
               "potential": potential}
        path = tmp_path / "neu.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config-error"
        assert not (tmp_path / "beta-cr.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann"},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]},
               "study": {"method": "limit-kernel"}}
        path = tmp_path / "neu.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 2
        diag = json.loads(capsys.readouterr().err.strip())
        assert diag["error"] == "numerical-failure"

    def test_failed_integration_exit_code(self, tmp_path):
        # at lambda = -1e300 the coefficient ODE's step exponents overflow; the
        # free pair it is matched to at r_f = 2 (k r = 2e150, past the range of
        # the scaled Bessels) fails first
        cfg = {"problem": {"geometry": "exterior_ball", "dimension": 3,
                           "boundary_condition": "dirichlet", "radius": 1.0,
                           "coefficient": {"samples": [[1.0, 2.0], [2.0, 1.0]],
                                           "flat_radius": 2.0}},
               "potential": {"kind": "indicator", "support": [1.5, 2.5]},
               "numerics": {"m": 32},
               "study": {"lambda_grid": [-1e300]}}
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(cfg))
        # a subprocess, so that stray solver warnings would show on stderr
        code, lines = betacrit("mu-curve", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "numerical-failure"
        assert diag["type"] == "UnconvergedError"
        assert diag["details"] == {"lambda": -1e300, "sector": 0}

    @pytest.mark.parametrize("subcommand, problem, extra", [
        ("mu-curve", {"boundary_condition": "dirichlet", "sector": 3}, {}),
        ("beta-cr", {"boundary_condition": "dirichlet", "sector": 3},
         {"study": {"method": "extrapolation"}}),
        ("fkw", {"boundary_condition": "fkw"},
         {"numerics": {"sector_max": 3}, "study": {"beta": 0.0}})])
    def test_free_pair_past_the_float_range_exits_2(self, tmp_path, subcommand, problem,
                                                    extra):
        # at k r near 1e-150 the scaled K_nu of the free pair overflows (in the
        # fkw sweep K_{nu+1} of sector 1); the NaNs reached the eigensolver
        # and ended in a traceback
        cfg = {"problem": {"geometry": "exterior_ball", "dimension": 3, "radius": 1.0,
                           **problem},
               "potential": {"kind": "indicator", "support": [1.5, 2.5]},
               "numerics": {"m": 50},
               "study": {"lambda_grid": [-1e-300, -1e-290, -1e-280, -1e-270, -1e-260]}}
        for section, fields in extra.items():
            cfg[section].update(fields)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        # a subprocess, so that numpy warnings would show on stderr
        code, lines = betacrit(subcommand, "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "numerical-failure"
        assert diag["type"] == "UnconvergedError"

    def test_huge_kernel_prints_no_warning(self, tmp_path):
        # at lambda = -2.2e-311 the Neumann half-line kernel reaches 1e155,
        # whose squared norm overflowed inside the power iteration
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann",
                           "coefficient": {"samples": [[0, 1.3], [0.8, 0.9], [1.5, 1.0]],
                                           "flat_radius": 1.5}},
               "potential": {"kind": "indicator", "support": [1, 2]},
               "numerics": {"m": 40},
               "study": {"lambda_grid": [-3.13, -2.2e-311, -2.45]}}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        # a subprocess, so that numpy warnings would show on stderr
        code, lines = betacrit("mu-curve", "--config", str(path), "--out", str(tmp_path))
        assert code == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config-error"

    def test_deep_energy_below_unit_coefficient_is_one_numerical_failure(self, tmp_path):
        # a = 0.3 -> 1 at lambda = -1e7: the kernel matrix was all NaN and
        # the eigensolve ended in a traceback.  The samples are finite now,
        # but a grid that stops at -1 reads the d = 3 Dirichlet tail as
        # divergent, against the rule, so no threshold is reported
        problem = {"geometry": "exterior_ball", "dimension": 3,
                   "boundary_condition": "dirichlet", "radius": 1.0,
                   "coefficient": {"samples": [[1, 0.3], [2, 1.0]], "flat_radius": 2}}
        grid = [-1e7, -1e5, -1e3, -10, -1]
        cfg = {"problem": problem,
               "potential": {"kind": "indicator", "support": [1, 2]},
               "numerics": {"m": 100}, "study": {"lambda_grid": grid},
               "output": {"json": "deep.json"}}
        path = tmp_path / "deep_config.json"
        path.write_text(json.dumps(cfg))
        code, lines = betacrit("mu-curve", "--config", str(path), "--out", str(tmp_path))
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["error"] == "numerical-failure"
        assert not (tmp_path / "deep.json").exists()
        report = bs.mu_curve(cli.build_problem(cfg), cli.build_potential(cfg),
                             lambda_grid=grid, m=100)
        mus = [row[1] for row in report.samples]
        assert len(mus) == 5 and np.all(np.isfinite(mus))

    def test_mu_curve_neumann_half_line_without_a_well_has_no_bound_states(self, tmp_path):
        # the rule says every coupling binds there, but with V = 0 none does
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann"},
               "potential": {"kind": "zero", "support": [1.0, 2.0]},
               "numerics": {"m": 32}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("mu-curve", str(path), str(tmp_path)) == 0
        with open(tmp_path / "mu-curve.json") as fh:
            payload = json.load(fh)
        assert payload["beta_cr"] is None
        assert payload["beta_cr_verdict"] == "no-bound-states"

    def test_mu_curve_with_mu_star_zero_has_no_threshold(self, tmp_path):
        # one kernel node at the zero between the tent's humps: V != 0, yet
        # every sample of mu0 is 0, so mu* = 0 and beta_cr stays null
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "samples",
                             "samples": [[1.0, 0.0], [1.25, 1.0], [1.5, 0.0],
                                         [1.75, 1.0], [2.0, 0.0]]},
               "numerics": {"m": 1}}
        path = tmp_path / "node.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("mu-curve", str(path), str(tmp_path)) == 0
        with open(tmp_path / "mu-curve.json") as fh:
            payload = json.load(fh)
        assert payload["classification"]["mu_star"] == 0.0
        assert payload["beta_cr"] is None

    def test_subnormal_energy_classifies_without_warning(self, tmp_path):
        # the decade span of a grid reaching -2.2e-311 is a difference of
        # logarithms; the ratio of its end energies overflowed
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann",
                           "coefficient": {"samples": [[0, 1.3], [0.8, 0.9], [1.5, 1.0]],
                                           "flat_radius": 1.5}},
               "potential": {"kind": "indicator", "support": [1, 2]},
               "numerics": {"m": 40},
               "study": {"lambda_grid": [-3.13, -2.2e-311, -2.45, -1.0, -0.5]}}
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(cfg))
        code, lines = betacrit("mu-curve", "--config", str(path), "--out", str(tmp_path))
        assert (code, lines) == (0, [])

    def test_unresolved_coupling_exit_code(self, tmp_path, capsys):
        # about 21,000 steps for each of about 7,900 sectors that can bind:
        # past the count's work budget, so no count is formed
        code, _ = run_config(tmp_path, "clr_d3.json", "clr",
                             extra={"study": {"beta_grid": [1.3, 1e7]}})
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "numerical-failure"
        assert diag["type"] == "UnconvergedError"
        assert diag["details"]["steps"] * diag["details"]["sectors"] > 1e8
        assert not list(tmp_path.glob("clr_d3.*"))

    def test_clr_counts_the_d3_indicator_at_1e4(self, tmp_path):
        # what oc.total_count_zero_energy gives (in about 40 s); the
        # finite-difference count on the mesh_h = 2e-3 this config once set
        # read 865,863 and passed unflagged
        code, cfg = run_config(tmp_path, "clr_d3.json", "clr",
                               extra={"study": {"beta_grid": [1e4]}})
        assert code == 0
        assert [r["count"] for r in read_json(tmp_path, cfg)["rows"]] == [865_329]

    @pytest.mark.parametrize("subcommand", ["direct", "crosscheck", "beta-cr"])
    def test_half_line_must_be_one_dimensional(self, tmp_path, capsys, subcommand):
        cfg = {"problem": {"geometry": "half_line", "dimension": 3,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(subcommand, str(path), str(tmp_path)) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config-error"

    def test_planar_plus_halfspace_is_a_config_error(self, tmp_path, capsys):
        code, _ = run_config(tmp_path, "halfspace_d2.json", "halfspace",
                             extra={"study": {"sign": "plus"}})
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config-error"

    @pytest.mark.parametrize("field, value", [("r_max", 7.0), ("mesh_h", 0.05)])
    @pytest.mark.parametrize("name, subcommand", [("direct_square_well.json", "direct"),
                                                  ("clr_d3.json", "clr")])
    def test_ignored_numerics_field_changes_no_artifact(self, tmp_path, field, value,
                                                        name, subcommand):
        study = {"study": {"beta_grid": [4.0]}}
        code, cfg = run_config(tmp_path / "plain", name, subcommand, extra=study)
        assert code == 0
        code, _ = run_config(tmp_path / field, name, subcommand,
                             extra={**study, "numerics": {field: value}})
        assert code == 0
        for out in cfg["output"].values():
            assert (tmp_path / "plain" / out).read_bytes() == \
                (tmp_path / field / out).read_bytes()

    def test_dichotomy_without_decades_uses_the_suite_default(self, tmp_path):
        with open(os.path.join(CONFIG_DIR, "dichotomy.json")) as fh:
            cfg = json.load(fh)
        del cfg["numerics"]["lambda_decades"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("dichotomy", str(path), str(tmp_path)) == 0
        assert read_json(tmp_path, cfg)["metadata"]["decades"] == [2, 8]


def one_diagnostic(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestSchemaValidation:
    PROBLEM = {"geometry": "half_line", "dimension": 1,
               "boundary_condition": "dirichlet"}
    WELL = {"kind": "indicator", "support": [1.0, 2.0]}

    @pytest.mark.parametrize("cfg", [
        {"problem": PROBLEM, "potential": WELL, "numerics": {"mesh_h": -1.0}},
        {"problem": {**PROBLEM, "typo": 1}, "potential": WELL},
        {"problem": {**PROBLEM, "dimension": "one"}, "potential": WELL},
        {"problem": PROBLEM},
        {"problem": PROBLEM, "potential": {"kind": "x"}},
        {"problem": PROBLEM, "potential": WELL, "study": {"beta_grid": ["a"]}},
        {"problem": {**PROBLEM, "dimension": 0, "typo": 1},
         "potential": {"kind": "tent", "support": "x"}, "numerics": {"m": -2}},
        # best_match does not pick the first error here
        {"problem": PROBLEM, "potential": WELL, "numerics": {"m": 0},
         "output": {"json": 3}},
        [],
    ])
    def test_diagnostic_matches_jsonschema_validate(self, tmp_path, capsys, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("beta-cr", str(path), str(tmp_path)) == 1
        diag = one_diagnostic(capsys)
        with pytest.raises(jsonschema.ValidationError) as err:
            jsonschema.validate(cfg, cli.load_schema())
        assert diag["error"] == "config-error"
        assert diag["field"] == "/".join(str(p) for p in err.value.absolute_path)
        assert diag["message"] == err.value.message

    def test_meta_schema_checked_once_per_schema(self, tmp_path, monkeypatch):
        validator = jsonschema.validators.validator_for(cli.load_schema())
        check_schema = validator.check_schema
        checked = []

        def counted(schema, *args, **kwargs):
            checked.append(schema["$id"])
            return check_schema(schema, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("jsonschema.validate rebuilds the validator")

        monkeypatch.setattr(validator, "check_schema", counted)
        monkeypatch.setattr(jsonschema, "validate", refuse)
        cli._validator.cache_clear()
        for run in range(3):
            code, _ = run_config(tmp_path / str(run), "beta_cr_square_well.json",
                                 "beta-cr", extra={"numerics": {"m": 32}})
            assert code == 0
        assert checked == ["betacrit-config", "betacrit-report"]

    def test_invalid_report_exits_2_without_artifacts(self, tmp_path, capsys,
                                                     monkeypatch):
        def oops(cfg, problem, potential, num):
            return {"beta_cr": "oops"}, ("beta_cr",), [{"beta_cr": "oops"}]

        monkeypatch.setitem(cli.RUNNERS, "beta-cr", oops)
        code, cfg = run_config(tmp_path, "beta_cr_square_well.json", "beta-cr")
        assert code == 2
        diag = one_diagnostic(capsys)
        assert diag["error"] == "report-error"
        assert diag["type"] == "ValidationError"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestCommandLine:
    @pytest.mark.parametrize("args", [
        ("nosuch", "--config", "x.json"),
        ("beta-cr", "--config", "x.json", "--threads", "4"),
        ("beta-cr",),
    ])
    def test_usage_errors_exit_1_with_one_json_line(self, args):
        code, lines = betacrit(*args)
        assert code == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage-error"

    def test_out_naming_a_file_exits_1_with_one_json_line(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, lines = betacrit("beta-cr", "--config",
                               os.path.join(CONFIG_DIR, "beta_cr_square_well.json"),
                               "--out", str(taken))
        assert code == 1
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "output-error"
        assert diag["type"] == "FileExistsError"
        assert taken.read_text() == ""


class TestReportWriting:
    def test_squatted_temp_name_does_not_break_the_run(self, tmp_path):
        (tmp_path / "beta_cr_square_well.json.tmp").mkdir()
        code, cfg = run_config(tmp_path, "beta_cr_square_well.json", "beta-cr")
        assert code == 0
        assert read_json(tmp_path, cfg)["beta_cr"] > 0
        leftovers = {p.name for p in tmp_path.iterdir()} - {
            "beta_cr_square_well.json.tmp", "cfg.json", *cfg["output"].values()}
        assert not leftovers

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError):
            cli.write_json(str(tmp_path / "report.json"), {"a": 1})
        assert list(tmp_path.iterdir()) == []

    def test_report_mode_follows_the_umask(self, tmp_path):
        cli.write_json(str(tmp_path / "report.json"), {"a": 1})
        umask = os.umask(0)
        os.umask(umask)
        assert (tmp_path / "report.json").stat().st_mode & 0o777 == 0o666 & ~umask


class TestSubcommands:
    def test_beta_cr_square_well(self, tmp_path):
        code, cfg = run_config(tmp_path, "beta_cr_square_well.json", "beta-cr")
        assert code == 0
        payload = read_json(tmp_path, cfg)
        assert payload["beta_cr"] == pytest.approx(
            oc.square_well_beta_cr(1.0, 2.0), rel=1e-3)

    def test_mu_curve_neumann_slope(self, tmp_path):
        code, cfg = run_config(tmp_path, "mu_curve_neumann_1d.json", "mu-curve")
        assert code == 0
        payload = read_json(tmp_path, cfg)
        assert payload["classification"]["verdict"] == "divergent"
        assert payload["classification"]["rate_exponent"] == pytest.approx(-0.5, abs=0.05)
        rows = list(open(tmp_path / cfg["output"]["csv"]))
        assert rows[0].strip() == "lambda,mu0,m,residual"

    def test_direct_table(self, tmp_path):
        code, cfg = run_config(tmp_path, "direct_square_well.json", "direct")
        assert code == 0
        payload = read_json(tmp_path, cfg)
        counts = [r["count"] for r in payload["rows"]]
        assert counts == [0, 1, 1, 4]
        header = open(tmp_path / cfg["output"]["csv"]).readline().strip()
        assert header == "beta,lambda0,count,residual"

    def test_direct_neumann_half_line_threshold_is_zero(self, tmp_path):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "neumann"},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]},
               "study": {"beta_grid": [0.5]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("direct", str(path), str(tmp_path)) == 0
        payload = json.loads((tmp_path / "direct.json").read_text())
        assert payload["beta_cr_direct"] == 0.0
        assert payload["rows"][0]["count"] == 1

    def test_crosscheck_pairs_energy_and_kernel_of_the_config_sector(self, tmp_path):
        # the sector-0 energy against the sector-1 kernel reads 0.071 here
        cfg = {"problem": {"geometry": "exterior_ball", "dimension": 3,
                           "boundary_condition": "dirichlet", "radius": 1.0,
                           "sector": 1},
               "potential": {"kind": "indicator", "support": [1.5, 2.5]},
               "study": {"beta_grid": [8.0]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("crosscheck", str(path), str(tmp_path)) == 0
        with open(tmp_path / "crosscheck.json") as fh:
            payload = json.load(fh)
        assert payload["max_residual"] < 1e-4

    def test_direct_rows_hold_the_lowest_state_whatever_the_config_sector(self, tmp_path):
        reports = []
        for sector in (0, 2):
            cfg = {"problem": {"geometry": "exterior_ball", "dimension": 3,
                               "boundary_condition": "dirichlet", "radius": 1.0,
                               "sector": sector},
                   "potential": {"kind": "indicator", "support": [1.5, 2.5]},
                   "study": {"beta_grid": [8.0]}}
            path = tmp_path / f"cfg{sector}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / str(sector)
            assert cli.run("direct", str(path), str(out)) == 0
            reports.append((out / "direct.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["rows"][0]["lambda0"] < -4.5  # below sector 1's

    def test_fkw_report(self, tmp_path):
        code, cfg = run_config(tmp_path, "fkw_ball_d3.json", "fkw")
        assert code == 0
        payload = read_json(tmp_path, cfg)
        assert payload["norm_limit"]["verdict"] == "bounded"
        assert payload["beta_cr"] > 0

    def test_reports_validate_against_published_schema(self, tmp_path):
        schema = cli.load_schema("report")
        for name, sub in (("beta_cr_square_well.json", "beta-cr"),
                          ("crosscheck_square_well.json", "crosscheck"),
                          ("dichotomy.json", "dichotomy")):
            code, cfg = run_config(tmp_path, name, sub)
            assert code == 0
            jsonschema.validate(read_json(tmp_path, cfg), schema)

    def test_fkw_takes_the_norm_limit_once_on_the_config_grid(self, tmp_path,
                                                             monkeypatch):
        grids = []
        norm_limit = fkw.fkw_norm_limit

        def counted(*args, **kwargs):
            grids.append(kwargs.get("lambda_grid"))
            return norm_limit(*args, **kwargs)

        monkeypatch.setattr(fkw, "fkw_norm_limit", counted)
        code, cfg = run_config(tmp_path, "fkw_ball_d3.json", "fkw")
        assert code == 0
        assert len(grids) == 1
        decades = tuple(cfg["numerics"]["lambda_decades"])
        assert np.array_equal(grids[0], bs.default_lambda_grid(decades))

    def test_scaling_csv_columns(self, tmp_path):
        code, cfg = run_config(tmp_path, "scaling_1d.json", "scaling",
                               extra={"study": {"n_grid": [4, 8]}})
        assert code == 0
        header = open(tmp_path / cfg["output"]["csv"]).readline().strip()
        assert header == "n,beta_cr_kernel,beta_cr_direct,m"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        with open(os.path.join(CONFIG_DIR, "beta_cr_square_well.json")) as fh:
            cfg = json.load(fh)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for out in (out1, out2):
            assert cli.run("beta-cr", str(path), str(out)) == 0
        for name in cfg["output"].values():
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
