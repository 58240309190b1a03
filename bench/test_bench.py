"""Tests of the benchmark's own code: tracing wrappers, generator, checks.

Run from the repository root with ``python3 -m pytest bench``.
"""

import copy
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# wrappers


def _fake_package(name="fakepkg"):
    """A package with three traced targets; the rest are missing."""
    def load_config(path):
        return {"path": path}

    def radial_kernel(problem, lam, r, rho):
        if lam > 0:
            raise ValueError("needs lambda <= 0")
        return [[1.0, 2.0], [3.0, 4.0]]

    def assemble(problem, lam):
        return radial_kernel(problem, lam, None, None)

    validate_calls = []
    jsonschema = types.ModuleType("jsonschema")
    jsonschema.validate = lambda inst, schema: validate_calls.append(inst)
    jsonschema.ValidationError = type("ValidationError", (Exception,), {})

    pkg = types.ModuleType(name)
    cli = types.ModuleType(f"{name}.cli")
    cli.load_config, cli.jsonschema = load_config, jsonschema
    gk = types.ModuleType(f"{name}.green_kernels")
    gk.radial_kernel = radial_kernel
    bs = types.ModuleType(f"{name}.birman_schwinger")
    bs.radial_kernel = radial_kernel  # the binding `from ... import` makes
    bs.assemble = assemble
    modules = {name: pkg, cli.__name__: cli, gk.__name__: gk, bs.__name__: bs}
    return modules, validate_calls


@pytest.fixture
def fake(monkeypatch):
    modules, validate_calls = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules, validate_calls


def test_wrappers_return_values_unchanged(fake):
    modules, validate_calls = fake
    cli, bs = modules["fakepkg.cli"], modules["fakepkg.birman_schwinger"]
    originals = (cli.load_config, bs.radial_kernel, bs.assemble)
    tracer = layers.Tracer()
    restore = layers.install(tracer, "fakepkg")
    try:
        assert cli.load_config("a.json") == {"path": "a.json"}
        assert bs.radial_kernel(None, -1.0, None, None) == [[1.0, 2.0], [3.0, 4.0]]
        cli.jsonschema.validate({"x": 1}, {})
        assert validate_calls == [{"x": 1}]
        assert cli.jsonschema.ValidationError.__name__ == "ValidationError"
    finally:
        restore()
    assert (cli.load_config, bs.radial_kernel, bs.assemble) == originals
    assert not isinstance(cli.jsonschema, layers._JsonschemaProxy)
    summary = tracer.summary()
    assert summary["cli.load_config"]["calls"] == 1
    assert summary["green_kernels.radial_kernel"]["calls"] == 1
    assert summary["cli.validate"]["calls"] == 1
    assert tracer.counts["green_kernels.entries"] == 4


def test_wrappers_reraise_and_close_the_span(fake):
    modules, _ = fake
    gk = modules["fakepkg.green_kernels"]
    tracer = layers.Tracer()
    restore = layers.install(tracer, "fakepkg")
    try:
        with pytest.raises(ValueError, match="needs lambda"):
            gk.radial_kernel(None, 1.0, None, None)
    finally:
        restore()
    assert tracer._stack == []
    assert tracer.summary()["green_kernels.radial_kernel"]["calls"] == 1
    assert "green_kernels.entries" not in tracer.counts


def test_missing_targets_are_flagged_with_zero_calls(fake):
    tracer = layers.Tracer()
    layers.install(tracer, "fakepkg")()
    assert "direct_spectrum.phase_mismatch" in tracer.missing
    assert "cli.load_config" not in tracer.missing
    assert tracer.summary()["direct_spectrum.phase_mismatch"]["calls"] == 0


def test_self_time_excludes_wrapped_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = layers.Tracer(clock=lambda: next(ticks))
    tracer.enter("birman_schwinger.assemble")       # t = 0
    tracer.enter("green_kernels.radial_kernel")     # t = 1
    assert tracer.leave() == "birman_schwinger.assemble"  # t = 3
    assert tracer.leave() is None                   # t = 10
    summary = tracer.summary()
    assert summary["birman_schwinger.assemble"] == {"calls": 1, "s": 10.0, "self_s": 8.0}
    assert summary["green_kernels.radial_kernel"]["self_s"] == 2.0


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(ROOT, workload, 11)
    again = workloads.generate(ROOT, workload, 11)
    other = workloads.generate(ROOT, workload, 12)
    key = [(c.name, c.config, c.expect, c.reruns) for c in first]
    assert key == [(c.name, c.config, c.expect, c.reruns) for c in again]
    assert key != [(c.name, c.config, c.expect, c.reruns) for c in other]


def test_generated_configs_pass_the_shipped_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from betacrit import cli
    schema = cli.load_schema("config")
    for workload in workloads.WORKLOADS:
        cases = workloads.generate(ROOT, workload, 3)
        workloads.write_configs(cases, str(tmp_path / workload), schema,
                                jsonschema.validate)
        assert all(os.path.isfile(c.path) for c in cases)


def test_invalid_generated_config_is_rejected(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from betacrit import cli
    case = workloads.Case("clr", "bad", {"problem": {}, "potential": {"kind": "x"}})
    with pytest.raises(jsonschema.ValidationError):
        workloads.write_configs([case], str(tmp_path), cli.load_schema("config"),
                                jsonschema.validate)
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# oracles and output checks


def test_oracles_match_known_values():
    assert checks.square_well_beta_cr(1.0, 2.0) == pytest.approx(0.7401738843949668, rel=1e-12)
    # the deep-well count the acceptance gate pins for the unit-height shell
    assert checks.total_zero_count(3, 1.0, 1.5, 2.5, 1.0, 3.5) == 4
    # with no arm the threshold is (pi / 2w)^2 / height
    assert checks.square_well_beta_cr(0.0, 2.0, 3.0) == pytest.approx(
        (3.141592653589793 / 4.0) ** 2 / 3.0, rel=1e-12)


def _cli_report(tmp_path, subcommand, config_name):
    from betacrit import cli
    out = tmp_path / "out"
    assert cli.run(subcommand, os.path.join(ROOT, "configs", config_name), str(out)) == 0
    with open(os.path.join(ROOT, "configs", config_name)) as fh:
        name = json.load(fh)["output"]["json"]
    return json.loads((out / name).read_text())


def test_check_fails_on_a_corrupted_threshold(tmp_path):
    report = _cli_report(tmp_path, "beta-cr", "beta_cr_square_well.json")
    expect = {"oracle": checks.square_well_beta_cr(1.0, 2.0)}
    assert checks.check_beta_cr(report, expect) == []
    bad = copy.deepcopy(report)
    bad["beta_cr"] *= 1.01
    assert checks.check_beta_cr(bad, expect)


def test_check_fails_on_a_corrupted_count(tmp_path):
    report = _cli_report(tmp_path, "clr", "clr_d3.json")
    betas = [1.3, 2.0, 5.0, 20.0, 80.0]
    expect = {"counts": {repr(b): checks.total_zero_count(3, 1.0, 1.5, 2.5, 1.0, b)
                         for b in betas}}
    assert checks.check_clr(report, expect) == []
    bad = copy.deepcopy(report)
    bad["rows"][2]["count"] += 1
    assert checks.check_clr(bad, expect)


def test_check_fails_on_a_flipped_verdict(tmp_path):
    report = _cli_report(tmp_path, "mu-curve", "mu_curve_neumann_1d.json")
    expect = {"d": 1, "bc": "neumann", "sector": 0}
    assert checks.check_mu_curve(report, expect) == []
    bad = copy.deepcopy(report)
    bad["classification"]["verdict"] = "bounded"
    assert checks.check_mu_curve(bad, expect)
