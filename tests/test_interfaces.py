"""The sector interface stays narrow: one propagator, one mesh rule, one span
and one reader of what it integrates, all in ``sector_ode``, no finite-difference
pencil (it is a test oracle), and sectors named only by ``ProblemSpec``.
Start-up stays light: scipy is imported in the functions that call it, so a
run loads only the scipy modules it uses.  The config schema offers no field
the command line does not read, and the public functions' keyword defaults
and the schema's fields are pinned by name."""

import ast
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import betacrit
from betacrit import direct_spectrum as ds
from betacrit import fkw
from betacrit.model import Potential, ProblemSpec, Profile
from betacrit.sector_ode import SectorODE

SRC = pathlib.Path(ds.__file__).resolve().parent
CONFIGS = SRC.parent.parent / "configs"
INTEGRATOR = re.compile(r"\.propagators\(|\bGAUSS\b|solve_ivp|odeint|scipy\.integrate")
SCIPY_IMPORT = re.compile(r"^(from|import) scipy")
BALL3 = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)


def test_only_sector_ode_integrates_or_reads_integrator_output():
    """Only ``sector_ode.py`` forms a propagator or imports an integrator."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "sector_ode.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if INTEGRATOR.search(line)]
    assert hits == []


def test_one_rule_decides_where_the_sector_ode_steps():
    """``SectorODE.mesh`` is the only mesh of the sector ODE; the fkw
    resolvent's Simpson grid, a quadrature rule, is the one other reader of
    ``pieces``, and no module keeps a per-unit step density."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                calls += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "pieces"]
    assert sorted(calls) == ["fkw.py:_dirichlet_resolvent", "sector_ode.py:mesh"]
    assert sum(path.read_text().count(".pieces(") for path in SRC.glob("*.py")) == 2
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "STEPS_PER_UNIT" in path.read_text()] == []


def test_only_sector_ode_knows_the_span():
    """R* and the span [r_in, R*] belong to ``SectorODE``: no module names
    ``closure_radius``, ``segment_points`` or ``flat_radius``, and no
    call passes radii to ``integrate``, ``mesh`` or ``pieces``, which take
    the energy (and the start) alone."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in sources.items()
            if re.search(r"\b(closure_radius|segment_points)\b", text)] == []
    assert [name for name, text in sources.items() if "flat_radius(" in text] == []
    most = {"integrate": 2, "mesh": 1, "pieces": 1}  # positional arguments
    calls = [f"{name}:{node.lineno}" for name, text in sources.items()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and len(node.args) > most.get(node.func.attr, math.inf)]
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda well: ds.beta_critical_direct(BALL3, well),
    lambda well: ds.ground_state(BALL3, well, 4.0),
], ids=["beta_critical_direct", "ground_state"])
def test_every_shot_of_one_root_steps_one_well(monkeypatch, run):
    """A threshold or a ground state builds its ``SectorODE`` once and
    re-couples it for each of its shots."""
    builds, shots = [], []
    init, integrate = SectorODE.__init__, SectorODE.integrate
    monkeypatch.setattr(SectorODE, "__init__",
                        lambda *a, **k: builds.append(1) or init(*a, **k))
    monkeypatch.setattr(SectorODE, "integrate",
                        lambda *a, **k: shots.append(1) or integrate(*a, **k))
    run(Potential(Profile.indicator(1.5, 2.5)))
    assert len(shots) > 3
    assert len(builds) == 1


def test_one_rule_decides_every_verdict():
    """``ProblemSpec.limit_diverges`` is the only code that says where a
    sector's limit kernel diverges: no module reads it off the zero-energy
    closure flux, and no verdict of a tail is turned into a threshold."""
    flux_reads = [f"{path.name}:{number}"
                  for path in sorted(SRC.glob("*.py")) if path.name != "sector_ode.py"
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if "decay_state(0.0" in line]
    assert flux_reads == []
    demos = SRC.parent.parent / "demos"
    assert [path.name for path in sorted(SRC.glob("*.py")) + sorted(demos.glob("*.py"))
            if "beta_from_verdict" in path.read_text()] == []
    rule = [f"{path.name}:{fn.name}" for path in sorted(SRC.glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            and re.search(r"sector \+ \S*dimension <= 2", ast.unparse(fn))]
    assert rule == ["model.py:limit_diverges"]
    assert "_observed_limit" not in betacrit.__all__


def test_one_path_reads_a_sector_angle():
    """A single sector's zero-energy angle is read only by ``phase_mismatch``,
    the function the threshold roots: no refined mode, no count wrapper,
    ``ZeroEnergyAngle`` built only by ``count_negative`` for the count's
    batched turn mesh."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in sources.items() if "refined" in text] == []
    assert [name for name, text in sources.items() if "zero_energy_count" in text] == []
    builders = [f"{name}:{fn.name}" for name, text in sources.items()
                for fn in ast.walk(ast.parse(text)) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "ZeroEnergyAngle"]
    assert builders == ["direct_spectrum.py:count_negative"]
    assert sum(text.count("ZeroEnergyAngle(") for text in sources.values()) == 1
    assert "ZeroEnergyAngle" not in inspect.getsource(ds.phase_mismatch)


def test_no_module_names_the_fd_pencil():
    """Counts come from the zero-energy angle: no module names the
    finite-difference pencil, its mesh, its counter or LAPACK's ``stebz``,
    and none solves a banded system.  ``tests/oracles.py`` keeps them."""
    pencil = re.compile(r"\b(SectorPencil|_Mesh|_mesh|SpectrumCounter)\b|stebz")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pencil.search(line) or "solve_banded" in line]
    assert hits == []


def test_only_sector_ode_names_the_bessel_pair():
    """``SectorODE.free_pair`` owns the free solutions: no other module names
    the scaled Bessels."""
    bessel = re.compile(r"\b(ive|kve)\b")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "sector_ode.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if bessel.search(line)]
    assert hits == []


def test_no_module_sums_in_one_shared_log_scale():
    """Green sums go through ``SectorKernel``, whose factors are exponentials of
    nearby scale differences: no module sums by ``logaddexp``, which loses
    eps k r."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "logaddexp" in line]
    assert hits == []


@pytest.mark.parametrize("name", ["green_kernels.py", "birman_schwinger.py", "fkw.py"])
def test_kernel_and_eigensolve_modules_name_no_scipy(name):
    """The Green pair and gamma1 come from ``free_pair`` and the stalled-top
    fallback from ``numpy.linalg.eigh``: none of these modules names scipy."""
    hits = [f"{name}:{number}: {line.strip()}"
            for number, line in enumerate((SRC / name).read_text().splitlines(), 1)
            if "scipy" in line]
    assert hits == []


def _fresh(code: str, cwd) -> str:
    """Last line ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=cwd, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_no_module_imports_scipy_at_its_top_level():
    """Each scipy function is imported in the function that calls it."""
    hits = [f"{path.name}:{number}: {line}"
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if SCIPY_IMPORT.match(line)]
    assert hits == []


def test_the_cli_imports_no_ode_integrator(tmp_path):
    code = ("import sys, betacrit.cli; "
            "print('scipy.integrate' in sys.modules, 'scipy' in sys.modules)")
    assert _fresh(code, tmp_path) == "False False"


def test_half_line_planar_half_space_and_count_runs_load_no_scipy(tmp_path):
    """A half-line kernel run, the half-line scaling study (whose direct
    thresholds are Newton roots), the d = 2 half-space study and the d = 3
    counting audit need no Bessel function, dense solver or root finder, so
    they load no scipy module.  The ``direct`` and ``crosscheck`` runs still
    load ``scipy.optimize``, for ``ground_state``'s ``brentq``."""
    runs = [("beta-cr", "beta_cr_square_well.json"),
            ("mu-curve", "mu_curve_neumann_1d.json"),
            ("scaling", "scaling_1d.json"),
            ("halfspace", "halfspace_d2.json"),
            ("clr", "clr_d3.json")]
    code = "\n".join([
        "import sys",
        "from betacrit import cli",
        f"for sub, name in {runs!r}:",
        f"    config = {str(CONFIGS)!r} + '/' + name",
        "    assert cli.main([sub, '--config', config, '--out', name[:-5]]) == 0, name",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert _fresh(code, tmp_path) == "[]"


@pytest.mark.parametrize("fn", [
    SectorODE, ds.phase_mismatch, ds.ground_state,
    ds.eigenfunction, ds.eigenvalue_residual,
    fkw._dirichlet_resolvent, ProblemSpec.effective_bc,
], ids=lambda fn: fn.__qualname__)
def test_sector_is_named_only_by_the_problem(fn):
    assert "sector" not in inspect.signature(fn).parameters


def test_every_numerics_and_study_field_is_read_by_the_cli():
    """A field the schema accepts but no runner reads would be a silent knob;
    ``mesh_h`` and ``r_max`` stay accepted and ignored while the benchmark
    generator writes them."""
    schema = json.loads((SRC / "schemas" / "config.schema.json").read_text())
    source = (SRC / "cli.py").read_text()
    unread = [f"{section}.{name}" for section in ("numerics", "study")
              for name in schema["properties"][section]["properties"]
              if not re.search(rf'(\[|\.get\()"{name}"', source)]
    assert unread == ["numerics.mesh_h", "numerics.r_max"]


def _schema_fields(node, prefix=""):
    """Dotted paths of the schema's leaf fields."""
    for name, sub in node.get("properties", {}).items():
        if "properties" in sub:
            yield from _schema_fields(sub, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_option_inventory():
    """Every keyword default of a public function and every config field, by
    name: a change that adds or retires an option shows it here."""
    defaults = sorted(f"{name}.{param.name}" for name in betacrit.__all__
                      if inspect.isfunction(fn := getattr(betacrit, name))
                      for param in inspect.signature(fn).parameters.values()
                      if param.default is not inspect.Parameter.empty)
    assert defaults == [
        "assemble.m",
        "beta_critical.lambda_grid", "beta_critical.m", "beta_critical.method",
        "beta_critical.sector_max",
        "beta_critical_fkw.m", "beta_critical_fkw.sector_max",
        "crosscheck_birman_schwinger.m",
        "default_lambda_grid.decades",
        "dichotomy_suite.decades", "dichotomy_suite.m",
        "fkw_norm_limit.lambda_grid", "fkw_norm_limit.m", "fkw_norm_limit.sector_max",
        "halfspace_norm_study.m",
        "minorant_eigenvalue.profile",
        "mu_curve.lambda_grid", "mu_curve.m",
        "norm_limit.lambda_grid", "norm_limit.m",
        "scaling_study_1d.m"]
    schema = json.loads((SRC / "schemas" / "config.schema.json").read_text())
    assert sorted(_schema_fields(schema)) == [
        "numerics.lambda_decades", "numerics.m", "numerics.mesh_h", "numerics.r_max",
        "numerics.sector_max",
        "output.csv", "output.json",
        "potential.amplitude", "potential.center_coefficient",
        "potential.center_exponent", "potential.kind", "potential.profile",
        "potential.samples", "potential.support",
        "problem.boundary_condition", "problem.coefficient.flat_radius",
        "problem.coefficient.samples", "problem.dimension", "problem.geometry",
        "problem.radius", "problem.sector",
        "study.beta", "study.beta_grid", "study.lambda_grid", "study.method",
        "study.n_grid", "study.sign"]
