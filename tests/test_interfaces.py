"""The sector interface stays narrow: one propagator and one reader of what
it integrates, both in ``sector_ode``, and sectors named only by
``ProblemSpec``."""

import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

from betacrit import direct_spectrum as ds
from betacrit import fkw
from betacrit.model import ProblemSpec
from betacrit.sector_ode import SectorODE

SRC = pathlib.Path(ds.__file__).resolve().parent
INTEGRATOR = re.compile(r"\.propagators\(|\bGAUSS\b|solve_ivp|odeint|scipy\.integrate")


def test_only_sector_ode_integrates_or_reads_integrator_output():
    """Only ``sector_ode.py`` forms a propagator or imports an integrator."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "sector_ode.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if INTEGRATOR.search(line)]
    assert hits == []


def test_the_cli_imports_no_ode_integrator():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, betacrit.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("fn", [
    SectorODE, ds.SectorPencil, ds.phase_mismatch, ds._fd_ground_energy,
    ds._ground_seed, ds.ground_state, ds.eigenfunction, ds.eigenvalue_residual,
    fkw._dirichlet_resolvent, ProblemSpec.effective_bc,
], ids=lambda fn: fn.__qualname__)
def test_sector_is_named_only_by_the_problem(fn):
    assert "sector" not in inspect.signature(fn).parameters
