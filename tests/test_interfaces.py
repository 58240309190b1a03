"""The sector interface stays narrow: one integrator and one reader of what
it integrates, both in ``sector_ode``, and sectors named only by
``ProblemSpec``."""

import inspect
import pathlib
import re

import pytest

from betacrit import direct_spectrum as ds
from betacrit import fkw
from betacrit.model import ProblemSpec
from betacrit.sector_ode import SectorODE

SRC = pathlib.Path(ds.__file__).resolve().parent
INTEGRATOR = re.compile(r"solve_ivp|\.sol\b|sol\.y|sol\.t\b")


def test_only_sector_ode_integrates_or_reads_integrator_output():
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "sector_ode.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if INTEGRATOR.search(line)]
    assert hits == []


@pytest.mark.parametrize("fn", [
    SectorODE, ds.SectorPencil, ds.phase_mismatch, ds._fd_ground_energy,
    ds._ground_seed, ds.ground_state, ds.eigenfunction, ds.eigenvalue_residual,
    fkw._dirichlet_resolvent, ProblemSpec.effective_bc,
], ids=lambda fn: fn.__qualname__)
def test_sector_is_named_only_by_the_problem(fn):
    assert "sector" not in inspect.signature(fn).parameters
