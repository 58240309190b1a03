"""Config fuzzer: every config the schema accepts ends in exit 0, 1 or 2,
and a failure prints exactly one JSON line on stderr, never a traceback.

The strategies are written by hand from ``config.schema.json``, with small
quadrature sizes, meshes, couplings and supports so that each run stays
cheap.  Inputs that once escaped as tracebacks are pinned as examples.
"""

import contextlib
import io
import json
import os
import tempfile

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betacrit import cli


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _samples(lo, hi, value_lo, value_hi):
    """2-4 samples [x, y] with x ascending in [lo, hi]."""
    xs = st.lists(_num(lo, hi), min_size=2, max_size=4, unique=True).map(sorted)
    return xs.flatmap(lambda x: st.lists(_num(value_lo, value_hi), min_size=len(x),
                                         max_size=len(x)).map(
        lambda y: [[a, b] for a, b in zip(x, y)]))


COEFFICIENTS = _samples(0.0, 2.5, 0.3, 3.0).flatmap(
    lambda samples: st.fixed_dictionaries({
        "samples": st.just(samples),
        "flat_radius": _num(samples[-1][0], samples[-1][0] + 1.0)}))


def _ball(conditions=("dirichlet", "neumann", "fkw"), dimensions=(1, 2, 3)):
    return st.fixed_dictionaries(
        {"geometry": st.just("exterior_ball"),
         "dimension": st.sampled_from(dimensions),
         "boundary_condition": st.sampled_from(conditions)},
        optional={"radius": _num(0.3, 1.5), "sector": st.integers(0, 3),
                  "coefficient": COEFFICIENTS})


HALF_LINE = st.fixed_dictionaries(
    {"geometry": st.just("half_line"), "dimension": st.just(1),
     "boundary_condition": st.sampled_from(["dirichlet", "neumann"])},
    optional={"coefficient": COEFFICIENTS})
HALF_SPACE = st.fixed_dictionaries(
    {"geometry": st.just("half_space"), "dimension": st.sampled_from([2, 3]),
     "boundary_condition": st.just("dirichlet")})
ANY_PROBLEM = st.fixed_dictionaries(
    {"geometry": st.sampled_from(["half_line", "exterior_ball", "half_space"]),
     "dimension": st.sampled_from([1, 2, 3]),
     "boundary_condition": st.sampled_from(["dirichlet", "neumann", "fkw"])},
    optional={"radius": _num(0.3, 2.0), "sector": st.integers(0, 3)})

FAMILY = st.fixed_dictionaries(
    {"kind": st.just("family")},
    optional={"profile": st.sampled_from(["indicator", "bump", "tent"]),
              "center_coefficient": _num(0.1, 2.0),
              "center_exponent": _num(0.0, 1.5)})


def _single(inner):
    """Potentials of one well, mostly supported past ``inner``."""
    amplitude = {"amplitude": _num(0.0, 3.0)}
    support = st.tuples(_num(-0.2, 2.0), _num(0.05, 1.5)).map(
        lambda t: [inner + t[0], inner + t[0] + t[1]])
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["indicator", "tent", "bump", "zero"]),
                               "support": support}, optional=amplitude),
        st.fixed_dictionaries({"kind": st.just("samples"),
                               "samples": _samples(inner - 0.2, inner + 3.0, 0.0, 3.0)},
                              optional=amplitude))


NUMERICS = st.fixed_dictionaries(
    {"m": st.integers(1, 40), "mesh_h": _num(0.005, 0.2)},
    optional={"lambda_decades": st.lists(st.integers(0, 9), min_size=2, max_size=2),
              "r_max": _num(1.0, 30.0),
              "sector_max": st.integers(0, 3)})

STUDIES = st.fixed_dictionaries(
    {},
    optional={"method": st.sampled_from(["auto", "limit-kernel", "extrapolation", "both"]),
              "beta": _num(0.0, 10.0),
              "beta_grid": st.lists(_num(0.0, 20.0), min_size=1, max_size=3),
              "n_grid": st.lists(_num(0.5, 60.0), min_size=1, max_size=3),
              "lambda_grid": st.lists(_num(-5.0, 0.5), min_size=1, max_size=6),
              "sign": st.sampled_from(["minus", "plus"])})

# the problems each subcommand is meant for; any other accepted config too
PROBLEM_FOR = {"fkw": _ball(("fkw",)), "clr": _ball(dimensions=(3,)),
               "scaling": HALF_LINE, "halfspace": HALF_SPACE}


def _config(problem, potential=None):
    if potential is None:
        potential = st.one_of(_single(problem.get("radius", 1.0)
                                      if problem["geometry"] == "exterior_ball" else 0.0),
                              FAMILY)
    return st.fixed_dictionaries({"problem": st.just(problem), "potential": potential,
                                  "numerics": NUMERICS}, optional={"study": STUDIES})


def _cases(subcommand):
    if subcommand in ("scaling", "halfspace"):
        meant = PROBLEM_FOR[subcommand].flatmap(lambda p: _config(p, FAMILY))
    else:
        meant = PROBLEM_FOR.get(subcommand, st.one_of(_ball(), HALF_LINE)).flatmap(_config)
    return st.tuples(st.just(subcommand), st.one_of(meant, ANY_PROBLEM.flatmap(_config)))


CASES = st.sampled_from(cli.SUBCOMMANDS).flatmap(_cases)


def _run(subcommand, cfg):
    """(exit code, stderr) of one in-process run in a fresh directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.run(subcommand, path, tmp)
    return code, err.getvalue()


HALF_LINE_D = {"geometry": "half_line", "dimension": 1, "boundary_condition": "dirichlet"}
SMALL = {"m": 8, "mesh_h": 0.05}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=CASES)
# a family handed to a run that needs one potential (AttributeError)
@example(case=("direct", {"problem": HALF_LINE_D, "potential": {"kind": "family"},
                          "numerics": SMALL}))
@example(case=("clr", {"problem": {"geometry": "exterior_ball", "dimension": 3,
                                   "boundary_condition": "dirichlet"},
                       "potential": {"kind": "family"}, "numerics": SMALL}))
# one kernel node at the zero between the two tent humps: beta_cr None (TypeError)
@example(case=("scaling", {"problem": HALF_LINE_D,
                           "potential": {"kind": "family", "profile": "tent"},
                           "numerics": {"m": 1, "mesh_h": 0.005}}))
# samples on the boundary up to 1e-12: R* = 0, closure l / R* (ZeroDivisionError)
@example(case=("direct", {"problem": {**HALF_LINE_D, "boundary_condition": "neumann"},
                          "numerics": SMALL,
                          "potential": {"kind": "samples",
                                        "samples": [[-2.2e-19, 2.3], [-2.1e-22, 2.3]]}}))
# R* = 1.2e-307: kve overflows in the closure, the mismatch is NaN (ValueError)
@example(case=("direct", {"problem": {**HALF_LINE_D, "boundary_condition": "neumann"},
                          "numerics": {"m": 1, "mesh_h": 0.005},
                          "potential": {"kind": "samples",
                                        "samples": [[-3e-168, 0.0], [0.0, 0.0],
                                                    [1.2301728708767044e-307,
                                                     2.569043459953394e-161]]}}))
def test_every_accepted_config_exits_0_1_or_2_with_one_json_line(case):
    subcommand, cfg = case
    jsonschema.validate(cfg, cli.load_schema("config"))
    code, err = _run(subcommand, cfg)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert "Traceback" not in err
        assert json.loads(lines[0])["error"]
