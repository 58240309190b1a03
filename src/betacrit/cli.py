"""Command-line surface: config ingestion, dispatch, report emission.

Every subcommand reads one JSON configuration (schema shipped with the
package), writes its artifacts atomically into the output directory, and
exits 0 on success, 1 on configuration errors, 2 on numerical failures
(unconverged counts, indeterminate classifications, near-singular solves)
and on a report that fails its schema.  Outputs carry no timestamps, and all
iterative solvers start from fixed vectors, so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from importlib import resources

import numpy as np
import jsonschema

from . import birman_schwinger as bs
from . import direct_spectrum as ds
from . import experiments as ex
from . import fkw
from .errors import (IndeterminateError, KernelLimitError, MethodDisagreement,
                     NearSingularError, UnconvergedError, ValidationError)
from .model import (CenterPath, CoefficientProfile, Potential, ProblemSpec,
                    Profile, ScaledPotentialFamily)

DEFAULTS = {
    "m": bs.DEFAULT_M,                           # kernel quadrature nodes
    "lambda_decades": list(bs.DEFAULT_DECADES),  # energy grid -10^{-j}
    "sector_max": fkw.DEFAULT_SECTOR_MAX,        # highest angular sector swept
}
SHAPES = {"indicator": Profile.indicator, "bump": Profile.bump, "tent": Profile.tent}

SUBCOMMANDS = ("mu-curve", "beta-cr", "direct", "crosscheck", "fkw",
               "scaling", "halfspace", "clr", "dichotomy")

CONFIG_ERRORS = (ValidationError, jsonschema.ValidationError,
                 json.JSONDecodeError, FileNotFoundError, KeyError)
NUMERIC_ERRORS = (UnconvergedError, IndeterminateError, NearSingularError,
                  KernelLimitError, MethodDisagreement)


def load_schema(name: str = "config") -> dict:
    with resources.files("betacrit.schemas").joinpath(f"{name}.schema.json").open() as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """The schema's validator, checked against its meta-schema on first use."""
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, name: str):
    """Raise the error ``jsonschema.validate`` would raise, if any."""
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(instance))
    if error is not None:
        raise error


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    _validate(cfg, "config")
    return cfg


def build_problem(cfg: dict) -> ProblemSpec:
    p = cfg["problem"]
    coeff = None
    if "coefficient" in p:
        samples = np.array(p["coefficient"]["samples"], dtype=float)
        coeff = CoefficientProfile(Profile(samples[:, 0], samples[:, 1]),
                                   p["coefficient"]["flat_radius"])
    return ProblemSpec(p["dimension"], p["geometry"], p["boundary_condition"],
                       radius=p.get("radius", 1.0), coefficient=coeff,
                       sector=p.get("sector", 0))


def build_potential(cfg: dict) -> Potential | ScaledPotentialFamily:
    q = cfg["potential"]
    kind = q["kind"]
    if kind == "family":
        path = CenterPath(q.get("center_coefficient", 1.0),
                          q.get("center_exponent", 1.0))
        return ScaledPotentialFamily(SHAPES[q.get("profile", "indicator")](0.0, 1.0),
                                     path, cfg["problem"]["dimension"])
    if kind == "zero":
        return Potential(Profile.indicator(*q["support"], 0.0), 0.0)
    if kind == "samples":
        samples = np.array(q["samples"], dtype=float)
        profile = Profile(samples[:, 0], samples[:, 1])
    else:
        profile = SHAPES[kind](*q["support"])
    return Potential(profile, q.get("amplitude", 1.0))


def _numerics(cfg: dict) -> dict:
    out = dict(DEFAULTS)
    out.update(cfg.get("numerics", {}))
    return out


def _lambda_grid(cfg: dict, num: dict) -> np.ndarray:
    study = cfg.get("study", {})
    if "lambda_grid" in study:
        return np.asarray(study["lambda_grid"], dtype=float)
    return bs.default_lambda_grid(tuple(num["lambda_decades"]))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    _atomic_write(path, buf.getvalue())


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   allow_nan=True) + "\n")


def _atomic_write(path: str, text: str):
    """Rename a unique sibling onto ``path``: a reader never sees a partial artifact,
    and runs into one directory cannot collide.  No fsync: a rerun of the config
    rebuilds a lost artifact byte for byte."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # the mode open() would give
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands


def _run_mu_curve(cfg, problem, potential, num):
    grid = _lambda_grid(cfg, num)
    report, cls = bs._observed_limit(problem, potential, lambda_grid=grid, m=num["m"])
    payload = {**report.to_json_dict(), "classification": asdict(cls),
               "beta_cr": None}
    if cls.verdict != "indeterminate":  # an indeterminate tail leaves beta_cr null
        if cls.verdict == "divergent":  # the rule's verdict: every coupling binds
            payload["beta_cr"] = 0.0
        elif cls.mu_star > 0:
            payload["beta_cr"] = 1.0 / cls.mu_star
        else:
            payload["beta_cr_verdict"] = "no-bound-states"  # V == 0: mu0 vanishes
    if not report.metadata.get("monotone", True):
        raise UnconvergedError("mu0 samples not monotone: discretization failure",
                               details=payload)
    return payload, ("lambda", "mu0", "m", "residual"), list(report.csv_rows())


def _run_beta_cr(cfg, problem, potential, num):
    method = cfg.get("study", {}).get("method", "auto")
    grid = _lambda_grid(cfg, num)
    value = bs.beta_critical(problem, potential, method=method, m=num["m"],
                             lambda_grid=grid)
    if value is None:
        beta_payload = {"beta_cr": None, "verdict": "no-bound-states"}
    else:
        beta_payload = {"beta_cr": value, "verdict": "bounded" if value > 0 else "divergent"}
    payload = {**beta_payload, "method": method,
               "metadata": {"m": num["m"], "panel_order": bs.PANEL_ORDER,
                            "sector": problem.sector,
                            "normalization": "(H0-lambda)G=delta; G>=0 for lambda<0"}}
    return payload, ("beta_cr", "verdict", "method"), [payload]


def _run_direct(cfg, problem, potential, num):
    beta_grid = cfg.get("study", {}).get("beta_grid", [1.0])
    lowest = problem.with_sector(0)  # holds the lowest state of the whole operator

    def one(beta):
        count = ds.count_negative(problem, potential, float(beta))
        row = {"beta": float(beta), "count": count, "lambda0": "", "residual": ""}
        if count > 0 and beta > 0:
            lam0 = ds.ground_state(lowest, potential, float(beta))
            if lam0 is not None:
                row["lambda0"] = lam0
                row["residual"] = ds.eigenvalue_residual(
                    lowest, potential, float(beta), lam0)
        return row

    rows = [one(beta) for beta in beta_grid]
    payload = {"rows": rows,
               "beta_cr_direct": ds.beta_critical_direct(problem, potential)}
    return payload, ("beta", "lambda0", "count", "residual"), rows


def _run_crosscheck(cfg, problem, potential, num):
    beta_grid = cfg.get("study", {}).get("beta_grid", [1.0, 2.0, 4.0])
    rows = ds.crosscheck_birman_schwinger(problem, potential, beta_grid,
                                          m=num["m"])
    payload = {"rows": rows,
               "max_residual": max((r["residual"] for r in rows), default=0.0)}
    return payload, ("beta", "lambda0", "mu0", "residual"), rows


def _run_fkw(cfg, problem, potential, num):
    study = cfg.get("study", {})
    beta = study.get("beta", 0.0)
    grid = _lambda_grid(cfg, num)
    sector_max = num["sector_max"]

    g_rows = [{"lambda": float(lam),
               "gamma1": fkw.gamma1(problem, beta, potential, float(lam))}
              for lam in grid]
    limit = fkw.fkw_norm_limit(problem, potential, lambda_grid=grid,
                               m=num["m"], sector_max=sector_max)
    if limit["verdict"] == "indeterminate":
        raise IndeterminateError("an indeterminate mu0 tail in the fkw sectors; refine the grid")
    value = fkw.beta_critical_fkw(problem, potential, m=num["m"], sector_max=sector_max)
    payload = {"gamma1": g_rows,
               "norm_limit": {"verdict": limit["verdict"],
                              "mu_star": limit["mu_star"],
                              "sectors": {str(l): asdict(cls)
                                          for l, cls in limit["sectors"].items()}},
               "beta_cr": value,
               "metadata": {"beta": beta, "sector_max": sector_max, "m": num["m"],
                            "flux_orientation": "toward the obstacle"}}
    return payload, ("lambda", "gamma1"), g_rows


def _run_scaling(cfg, problem, potential, num):
    n_grid = cfg.get("study", {}).get("n_grid", [4, 8, 16, 32])
    study = ex.scaling_study_1d(potential, n_grid, m=num["m"])
    cols = ("n", "beta_cr_kernel", "beta_cr_direct", "m")
    return study.to_json_dict(), cols, study.rows


def _run_halfspace(cfg, problem, potential, num):
    study_cfg = cfg.get("study", {})
    sign = study_cfg.get("sign", "minus")
    n_grid = study_cfg.get("n_grid", [10, 100, 1000, 10000])
    study = ex.halfspace_norm_study(problem.dimension, sign, potential, n_grid,
                                    m=num["m"])
    floor = "rank_one_bound" if problem.dimension == 2 else "minorant"
    cols = ("n", "center", "norm", floor, "nodes")
    return study.to_json_dict(), cols, study.rows


def _run_clr(cfg, problem, potential, num):
    beta_grid = cfg.get("study", {}).get("beta_grid", [2.0, 5.0, 20.0, 80.0])
    study = ex.clr_audit(problem, potential, beta_grid)
    cols = ("beta", "count", "bound", "violated")
    return study.to_json_dict(), cols, study.rows


def _run_dichotomy(cfg, problem, potential, num):
    # the suite's own default grid, unless the config sets one
    decades = cfg.get("numerics", {}).get("lambda_decades", ex.DICHOTOMY_DECADES)
    study = ex.dichotomy_suite(m=num["m"], decades=tuple(decades))
    payload = study.to_json_dict()
    if study.meta["indeterminate"]:
        raise IndeterminateError(
            f"{study.meta['indeterminate']} indeterminate verdicts in the dichotomy suite")
    cols = ("d", "bc", "potential", "verdict", "rate_exponent",
            "log_divergence", "growth_per_decade")
    return payload, cols, study.rows


RUNNERS = {
    "mu-curve": _run_mu_curve,
    "beta-cr": _run_beta_cr,
    "direct": _run_direct,
    "crosscheck": _run_crosscheck,
    "fkw": _run_fkw,
    "scaling": _run_scaling,
    "halfspace": _run_halfspace,
    "clr": _run_clr,
    "dichotomy": _run_dichotomy,
}


def run(subcommand: str, config_path: str, out_dir: str = ".",
        verbose: bool = False) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        problem = build_problem(cfg)
        potential = build_potential(cfg)
        num = _numerics(cfg)
        wants_family = subcommand in ("scaling", "halfspace")  # dichotomy: either
        if subcommand != "dichotomy" and wants_family != isinstance(
                potential, ScaledPotentialFamily):
            raise ValidationError(f"{subcommand} needs potential.kind "
                                  f"{'==' if wants_family else '!='} 'family'")
    except CONFIG_ERRORS as exc:
        _diagnostic("config-error", exc)
        return 1
    try:
        payload, columns, rows = RUNNERS[subcommand](cfg, problem, potential, num)
        _validate(payload, "report")
    except NUMERIC_ERRORS as exc:
        _diagnostic("numerical-failure", exc)
        return 2
    except ValidationError as exc:
        _diagnostic("config-error", exc)
        return 1
    except jsonschema.ValidationError as exc:  # a report the program got wrong
        _diagnostic("report-error", exc)
        return 2
    out_cfg = cfg.get("output", {})
    json_name = out_cfg.get("json", f"{subcommand}.json")
    csv_name = out_cfg.get("csv", f"{subcommand}.csv")
    try:
        write_json(os.path.join(out_dir, json_name), payload)
        write_csv(os.path.join(out_dir, csv_name), columns, rows)
    except OSError as exc:  # --out names a file, or the directory is not writable
        _diagnostic("output-error", exc)
        return 1
    if verbose:
        print(json.dumps({"subcommand": subcommand,
                          "artifacts": [json_name, csv_name]}))
    return 0


def _diagnostic(kind: str, exc: Exception):
    info = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, jsonschema.ValidationError):
        info["field"] = "/".join(str(p) for p in exc.absolute_path)
        info["message"] = exc.message
    details = getattr(exc, "details", None) or getattr(exc, "values", None)
    if details:
        info["details"] = {str(k): v for k, v in details.items()}
    print(json.dumps(info, sort_keys=True, default=str), file=sys.stderr)


class UsageError(Exception):
    """A command line argparse rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="betacrit",
        description="Coupling thresholds of exterior elliptic problems: "
                    "kernel spectra, direct solves, and scaling studies.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _diagnostic("usage-error", exc)
        return 1
    return run(args.subcommand, args.config, args.out, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
