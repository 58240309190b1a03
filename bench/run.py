"""End-to-end and per-layer benchmark of the betacrit CLI.

Usage, from the repository root:

    python3 bench/run.py --workload kernel_route --seed 1 --seconds 25 --trace 0

``--workload all`` runs each workload in its own process, one after the
other, and prints one table of the end-to-end metrics and ``failed_frac``.
One caller runs the workload's configs through ``betacrit.cli.run`` in a
closed loop: each config run starts when the previous one ends.  One pass
is every case of the workload once (studies: ``RERUNS`` times each into one
output directory).  A warm-up pass comes first; then passes repeat until
``--seconds`` have gone by.  Every run's report is checked; a run fails when
it exits non-zero or a check fails.

``--trace 0`` reports the end-to-end metrics (median pass wall and CPU
time, set-up time, peak memory).  ``--trace 1`` alternates untraced and
traced passes and reports per-layer calls, inclusive and self time, work
counts and the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are a readable summary.  Exit code 0 means
every output check passed, 1 that one failed, 2 that the run could not
start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 5

SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import betacrit.cli as c; "
    "c.load_schema('config'); c.load_schema('report'); "
    "print(time.perf_counter() - t)")

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fail_to_start(message: str) -> int:
    print(f"bench: cannot start: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Import-and-load-schemas time in fresh interpreters.

    One unrecorded child first, so bytecode caching is not counted.
    """
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                             env=_child_env(), capture_output=True, text=True,
                             timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(out_dir: str) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": version("jsonschema"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
            "out_fs": _fs_type(out_dir), "machine": platform.machine()}


def tail(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Runner:
    """Runs passes of one workload and checks every report."""

    def __init__(self, cli, cases, out_root: str):
        self.cli = cli
        self.cases = cases
        self.out_root = out_root
        self.tracer = None  # a layers.Tracer while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_walls: list[float] = []
        self.case_walls = {case.name: [] for case in cases}
        self.passes = 0

    def one_pass(self) -> tuple[float, float]:
        """Run every case once; returns (wall, cpu) seconds of the runs."""
        out = os.path.join(self.out_root, f"pass-{self.passes:03d}")
        self.passes += 1
        wall = cpu = 0.0
        for case in self.cases:
            case_out = os.path.join(out, case.name)
            for _ in range(case.reruns):
                w0, c0 = time.perf_counter(), time.process_time()
                if self.tracer is None:
                    code = self.cli.run(case.subcommand, case.path, case_out)
                else:
                    code = self.tracer.span(layers.ROOT, self.cli.run,
                                            case.subcommand, case.path, case_out)
                dw, dc = time.perf_counter() - w0, time.process_time() - c0
                wall += dw
                cpu += dc
                self.run_walls.append(dw)
                self.case_walls[case.name].append(dw)
                self._check(case, code, case_out)
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu

    def _check(self, case, code: int, out_dir: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                with open(os.path.join(out_dir, case.json_artifact)) as fh:
                    report = json.load(fh)
                problems = checks.CHECKS[case.subcommand](report, case.expect)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"report unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{case.name}: {p}" for p in problems]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(runner: Runner, seconds: float):
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        w, c = runner.one_pass()
        walls.append(w)
        cpus.append(c)
    return walls, cpus


def run_traced(runner: Runner, tracer: layers.Tracer, seconds: float):
    """Alternate untraced and traced passes; per-pass layer totals."""
    plain, traced, per_pass, counts = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 1 or len(plain) < 1 or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            runner.tracer = None
            plain.append(runner.one_pass()[0])
            continue
        restore = layers.install(tracer)
        runner.tracer = tracer
        mark, before = len(tracer.spans), dict(tracer.counts)
        try:
            traced.append(runner.one_pass()[0])
        finally:
            restore()
        per_pass.append(tracer.summary(mark))
        counts.append({k: tracer.counts.get(k, 0.0) - before.get(k, 0.0)
                       for k in layers.COUNTERS})
    return plain, traced, per_pass, counts


def layer_metrics(plain, traced, per_pass, counts, missing) -> dict:
    med = statistics.median
    metrics = {}
    for name in layers.SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(med(p[name]["calls"] for p in per_pass), "count")
        metrics[f"{name}.s"] = _metric(med(p[name]["s"] for p in per_pass), "s")
        metrics[f"{name}.self_s"] = _metric(med(p[name]["self_s"] for p in per_pass), "s")
    for layer in layers.LAYERS:
        metrics[f"layer.{layer}.self_s"] = _metric(med(
            sum(v["self_s"] for k, v in p.items() if k.startswith(layer + "."))
            for p in per_pass), "s")
    metrics["layer.unwrapped.self_s"] = _metric(
        med(p[layers.ROOT]["self_s"] for p in per_pass), "s")
    for name, unit in layers.COUNTERS.items():
        metrics[name] = _metric(med(c[name] for c in counts), unit)
    metrics["trace.overhead_s"] = _metric(med(traced) - med(plain), "s")
    metrics["trace.missing"] = _metric(len(missing), "count")
    return metrics


def run_all(args) -> int:
    """Every workload in its own process, one after another; one table."""
    rows, attempted, failed, merged = [], 0, 0, {}
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"{workload}: did not finish (exit {child.returncode})")
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            merged[f"{workload}.{name}"] = m
        rows.append((workload, result))
    if not args.trace:
        print(f"{'workload':14s} {'wall_s':>9s} {'cpu_s':>9s} {'setup_s':>9s} "
              f"{'peak_rss_mb':>11s} {'failed_frac':>11s}")
        for workload, r in rows:
            m = r["metrics"]
            print(f"{workload:14s} {m['wall_s']['value']:9.4f} {m['cpu_s']['value']:9.4f} "
                  f"{m['setup_s']['value']:9.4f} {m['peak_rss_mb']['value']:11.1f} "
                  f"{r['failed'] / r['attempted']:11.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "betacrit", "cli.py")):
        return _fail_to_start(f"no package source under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        return _fail_to_start("no shipped configs directory")
    if args.workload == "all":
        return run_all(args)
    try:
        setup = measure_setup()
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        return _fail_to_start(f"set-up probe failed: {exc}")
    sys.path.insert(0, SRC)
    import jsonschema
    from betacrit import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        return _fail_to_start(f"betacrit imported from {cli.__file__}, not {SRC}")

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cases = workloads.generate(ROOT, args.workload, args.seed)
    workloads.write_configs(cases, os.path.join(run_dir, "configs"),
                            cli.load_schema("config"), jsonschema.validate)
    env = environment(run_dir)
    tracer = layers.Tracer() if args.trace else None
    runner = Runner(cli, cases, os.path.join(run_dir, "out"))
    runner.one_pass()  # warm-up: checked, not timed
    if args.trace:
        plain, traced, per_pass, counts = run_traced(runner, tracer, args.seconds)
        metrics = layer_metrics(plain, traced, per_pass, counts, tracer.missing)
        with open(os.path.join(run_dir, "spans.jsonl"), "w") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
        walls = traced
    else:
        walls, cpus = run_untraced(runner, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": _metric(statistics.median(walls), "s"),
                   "cpu_s": _metric(statistics.median(cpus), "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mb": _metric(rss_mb, "MB")}

    failed_frac = runner.failed / runner.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "cases": len(cases), "passes": len(walls),
              "pass_wall_s": walls, "setup_samples_s": setup,
              "case_wall_s": runner.case_walls,
              "failed_frac": failed_frac, "problems": runner.problems,
              "missing_targets": tracer.missing if tracer else [],
              "metrics": metrics}
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(cases)} configs, {runner.attempted} runs "
          f"in {runner.passes} passes ({len(walls)} measured), "
          f"failed_frac {failed_frac:g} ({runner.failed}/{runner.attempted})")
    for label, values in (("pass wall_s", walls), ("run wall_s", runner.run_walls)):
        t = tail(values)
        tail_text = (f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile with ten "
                     "samples above it")
        print(f"{label}: median {statistics.median(values):.4f} s, {tail_text} "
              f"(n={len(values)})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for flagged in record["missing_targets"]:
        print(f"FLAG: traced target {flagged} not found; reported as zero calls")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
