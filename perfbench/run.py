"""Benchmark of the ebib experiment layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gibbs-samplers --seed 0 --seconds 55 --trace 0

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs untraced passes of the workload for about ``--seconds`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes on the same seed base and reports the per-layer metrics and the
tracing overhead.  Every job of every pass is checked against the outputs
recorded at the seed commit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported anywhere: one BLAS thread (<= nproc), which keeps
# small 2-core machines steady and matches how the reference outputs were made.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import bench  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3

# A fresh interpreter imports ebib.cli and validates the workload's configs;
# it prints when it is ready, so interpreter teardown is not counted.
SETUP_CODE = r"""
import json, os, sys, time
preloaded = "ebib" in sys.modules
sys.path.insert(0, sys.argv[1])
import ebib.cli
for doc in json.loads(sys.argv[2]):
    ebib.cli.validate_config(doc)
print(json.dumps({"ready": time.time(), "pid": os.getpid(),
                  "preloaded": preloaded, "module": ebib.cli.__file__}))
"""

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

EXPERIMENTS = tuple(name for jobs in bench.WORKLOADS.values() for name, _ in jobs)
CALLS_AND_SELF = (
    "numerics.integrate", "posteriors.GaussianPosterior.pdf", "merging.l1_distance",
    "merging.credible_discrepancy", "mmle.lasso_mmle_em",
    "marginal.mixture_marginal_profile", "marginal.mixture_marginal_exact",
    "numerics.log_gamma", "samplers.effective_sample_size", "marginal.log_marginal",
    "marginal.markov_log_marginal", "mmle.mmle_grid", "mmle.mmle_continuous",
    "kl.kl_monte_carlo", "samplers.simulate", "rng.stream", "models.posterior",
)
SAMPLERS = ("samplers.gibbs_lasso", "samplers.gibbs_mixture_weights")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SAMPLERS:
        units[f"{name}.sweeps"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_sweep"] = "us"
    units.update({
        "numerics.integrate.evals": "count",
        "mmle.lasso_mmle_em.steps": "count",
        "mmle.lasso_mmle_em.converged_frac": "ratio",
        "mmle.mmle_grid.points": "count",
        "mmle.mmle_continuous.iters": "count",
        "marginal.mixture_marginal_profile.reliable_frac": "ratio",
        "kl.kl_exact_gaussian.calls": "count",
        "cli.self_s": "s",
    })
    for exp in EXPERIMENTS:
        units[f"cli.run_experiment.{exp}.s"] = "s"
    units.update({"trace_overhead": "ratio", "fail_frac": "ratio",
                  "drift_max_rel": "ratio", "bytes_identical_frac": "ratio"})
    return units


def _frac(num, den):
    return num / den if den else 0.0


def layer_values(totals, counts, spans, docs):
    """Per-layer values of one traced pass."""
    calls = {k: v[0] for k, v in totals.items()}
    self_s = {k: v[1] for k, v in totals.items()}
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SAMPLERS:
        sweeps = counts.get(f"{name}.sweeps", 0)
        out[f"{name}.sweeps"] = sweeps
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.us_per_sweep"] = 1e6 * _frac(self_s.get(name, 0.0), sweeps)
    out["numerics.integrate.evals"] = counts.get("numerics.integrate.evals", 0)
    out["mmle.lasso_mmle_em.steps"] = counts.get("mmle.lasso_mmle_em.steps", 0)
    out["mmle.lasso_mmle_em.converged_frac"] = _frac(
        counts.get("mmle.lasso_mmle_em.converged", 0), calls.get("mmle.lasso_mmle_em", 0))
    out["mmle.mmle_grid.points"] = counts.get("mmle.mmle_grid.points", 0)
    out["mmle.mmle_continuous.iters"] = counts.get("mmle.mmle_continuous.iters", 0)
    out["marginal.mixture_marginal_profile.reliable_frac"] = _frac(
        counts.get("marginal.mixture_marginal_profile.reliable", 0),
        counts.get("marginal.mixture_marginal_profile.points", 0))
    out["kl.kl_exact_gaussian.calls"] = calls.get("kl.kl_exact_gaussian", 0)
    out["cli.self_s"] = self_s.get("cli.run_experiment", 0.0)
    per_exp = dict.fromkeys(EXPERIMENTS, 0.0)
    for _, name, start, end, _, _, job in spans:
        if name == "cli.run_experiment":
            per_exp[docs[int(job.split(".")[1])]["experiment"]] += end - start
    for exp, seconds in per_exp.items():
        out[f"cli.run_experiment.{exp}.s"] = seconds
    return out


def measure_setup(docs):
    """Seconds from spawning a fresh interpreter until it is ready, and its report."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(docs)],
                          capture_output=True, text=True, timeout=150, check=True)
    info = json.loads(proc.stdout.splitlines()[-1])
    return info["ready"] - t0, info


def import_cli():
    """Import ebib.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ebib.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ebib":
        raise ImportError(f"ebib.cli came from {cli.__file__}, not {SRC}")
    return cli


class Checks:
    """Output-check tally over every job run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.identical = 0
        self.drift = 0.0

    def add(self, docs, errors):
        for name, tb in errors.items():
            print(f"job {name} raised:\n{tb}", file=sys.stderr)
        for doc, (ok, drift, identical) in zip(
                docs, bench.check_pass(self.reference, docs, errors)):
            self.attempted += 1
            self.failed += not ok
            self.identical += identical
            self.drift = max(self.drift, drift)
            if not ok:
                print(f"output check failed: {doc['experiment']} "
                      f"seed_base={doc['seed_base']} drift={drift:.3g}", file=sys.stderr)


def _stop(start, seconds, pass_times, done, min_done):
    typical = bench.quartiles(pass_times)[0]
    return done >= min_done and time.perf_counter() + typical > start + seconds


def run_untraced(cli, workload, seed, seconds, out_dir, checks):
    start = time.perf_counter()
    docs = bench.job_docs(ROOT, workload, seed % bench.SEED_BASES, out_dir)
    setup = [measure_setup(docs)[0] for _ in range(SETUP_REPEATS)]
    walls, cpus = [], []
    r = 0
    while True:
        docs = bench.job_docs(ROOT, workload, (seed + r) % bench.SEED_BASES, out_dir)
        wall, cpu, errors = bench.run_pass(cli, docs)
        checks.add(docs, errors)
        walls.append(wall)
        cpus.append(cpu)
        r += 1
        if _stop(start, seconds, walls, r, MIN_PASSES):
            break
    return {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
            "peak_rss_mb": [bench.peak_rss_mb()]}


def run_traced(cli, workload, seed, seconds, out_dir, checks, spans_path):
    from tracer import Tracer

    start = time.perf_counter()
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    r = 0
    while True:
        docs = bench.job_docs(ROOT, workload, (seed + r) % bench.SEED_BASES, out_dir)
        wall, _, errors = bench.run_pass(cli, docs)
        checks.add(docs, errors)
        untraced.append(wall)
        first_span = len(tracer.spans)
        with tracer:
            wall, _, errors = bench.run_pass(cli, docs, tracer, pass_id=r)
        checks.add(docs, errors)
        traced.append(wall)
        totals, counts = tracer.take()
        layers.append(layer_values(totals, counts, tracer.spans[first_span:], docs))
        r += 1
        pair = [u + t for u, t in zip(untraced, traced)]
        if _stop(start, seconds, pair, r, 1):
            break
    if tracer.missing:
        print("not traced, absent from this ebib:", ", ".join(tracer.missing))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    samples = {k: [v[k] for v in layers] for k in layers[0]}
    samples["trace_overhead"] = [bench.quartiles(traced)[0] / bench.quartiles(untraced)[0]]
    return samples, {"traced_wall_s": traced, "untraced_wall_s": untraced}


def report(samples, units):
    """Print the metric table and return {name: {"value", "unit"}} of medians."""
    print(f"{'metric':52s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    metrics = {}
    for name, unit in units.items():
        med, q1, q3 = bench.quartiles(samples[name])
        print(f"{name:52s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(samples[name]):3d}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        cli = import_cli()
        reference = bench.load_reference()[args.workload]
    except (ImportError, OSError, ValueError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    env = bench.environment(BLAS_THREADS)
    print("environment:", json.dumps(env))

    out_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    checks = Checks(reference)
    try:
        if args.trace:
            spans_path = (ROOT / ".perfbench_out"
                          / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            samples, walls = run_traced(cli, args.workload, args.seed, args.seconds,
                                        out_dir, checks, spans_path)
            print("pass wall seconds:", json.dumps(walls))
            print("spans written to", spans_path.relative_to(ROOT))
            units = per_layer_units()
        else:
            samples = run_untraced(cli, args.workload, args.seed, args.seconds,
                                   out_dir, checks)
            units = dict(END_TO_END)
            print("pass seconds:", json.dumps({k: samples[k] for k in ("wall_s", "cpu_s")}))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    samples["fail_frac"] = [checks.failed / checks.attempted]
    samples["drift_max_rel"] = [checks.drift]
    samples["bytes_identical_frac"] = [checks.identical / checks.attempted]
    print(f"workload={args.workload} seed={args.seed} jobs={checks.attempted} "
          f"failed={checks.failed} fail_frac={samples['fail_frac'][0]:.6g} "
          f"drift_max_rel={checks.drift:.6g} "
          f"bytes_identical_frac={samples['bytes_identical_frac'][0]:.6g}")
    metrics = report(samples, units)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
