"""Workload definitions, the pass runner and the output check.

A workload is a fixed list of jobs, one per shipped config, with only the
replicate counts (``seeds``) scaled down so that each layer keeps its shipped
share of the time.  One pass runs every job of a workload in this process, one
job after the other (a closed loop with one client), through
``ebib.cli.validate_config`` and ``ebib.cli.run_experiment``.  Pass ``r`` of a
run with workload seed ``s`` uses ``seed_base = (s + r) % SEED_BASES``; the
outputs of every seed base were recorded at the seed commit in
``reference.json.gz`` and each pass is checked against them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"

SEED_BASES = 4
# Largest relative difference of a numeric results.csv field that still
# counts as the same output; anything above it fails the job.
DRIFT_TOL = 1e-9

CLOSED_FORM = ("fig1-densities", "fig2-lasso-marginals", "kl-oracle",
               "markov-sparsity", "mmle-consistency", "credible-discrepancy")

# workload -> [(experiment, overrides of the shipped config)]
WORKLOADS = {
    "gibbs-samplers": [("table1-lasso", {"seeds": 2}), ("mixture-rate", {"seeds": 1})],
    "quadrature-closed-form": [("merging-rates", {"seeds": 4}),
                               ("predictive-rates", {"seeds": 4})]
                              + [(name, {}) for name in CLOSED_FORM],
}


def job_docs(root, workload, seed_base, out_dir):
    """Config documents of one pass, generated from ``<root>/configs``."""
    docs = []
    for name, overrides in WORKLOADS[workload]:
        with open(Path(root) / "configs" / f"{name}.json") as fh:
            doc = json.load(fh)
        doc.update(overrides, seed_base=seed_base,
                   output_dir=str(Path(out_dir) / name))
        docs.append(doc)
    return docs


def cpu_seconds():
    """User plus system CPU seconds of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(cli, docs, tracer=None, pass_id=0):
    """Run the jobs back to back; returns (wall_s, cpu_s, errors by job).

    A job that raises is recorded with its traceback and the pass goes on.
    """
    errors = {}
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.job = f"{pass_id}.{i}"
        try:
            cfg = cli.validate_config(doc)
            cli.run_experiment(cfg, cfg["output_dir"])
        except Exception:
            errors[doc["experiment"]] = traceback.format_exc()
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.job = None
    return wall, cpu, errors


# ---------------------------------------------------------------------------
# output check


def _field(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_results(csv_text):
    """(header, rows) of a results.csv; numeric fields become floats."""
    lines = csv_text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [[_field(v) for v in ln.split(",")] for ln in body[1:]]
    return header, rows


def read_job(out_dir):
    """(results.csv text, summary.passed) written by one job."""
    out_dir = Path(out_dir)
    csv_text = (out_dir / "results.csv").read_text()
    summary = json.loads((out_dir / "summary.json").read_text())
    return csv_text, summary["passed"]


def record(csv_text, passed):
    header, rows = parse_results(csv_text)
    return {"sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "passed": passed, "header": header, "rows": rows}


def _rel(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return 0.0 if a == b else 2.0
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return 2.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(ref, csv_text, passed):
    """Check one job's output against its reference record.

    Returns (ok, drift, identical).  ``drift`` is the largest relative
    difference |a-b|/max(|a|,|b|) over the numeric fields; a changed header,
    row count, text field or infinity/NaN pattern counts as 2, the largest
    value that ratio can take.  ``ok`` needs the same ``summary.passed`` and a
    drift no larger than DRIFT_TOL.
    """
    if hashlib.sha256(csv_text.encode()).hexdigest() == ref["sha256"]:
        return passed == ref["passed"], 0.0, True
    header, rows = parse_results(csv_text)
    if header != ref["header"] or len(rows) != len(ref["rows"]) or any(
            len(r) != len(s) for r, s in zip(rows, ref["rows"])):
        return False, 2.0, False
    drift = max((_rel(a, b) for r, s in zip(rows, ref["rows"]) for a, b in zip(r, s)),
                default=0.0)
    return passed == ref["passed"] and drift <= DRIFT_TOL, drift, False


def load_reference():
    with gzip.open(REFERENCE, "rt") as fh:
        return json.load(fh)


def check_pass(reference, docs, errors):
    """Per-job (ok, drift, identical) for one pass against the reference."""
    out = []
    for doc in docs:
        name = doc["experiment"]
        if name in errors:
            out.append((False, 2.0, False))
            continue
        try:
            csv_text, passed = read_job(doc["output_dir"])
        except (OSError, ValueError, KeyError):
            out.append((False, 2.0, False))
            continue
        ref = reference[str(doc["seed_base"])][name]
        out.append(compare(ref, csv_text, passed))
    return out


def quartiles(values):
    """(median, q1, q3) by the 'exclusive' method of statistics.quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def environment(blas_threads):
    """Machine and library record printed with every result."""
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads}
