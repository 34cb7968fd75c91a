"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_cli()


def _bindings():
    """Every attribute of every ebib module and of every ebib class."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ebib" or mod_name.startswith("ebib.")):
            continue
        for key, value in vars(mod).items():
            snap[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("ebib"):
                for attr, member in vars(value).items():
                    snap[(mod_name, key, attr)] = member
    return snap


def _docs(tmp_path, workload, experiments, seed_base=0):
    return [d for d in bench.job_docs(run.ROOT, workload, seed_base, tmp_path)
            if d["experiment"] in experiments]


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    docs = _docs(tmp_path, "quadrature-closed-form", {"markov-sparsity"})
    with Tracer():
        wrapped = sys.modules["ebib.marginal"].log_marginal
        assert wrapped is not before[("ebib.marginal", "log_marginal")]
        for mod in ("ebib.kl", "ebib.mmle", "ebib.cli"):
            assert sys.modules[mod].log_marginal is wrapped
        _, _, errors = bench.run_pass(cli, docs)
        assert not errors
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []


def test_self_time_is_never_negative_and_partitions_the_job(tmp_path):
    docs = _docs(tmp_path, "quadrature-closed-form", {"markov-sparsity", "credible-discrepancy"})
    tracer = Tracer()
    with tracer:
        _, _, errors = bench.run_pass(cli, docs, tracer)
    assert not errors
    totals, counts = tracer.take()
    assert min(s[4] for s in tracer.spans) >= 0.0
    assert min(self_s for _, self_s in totals.values()) >= 0.0
    roots = [s for s in tracer.spans if s[5] == -1]
    assert [s[1] for s in roots] == ["cli.run_experiment"] * len(docs)
    root_s = sum(s[3] - s[2] for s in roots)
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(root_s, rel=1e-9)
    assert totals["marginal.markov_log_marginal"][0] > 0
    assert counts["mmle.mmle_continuous.iters"] > 0


def test_one_digit_edit_to_results_csv_is_caught(tmp_path):
    reference = bench.load_reference()["quadrature-closed-form"]
    docs = _docs(tmp_path, "quadrature-closed-form", {"mmle-consistency"})
    _, _, errors = bench.run_pass(cli, docs)
    assert bench.check_pass(reference, docs, errors) == [(True, 0.0, True)]

    csv_path = Path(docs[0]["output_dir"]) / "results.csv"
    original = csv_path.read_text()
    lines = original.splitlines(keepends=True)
    fields = lines[2].split(",")  # first data row: n,seed,lam_hat,abs_err
    for pos, edit_at in (("leading", 0), ("last", len(fields[2]) - 1)):
        digit = fields[2][edit_at]
        assert digit.isdigit()
        value = fields[2][:edit_at] + str((int(digit) + 1) % 10) + fields[2][edit_at + 1:]
        edited = lines[:2] + [",".join(fields[:2] + [value] + fields[3:])] + lines[3:]
        csv_path.write_text("".join(edited))
        [(ok, drift, identical)] = bench.check_pass(reference, docs, {})
        assert not identical and drift > 0.0, pos
        if pos == "leading":
            assert not ok and drift > bench.DRIFT_TOL
    csv_path.write_text(original)
    assert bench.check_pass(reference, docs, {})[0][0]


def test_setup_runs_in_a_fresh_interpreter(tmp_path):
    assert "ebib.cli" in sys.modules
    docs = bench.job_docs(run.ROOT, "gibbs-samplers", 0, tmp_path)
    seconds, info = run.measure_setup(docs)
    assert seconds > 0.0
    assert info["pid"] != os.getpid()
    assert info["preloaded"] is False
    assert Path(info["module"]).resolve().parent == run.SRC / "ebib"


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
