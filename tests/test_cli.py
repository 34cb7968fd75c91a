import hashlib
import json
import math
import subprocess
import sys

import pytest

from ebib.cli import EXPERIMENTS, main, run_experiment, validate_config
from helpers import child_env


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_config_applies_defaults():
    cfg = validate_config({"experiment": "fig1-densities", "n": 12})
    assert cfg["n"] == 12
    assert cfg["sigma2"] == 1.0  # untouched default
    assert cfg["experiment"] == "fig1-densities"


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        validate_config({"experiment": "fig1-densities", "sigma": 1.0})


def test_validate_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown or missing experiment"):
        validate_config({"experiment": "nope"})
    with pytest.raises(ValueError):
        validate_config([1, 2])


def test_validate_config_rejects_bad_counts():
    with pytest.raises(ValueError, match="seeds"):
        validate_config({"experiment": "mmle-consistency", "seeds": 0})
    with pytest.raises(ValueError, match="nonempty"):
        validate_config({"experiment": "mmle-consistency", "n_grid": []})


def test_validate_config_types_follow_the_defaults():
    cfg = validate_config({"experiment": "fig1-densities", "theta0": 2,
                           "lambdas": [1, 2.5]})
    assert cfg["theta0"] == 2 and cfg["lambdas"] == [1, 2.5]
    for bad in ({"n": True}, {"n": 30.0}, {"theta0": False}, {"lambdas": 1.0},
                {"lambdas": ["a"]}, {"output_dir": 3}):
        with pytest.raises(ValueError):
            validate_config({"experiment": "fig1-densities", **bad})
    with pytest.raises(ValueError, match="transition"):
        validate_config({"experiment": "markov-sparsity",
                         "transition": [[0.5, 0.5], 1.0]})


# badly typed values: each used to end in an uncaught TypeError (exit 1)
BAD_TYPED = [
    {"experiment": "mmle-consistency", "seeds": 1.5},
    {"experiment": "fig1-densities", "n": "x"},
    {"experiment": "merging-rates", "n_grid": 5},
]


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("doc", BAD_TYPED, ids=lambda d: d["experiment"])
def test_badly_typed_config_exit_2(tmp_path, capsys, verb, doc):
    path = _write(tmp_path, {**doc, "output_dir": str(tmp_path / "out")})
    assert main([verb, path]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a non-string experiment used to end in TypeError: unhashable type (exit 1);
# NaN and infinities, which Python's json reads, in AttributeError (exit 1)
NON_FINITE_OR_BAD_NAME = [
    {"experiment": ["a"]},
    {"experiment": "fig1-densities", "theta0": math.nan},
    {"experiment": "fig1-densities", "sigma2": math.inf},
    {"experiment": "fig1-densities", "lambdas": [1.0, -math.inf]},
    {"experiment": "markov-sparsity",
     "transition": [[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, math.nan]]},
]


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("doc", NON_FINITE_OR_BAD_NAME,
                         ids=["experiment_list", "theta0_nan", "sigma2_inf",
                              "lambdas_inf", "transition_nan"])
def test_non_finite_or_unnamed_config_exit_2(tmp_path, capsys, verb, doc):
    path = _write(tmp_path, {**doc, "output_dir": str(tmp_path / "out")})
    assert main([verb, path]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# well-typed values out of range: each used to end in a traceback (exit 1)
# or, for the burn-in, in a runtime failure (exit 3)
BAD_VALUES = [
    {"experiment": "fig1-densities", "seed_base": -1},
    {"experiment": "merging-rates", "lam_pair": [1.0]},
    {"experiment": "fig1-densities", "n": 0},
    {"experiment": "table1-lasso", "gibbs_iters": 300, "gibbs_burnin": 300},
    {"experiment": "fig2-lasso-marginals", "coords": [0, 15]},
    {"experiment": "markov-sparsity", "transition": [[1.0]]},
    # rows off the simplex used to fail inside numpy's sampler (exit 1)
    {"experiment": "markov-sparsity",
     "transition": [[0.5, 0.6, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]]},
    {"experiment": "markov-sparsity",
     "transition": [[1.2, -0.2, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]]},
    # log log n is undefined at n = 1 and negative at n = 2 (exit 1 at n = 1)
    {"experiment": "mixture-rate", "n_grid": [1], "seeds": 1, "draws": 100},
    # geometric grids cannot include 0 (exit 1) or negative bounds (exit 3)
    {"experiment": "kl-oracle", "lam_lo": 0.0},
    {"experiment": "kl-oracle", "lam_lo": -1.0},
    {"experiment": "kl-oracle", "lam_hi": 0.0},
    {"experiment": "fig2-lasso-marginals", "lam_lo": 0.0},
    {"experiment": "mixture-rate", "lam_ref": 0.0},
    # one replicate has no standard error: NaN and a silent failed check
    {"experiment": "kl-oracle", "mc_reps": 1, "mc_configs": 2},
    # each of these used to pass validate and end in a runtime failure (exit 3)
    {"experiment": "fig1-densities", "sigma2": 0.0},
    {"experiment": "mmle-consistency", "sigma2": -1.0},
    {"experiment": "table1-lasso", "sigma2": -1.0},
    {"experiment": "table1-lasso", "init_lam": -1.0},
    {"experiment": "merging-rates", "lam_pair": [-1.0, 2.0]},
    {"experiment": "fig1-densities", "lambdas": [-1.0]},
    {"experiment": "credible-discrepancy", "lam_far": -1.0},
    {"experiment": "credible-discrepancy", "alpha": 0.0},
    {"experiment": "credible-discrepancy", "alpha": 1.5},
    {"experiment": "mixture-rate", "comp_var": 0.0},
    {"experiment": "mixture-rate", "loc_var": -1.0},
    {"experiment": "mixture-rate", "K": 1},
    {"experiment": "table1-lasso", "n_grid": [10]},
    {"experiment": "fig2-lasso-marginals", "n_grid": [5]},
    # a point-mass prior has no density to tabulate (exit 1)
    {"experiment": "fig1-densities", "lambdas": [0.0]},
    # each of these used to pass validate and end in a runtime failure (exit 3):
    # no profile point can reach an effective sample size of 50 from 49 draws,
    # and 6^8 allocations exceed the enumeration cap of the n = 8 cross-check,
    # which ran only after every profile
    {"experiment": "mixture-rate", "n_grid": [3], "seeds": 1, "draws": 49},
    {"experiment": "mixture-rate", "K": 6, "n_grid": [3], "seeds": 1, "draws": 100},
    # log lam* is undefined at theta0 = 0 (math domain error, exit 1), and the
    # merging ratio divides by a first-order prediction that is 0 at theta0 = 0
    # or lam1 = lam2 (ZeroDivisionError, exit 1)
    {"experiment": "kl-oracle", "theta0": 0.0},
    {"experiment": "merging-rates", "theta0": 0.0},
    {"experiment": "merging-rates", "lam_pair": [1.0, 1.0]},
    # lam* = theta0^2 overflowed (OverflowError, exit 1)
    {"experiment": "mmle-consistency", "theta0": 1e160},
]


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("doc", BAD_VALUES, ids=["seed_base", "lam_pair", "n",
                                                  "gibbs_burnin", "coords", "transition",
                                                  "transition_sum", "transition_negative",
                                                  "mixture_n", "kl_lam_lo_zero",
                                                  "kl_lam_lo_negative", "kl_lam_hi_zero",
                                                  "fig2_lam_lo_zero", "mixture_lam_ref_zero",
                                                  "mc_reps_one", "fig1_sigma2_zero",
                                                  "consistency_sigma2_negative",
                                                  "table1_sigma2_negative", "init_lam",
                                                  "lam_pair_negative", "lambdas_negative",
                                                  "lam_far", "alpha_zero", "alpha_above_one",
                                                  "comp_var", "loc_var", "mixture_K",
                                                  "table1_n_below_d", "fig2_n_below_d",
                                                  "lambdas_zero",
                                                  "mixture_draws_below_ess",
                                                  "mixture_K_past_enumeration_cap",
                                                  "kl_theta0_zero", "merging_theta0_zero",
                                                  "lam_pair_equal", "theta0_overflow"])
def test_out_of_range_config_exit_2(tmp_path, capsys, verb, doc):
    path = _write(tmp_path, {**doc, "output_dir": str(tmp_path / "out")})
    assert main([verb, path]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a closed-form lam_hat that truncates to 0 gives a point-mass posterior: each
# of these used to end in an AttributeError (exit 1)
POINT_MASS = [
    ({"experiment": "credible-discrepancy", "theta0": 0.1, "n_grid": [50], "seeds": 5},
     0, ""),
    ({"experiment": "fig1-densities", "theta0": 0.05}, 3,
     "runtime failure: dens_eb: a point-mass posterior has no density"),
]


@pytest.mark.parametrize("doc,code,err", POINT_MASS,
                         ids=[d["experiment"] for d, _, _ in POINT_MASS])
def test_point_mass_posterior_runs_or_exits_3(tmp_path, capsys, doc, code, err):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, {**doc, "output_dir": str(out)})]) == code
    assert err in capsys.readouterr().err
    if code == 0:
        # a point-mass build posterior brackets no mass of the Gaussian one
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert any(r.split(",")[2] == "-0.9" for r in rows)


def test_validate_config_value_bounds():
    for ok in ({"experiment": "fig2-lasso-marginals", "coords": [0]},
               {"experiment": "table1-lasso", "gibbs_burnin": 0},
               # the edges that still run: the point-mass far prior, n = d + 1
               # rows for the sampler and a square orthogonal design
               {"experiment": "credible-discrepancy", "lam_far": 0.0},
               {"experiment": "table1-lasso", "n_grid": [16]},
               {"experiment": "fig2-lasso-marginals", "n_grid": [15]}):
        validate_config(ok)
    for bad in ({"experiment": "fig2-lasso-marginals", "coords": [0, -1]},
                {"experiment": "mixture-rate", "n_grid": [100, 0]},
                {"experiment": "kl-oracle", "mc_reps": 0},
                {"experiment": "merging-rates", "lam_pair": [1.0, 2.0, 3.0]},
                {"experiment": "table1-lasso", "n_grid": [300, 15]},
                {"experiment": "merging-rates", "lam_pair": [1.0, 0.0]}):
        with pytest.raises(ValueError):
            validate_config(bad)


def test_mixture_rate_flags_argmax_on_the_grid_edge(tmp_path):
    cfg = validate_config({"experiment": "mixture-rate", "n_grid": [100, 400],
                           "seeds": 2, "draws": 1000})
    summary = run_experiment(cfg, str(tmp_path))
    flags = summary["details"]["argmax_at_grid_edge_by_n"]
    assert list(flags) == ["100", "400"]
    lam_ref = cfg["lam_ref"]
    edges = (lam_ref / 20.0, lam_ref)
    lines = (tmp_path / "results.csv").read_text().splitlines()[2:]
    rows = [(int(n), float(lam)) for n, _, lam in (ln.split(",") for ln in lines)]
    for n in (100, 400):
        hits = [any(math.isclose(lam, e) for e in edges) for m, lam in rows if m == n]
        assert flags[str(n)] == sum(hits) / len(hits)
    # the restricted grid cannot reach past lam_ref / 20, where the argmax sits
    assert max(flags.values()) == 1.0


def test_list_experiments_verb(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == sorted(EXPERIMENTS)
    assert "fig1-densities" in out


def test_validate_verb_ok(tmp_path, capsys):
    path = _write(tmp_path, {"experiment": "fig1-densities"})
    assert main(["validate", path]) == 0
    assert "ok: fig1-densities" in capsys.readouterr().out


def test_validate_verb_unknown_key_exit_2(tmp_path, capsys):
    path = _write(tmp_path, {"experiment": "fig1-densities", "bogus": 1})
    assert main(["validate", path]) == 2
    assert "validation error" in capsys.readouterr().err


def test_validate_verb_missing_file_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert "validation error" in capsys.readouterr().err


def test_run_empty_grid_rejected_before_compute(tmp_path, capsys):
    path = _write(tmp_path, {"experiment": "merging-rates", "n_grid": []})
    assert main(["run", path]) == 2


def test_run_runtime_failure_exit_3(tmp_path, capsys):
    # a valid config whose output directory lies below a regular file: the
    # experiment runs, writing its results raises OSError, harness reports 3
    (tmp_path / "file").write_text("")
    doc = {"experiment": "fig1-densities", "n": 25, "grid_points": 101,
           "output_dir": str(tmp_path / "file" / "out")}
    assert main(["run", _write(tmp_path, doc)]) == 3
    assert "runtime failure" in capsys.readouterr().err


def _fig1_doc(out_dir):
    return {"experiment": "fig1-densities", "n": 25, "grid_points": 101,
            "output_dir": str(out_dir)}


def test_run_writes_results_and_summary(tmp_path, capsys):
    out = tmp_path / "fig1"
    path = _write(tmp_path, _fig1_doc(out))
    assert main(["run", path]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["experiment"] == "fig1-densities" and line["passed"] is True

    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config_hash=")
    assert "seed_base=" in csv_lines[0] and "version=" in csv_lines[0]
    header = csv_lines[1].split(",")
    assert header[0] == "x" and "dens_eb" in header and "dens_oracle" in header
    assert len(csv_lines) == 2 + 101

    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config_hash"] == line["config_hash"]
    assert summary["details"]["lam_star"] == pytest.approx(4.0)


def test_run_is_byte_identical_on_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", _write(tmp_path, _fig1_doc(out1), "c1.json")]) == 0
    assert main(["run", _write(tmp_path, _fig1_doc(out2), "c2.json")]) == 0
    r1 = (out1 / "results.csv").read_bytes()
    r2 = (out2 / "results.csv").read_bytes()
    assert r1 == r2


def test_output_root_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EBIB_OUTPUT_ROOT", str(tmp_path / "root"))
    doc = {"experiment": "fig1-densities", "n": 25, "grid_points": 101}
    assert main(["run", _write(tmp_path, doc)]) == 0
    target = tmp_path / "root" / "results" / "fig1-densities"
    assert (target / "results.csv").exists()
    assert (target / "summary.json").exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ebib.cli", "list-experiments"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "markov-sparsity" in proc.stdout


def test_shipped_configs_cover_all_experiments_and_validate():
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = set()
    for path in sorted(cfg_dir.glob("*.json")):
        cfg = validate_config(json.loads(path.read_text()))
        names.add(cfg["experiment"])
    assert names == set(EXPERIMENTS)


def _scipy_modules(code, *args):
    """Names of the scipy modules loaded by ``code`` in a fresh interpreter,
    which must end by printing them as a JSON list."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("print(json.dumps(sorted(m for m in sys.modules\n"
           "                        if m == 'scipy' or m.startswith('scipy.'))))\n")


def test_cli_import_and_validation_load_no_scipy():
    # importing scipy's subpackages costs about half a second and 40 MB, and
    # most experiments call none of them: each loads where it is called
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    code = (
        "import json, pathlib, sys\n"
        "import ebib.cli\n"
        f"for path in sorted(pathlib.Path({str(cfg_dir)!r}).glob('*.json')):\n"
        "    ebib.cli.validate_config(json.loads(path.read_text()))\n" + _LOADED
    )
    assert _scipy_modules(code) == []


RUN_AND_LIST = ("import json, sys\n"
                "import ebib.cli\n"
                "doc = ebib.cli.validate_config(json.loads(sys.argv[1]))\n"
                "ebib.cli.run_experiment(doc, sys.argv[2])\n" + _LOADED)


# a tiny run of each experiment, and the scipy subpackages it must not load
IMPORT_BUDGET = [
    ({"experiment": "mixture-rate", "n_grid": [20], "seeds": 1, "draws": 200},
     ("scipy",)),
    ({"experiment": "kl-oracle", "n": 100, "mc_configs": 2, "mc_reps": 10},
     ("scipy",)),
    ({"experiment": "table1-lasso", "n_grid": [30], "seeds": 1, "gibbs_iters": 60,
      "gibbs_burnin": 20, "em_steps": 2},
     ("scipy.optimize", "scipy.special")),
]


@pytest.mark.parametrize("doc,forbidden", IMPORT_BUDGET,
                         ids=[d["experiment"] for d, _ in IMPORT_BUDGET])
def test_run_loads_only_the_scipy_it_calls(tmp_path, doc, forbidden):
    loaded = _scipy_modules(RUN_AND_LIST, json.dumps(doc), str(tmp_path))
    assert (tmp_path / "results.csv").exists()
    hits = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert hits == []


# results.csv of every replicate experiment at small sizes, pinned by sha256
# before the seed loops moved into one runner; each document exercises its
# stream keys ("table1" and "gibbs", "cons", "merge", "pred", "cred",
# "mixrate" and "mixprof") at two n and two seeds; markov-sparsity, the M4
# prior oracle and row-wise MMLE, at shipped size; and, pinned before the
# family interface lost its capability flags, the three single-dataset
# experiments at small sizes
PINNED = [
    ({"experiment": "table1-lasso", "n_grid": [30, 50], "seeds": 2,
      "gibbs_iters": 60, "gibbs_burnin": 20, "em_steps": 2},
     "019e0a374165d1a9e1ec4ffb5071d74bab69e87794534e7d9636187f6b0164dd"),
    ({"experiment": "mmle-consistency", "n_grid": [20, 80], "seeds": 2},
     "741e18dfd9bfe39197fd56b11a86383411f6454b2fcc01cc57dcb15d74db3503"),
    ({"experiment": "merging-rates", "n_grid": [20, 80], "seeds": 2},
     "994137dd30fb13f79db1212a814cb785883c064110f229d258af47e2ef6cd455"),
    ({"experiment": "predictive-rates", "n_grid": [20, 80], "seeds": 2},
     "06a7f9ced9dcec6d0a861df877f387313e417bcb45fe4b034a22a4f443978bcd"),
    ({"experiment": "credible-discrepancy", "n_grid": [20, 80], "seeds": 2},
     "41870420b8e6561006a41c140e79e3bbc2792ea753cbf3969b715de8842601ed"),
    ({"experiment": "mixture-rate", "n_grid": [20, 40], "seeds": 2, "draws": 200},
     "84769b641ff84fb2141a3da298ea073430a8aadd3d0cff3810f4a3641285be57"),
    ({"experiment": "markov-sparsity"},
     "60de9de2f6f2800e38cfb52b28e9d681009fe4d3c9704ce263c3bc8c187462e3"),
    ({"experiment": "fig1-densities", "n": 25, "grid_points": 101,
      "lambdas": [0.5, 2.0]},
     "3dfa1125c5b8cafc2be09c54ade523e1d0512b2ca79831aacd2ec107811b2842"),
    ({"experiment": "fig2-lasso-marginals", "n_grid": [20, 60], "coords": [0, 13],
      "lam_points": 13, "grid_points": 51},
     "79cacac1fd67ff1149308d860f766eba6bd69f33308593e173f9c0d420badad2"),
    ({"experiment": "kl-oracle", "n": 200, "lam_points": 9, "mc_configs": 4,
      "mc_reps": 20},
     "e0edf280f26ae75ee7b78cdabc512bf683c34c77dd9876daf905b70036ae6342"),
]


@pytest.mark.parametrize("doc,sha256", PINNED, ids=[d["experiment"] for d, _ in PINNED])
def test_replicate_experiment_results_are_pinned(tmp_path, doc, sha256):
    summary = run_experiment(validate_config(doc), str(tmp_path))
    data = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256
    if doc["experiment"] == "table1-lasso":
        n_max = max(doc["n_grid"])
        flags = [int(ln.split(",")[4]) for ln in data.decode().splitlines()[2:]
                 if int(ln.split(",")[0]) == n_max]
        assert summary["details"]["em_converged_frac"] == sum(flags) / len(flags)
