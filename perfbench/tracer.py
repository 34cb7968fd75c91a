"""Outside-in tracer for the ebib layers.

The tracer lives entirely in the benchmark: it replaces each traced public
function with a timing wrapper at every binding inside the ``ebib`` package
(``cli``, ``kl``, ``mmle`` and ``merging`` import names directly, so patching
only the defining module would miss their calls) and restores the originals
on exit.  Each call becomes a span (name, start, end, self time, parent, job
id) held in memory; the benchmark writes the spans out when it ends.  A
span's self time is its duration minus the durations of its direct child
spans.

A target that the traced ebib no longer defines is skipped and listed in
``Tracer.missing``, so its metrics read 0 instead of the run failing.

The three hottest leaf functions (``numerics.log_gamma``,
``GaussianPosterior.pdf`` and ``rng.stream``) are called millions of times
per pass, so their calls are counted and timed but not kept as spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

HOT = frozenset({"numerics.log_gamma", "posteriors.GaussianPosterior.pdf",
                 "rng.stream"})


def _gibbs_sweeps(name):
    def count(counts, bound, result):
        counts[name + ".sweeps"] += bound.arguments["cfg"].iters
    return count


def _em(counts, bound, result):
    counts["mmle.lasso_mmle_em.steps"] += result.iterations
    counts["mmle.lasso_mmle_em.converged"] += int(result.converged)


def _grid(counts, bound, result):
    counts["mmle.mmle_grid.points"] += result.iterations


def _continuous(counts, bound, result):
    counts["mmle.mmle_continuous.iters"] += result.iterations


def _profile(counts, bound, result):
    counts["marginal.mixture_marginal_profile.points"] += len(result)
    counts["marginal.mixture_marginal_profile.reliable"] += sum(
        bool(r["reliable"]) for r in result)


# (module, attribute, span name, counter taking the bound arguments and result)
TARGETS = (
    ("ebib.cli", "run_experiment", "cli.run_experiment", None),
    ("ebib.numerics", "integrate", "numerics.integrate", None),
    ("ebib.numerics", "log_gamma", "numerics.log_gamma", None),
    ("ebib.posteriors", "GaussianPosterior.pdf", "posteriors.GaussianPosterior.pdf", None),
    ("ebib.merging", "l1_distance", "merging.l1_distance", None),
    ("ebib.merging", "credible_discrepancy", "merging.credible_discrepancy", None),
    ("ebib.samplers", "gibbs_lasso", "samplers.gibbs_lasso",
     _gibbs_sweeps("samplers.gibbs_lasso")),
    ("ebib.samplers", "gibbs_mixture_weights", "samplers.gibbs_mixture_weights",
     _gibbs_sweeps("samplers.gibbs_mixture_weights")),
    ("ebib.samplers", "effective_sample_size", "samplers.effective_sample_size", None),
    ("ebib.samplers", "simulate", "samplers.simulate", None),
    ("ebib.mmle", "lasso_mmle_em", "mmle.lasso_mmle_em", _em),
    ("ebib.mmle", "mmle_grid", "mmle.mmle_grid", _grid),
    ("ebib.mmle", "mmle_continuous", "mmle.mmle_continuous", _continuous),
    ("ebib.marginal", "mixture_marginal_profile", "marginal.mixture_marginal_profile",
     _profile),
    ("ebib.marginal", "mixture_marginal_exact", "marginal.mixture_marginal_exact", None),
    ("ebib.marginal", "log_marginal", "marginal.log_marginal", None),
    ("ebib.marginal", "markov_log_marginal", "marginal.markov_log_marginal", None),
    ("ebib.kl", "kl_monte_carlo", "kl.kl_monte_carlo", None),
    ("ebib.kl", "kl_exact_gaussian", "kl.kl_exact_gaussian", None),
    ("ebib.rng", "stream", "rng.stream", None),
)

# every family class that defines its own ``posterior`` is traced as this span
POSTERIOR = "models.posterior"
INTEGRATE = "numerics.integrate"


class Tracer:
    """Context manager that traces the ebib layers while it is active.

    ``job`` is stamped on every span opened while it is set.  ``take()``
    returns and resets the per-name aggregates (calls, self seconds) and the
    work counters, so the caller can attribute them to one pass.
    """

    def __init__(self):
        self.job = None
        self.spans = []        # (id, name, start, end, self_s, parent id, job)
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counts = Counter()
        self._stack = []       # open frames: [child seconds, span id]
        self._next_id = 0
        self._patched = []     # (owner, attribute, original)
        self.missing = []      # targets this version of ebib does not define

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ebib" or n.startswith("ebib.")) and m is not None]
        for mod_name, attr, name, count in TARGETS:
            owner = sys.modules.get(mod_name)
            *cls_name, key = attr.split(".")
            if cls_name and owner is not None:
                owner = getattr(owner, cls_name[0], None)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if cls_name:
                self._patch(owner, key, self._wrap(name, original, count))
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
        models = sys.modules["ebib.models"]
        for value in list(vars(models).values()):
            if isinstance(value, type) and "posterior" in value.__dict__:
                self._patch(value, "posterior",
                            self._wrap(POSTERIOR, value.__dict__["posterior"], None))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)
        return False

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self
        keep_span = name not in HOT
        signature = inspect.signature(fn) if count else None
        count_evals = name == INTEGRATE
        evals_key = INTEGRATE + ".evals"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_evals:
                args = (_counted(args[0], tracer.counts, evals_key),) + args[1:]
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                total = tracer.totals[name]
                total[0] += 1
                total[1] += self_s
                if keep_span:
                    tracer.spans.append((span_id, name, start, end, self_s, parent,
                                         tracer.job))
            if count is not None:
                count(tracer.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def take(self):
        """Return and reset ({name: (calls, self_s)}, counters)."""
        totals = {k: tuple(v) for k, v in self.totals.items()}
        counts = dict(self.counts)
        self.totals.clear()
        self.counts.clear()
        return totals, counts

    def write_spans(self, path):
        """Write the recorded spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,self_s,parent,job\n")
            for span_id, name, start, end, self_s, parent, job in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{self_s:.9f},"
                         f"{parent},{job}\n")


def _counted(f, counts, key):
    def integrand(x):
        counts[key] += 1
        return f(x)
    return integrand

