"""Span tracer for the benchmark's traced runs.

The tracer patches modelkit's public functions, the ``Params`` methods and
the element callables of every model the catalog, the simulators, the
transforms and the KDE smoother build.  modelkit calls its own functions
through module attributes (``core.row_log_likelihood``, ``solvers.metropolis``,
``distributions.pmf_model``), so internal calls are caught as well as the
benchmark's own.  Nothing in ``src/`` changes, and untraced runs install no
wrappers.

Spans are aggregated into a call tree while the run goes: one node per
(parent node, span key), holding calls, rows, total and child time.  A node's
self time is its total minus the time of its children.  The tree stays in
memory and is written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time

import numpy as np

# Strategy names as resolve() spells them, mapped to metric-safe names.
_STRATEGY = {"closed-form": "closed-form", "cdf-delta": "cdf-delta",
             "memoized PMF": "memoized-pmf", "cdf-inversion": "cdf-inversion",
             "metropolis": "metropolis", "empirical draws": "empirical-draws",
             "unresolvable": "unresolvable"}
_ELEMENTS = ("logl", "logl_joint", "est", "rng", "cdf", "constraint")
_ROW_ELEMENTS = ("logl", "rng", "cdf")

CATALOG = ("normal", "exponential", "poisson", "beta", "weibull", "uniform",
           "mvn", "pmf")
TRANSFORMS = ("fix", "cross", "mix", "mix_cdf", "truncate", "jacobian", "swap",
              "d_compose", "dp_compose", "pd_compose")
SIMS = ("search_sim", "demand_sim", "network_sim")
# model-layer span keys reported with calls and rows; STRATEGY_SELF also with self time
STRATEGY_KEYS = ("L.closed-form", "L.cdf-delta", "L.memoized-pmf",
                 "RNG.closed-form", "RNG.cdf-inversion", "RNG.metropolis",
                 "CDF.closed-form", "CDF.empirical-draws")
STRATEGY_SELF = ("L.cdf-delta", "L.memoized-pmf", "RNG.cdf-inversion",
                 "RNG.metropolis", "CDF.empirical-draws")


class _Node:
    __slots__ = ("key", "children", "calls", "rows", "total", "child")

    def __init__(self, key):
        self.key = key
        self.children = {}
        self.calls = 0
        self.rows = 0
        self.total = 0.0
        self.child = 0.0

    def to_json(self):
        return {"key": self.key, "calls": self.calls, "rows": self.rows,
                "total_s": self.total, "self_s": self.total - self.child,
                "children": [c.to_json() for c in self.children.values()]}


def _label_kind(label: str) -> str:
    return label.split("(", 1)[0]


def _rows_of(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) >= 1 else 1


class Tracer:
    """Call-tree span recorder plus the counters the ratios need."""

    def __init__(self):
        self.root = _Node("root")
        self.stack = [self.root]
        self.counts: dict[str, float] = {}
        self.chains: list[np.ndarray] = []

    # -- span core ---------------------------------------------------------
    def enter(self, key: str) -> _Node:
        parent = self.stack[-1]
        node = parent.children.get(key)
        if node is None:
            node = parent.children[key] = _Node(key)
        self.stack.append(node)
        return node

    def leave(self, node: _Node, dt: float, rows: int):
        self.stack.pop()
        node.calls += 1
        node.rows += rows
        node.total += dt
        self.stack[-1].child += dt

    def top_key(self) -> str:
        return self.stack[-1].key

    def add(self, name: str, v: float = 1.0):
        self.counts[name] = self.counts.get(name, 0.0) + v

    def span(self, fn, key: str, rows_arg: int | None = None):
        """Wrap fn in a fixed-key span; rows come from positional rows_arg."""
        if rows_arg is None:
            return self.keyed(fn, lambda a, kw: (key, 0))
        return self.keyed(fn, lambda a, kw: (
            key, _rows_of(a[rows_arg]) if len(a) > rows_arg else 0))

    def keyed(self, fn, key_of, after=None):
        """Wrap fn in a span whose key and rows depend on the arguments.

        key_of(args, kwargs) -> (key, rows); after(args, kwargs, result) runs
        outside the timed interval to update counters.
        """
        enter, leave, clock = self.enter, self.leave, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = clock()
            key, rows = key_of(a, kw)
            node = enter(key)
            try:
                out = fn(*a, **kw)
            finally:
                leave(node, clock() - t0, rows)
            if after is not None:
                after(a, kw, out)
            return out

        return wrapper

    # -- output ------------------------------------------------------------
    def walk(self):
        todo = [self.root]
        while todo:
            n = todo.pop()
            if n is not self.root:
                yield n
            todo.extend(n.children.values())

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump({"tree": self.root.to_json(), "counts": self.counts,
                       **extra}, fh)


# ---------------------------------------------------------------------------
# Installation


def _rebind(orig, new, modules):
    """Point every modelkit name bound to orig at new."""
    for mod in modules:
        d = vars(mod)
        for name, val in list(d.items()):
            if val is orig:
                setattr(mod, name, new)


def _wrap_model_elements(tr: Tracer, m, prefix: str):
    """Wrap a freshly built model's element callables in prefix.<element> spans."""
    for el in _ELEMENTS:
        fn = getattr(m, el)
        if fn is None:
            continue
        rows_arg = {"logl": 0, "cdf": 0}.get(el)
        if el == "rng":
            def rng_rows(a, kw, _k=f"{prefix}.rng"):
                n = a[2] if len(a) > 2 else kw.get("n", 1)
                return _k, int(n)
            setattr(m, el, tr.keyed(fn, rng_rows))
        else:
            setattr(m, el, tr.span(fn, f"{prefix}.{el}", rows_arg))
    return m


def _traced_ctor(tr: Tracer, ctor, prefix_of):
    @functools.wraps(ctor)
    def build(*a, **kw):
        m = ctor(*a, **kw)
        return _wrap_model_elements(tr, m, prefix_of(m))
    return build


def install() -> Tracer:
    """Patch modelkit in place and return the tracer that records its spans."""
    from modelkit import (cli, data, distributions, expr, inference, model,
                          sims, solvers, transforms)
    from modelkit.data import McmcSettings

    tr = Tracer()
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "modelkit" or n.startswith("modelkit.")]

    def patch(mod, name, new):
        _rebind(getattr(mod, name), new, mods)

    # data: every Params method, plus DataSet and RandomStream entry points
    P = data.Params
    for name, attr in list(vars(P).items()):
        if name == "__repr__":
            continue
        key = f"data.Params.{name.strip('_')}"
        if isinstance(attr, classmethod):
            setattr(P, name, classmethod(tr.span(attr.__func__, key)))
        elif isinstance(attr, property):
            setattr(P, name, property(tr.span(attr.fget, key)))
        elif callable(attr):
            setattr(P, name, tr.span(attr, key))
    for cls, names in ((data.DataSet, ("__init__", "sorted", "group_list")),
                       (data.RandomStream, ("__init__", "split", "uniform",
                                            "normal", "integers", "choice"))):
        for name in names:
            setattr(cls, name, tr.span(getattr(cls, name),
                                       f"data.{cls.__name__}.{name.strip('_')}"))

    # model: dispatch, keyed by element, strategy and label kind
    orig_resolve = model.resolve

    def element_key(el, rows_of):
        def key_of(a, kw):
            m = a[0]
            strat = _STRATEGY.get(orig_resolve(m)[el], "other")
            return f"model.{el}.{strat}[{_label_kind(m.label)}]", rows_of(a, kw)
        return key_of

    patch(model, "row_log_likelihood", tr.keyed(
        model.row_log_likelihood, element_key("L", lambda a, kw: _rows_of(a[1]))))
    def draw_after(a, kw, out):
        # rejection sampling in truncate: rows its base drew, against the
        # rows the truncate rng span returned
        if tr.top_key() == "transforms.truncate.rng":
            tr.add("transforms.truncate.drawn", _rows_of(out))

    patch(model, "draw", tr.keyed(
        model.draw, element_key("RNG", lambda a, kw: int(
            (a[3] if len(a) > 3 else kw.get("n")) or 1)), draw_after))
    patch(model, "cdf", tr.keyed(
        model.cdf, element_key("CDF", lambda a, kw: _rows_of(
            np.atleast_2d(np.asarray(a[1], dtype=float))))))
    patch(model, "resolve", tr.span(model.resolve, "model.resolve"))
    patch(model, "log_likelihood", tr.span(model.log_likelihood,
                                           "model.log_likelihood"))
    patch(model, "estimate", tr.span(model.estimate, "model.estimate"))
    patch(model, "check_ml_consistency", tr.span(model.check_ml_consistency,
                                                 "model.check_ml_consistency"))

    # memoized PMF: a call under which memoize_rng_to_pmf runs is a miss
    patch(model, "memoized_pmf", tr.span(model.memoized_pmf,
                                         "model.memoized_pmf"))

    # catalog: element spans on every model the constructors build
    for name, fn in list(vars(distributions).items()):
        if name.endswith("_model") and callable(fn):
            new = _traced_ctor(
                tr, fn, lambda m: f"distributions.{_label_kind(m.label)}")
            patch(distributions, name, new)
            for k, v in list(distributions._CATALOG.items()):
                if v is fn:
                    distributions._CATALOG[k] = new

    # transforms: the ten constructors, and posterior_draws
    for name in TRANSFORMS:
        patch(transforms, name, _traced_ctor(
            tr, getattr(transforms, name), lambda m, _k=name: f"transforms.{_k}"))
    patch(transforms, "posterior_draws", tr.span(transforms.posterior_draws,
                                                 "transforms.posterior_draws"))

    # solvers
    def nm_after(a, kw, res):
        tr.add("solvers.nelder_mead.iterations", res.iterations)
        tr.add("solvers.nelder_mead.converged", 1.0 if res.converged else 0.0)

    patch(solvers, "nelder_mead", tr.keyed(
        solvers.nelder_mead, lambda a, kw: ("solvers.nelder_mead", 0), nm_after))

    def mh_after(a, kw, chain):
        st = (a[2] if len(a) > 2 else kw.get("st")) or McmcSettings()
        steps = st.burnin + len(chain.samples) * st.thin
        tr.add("solvers.metropolis.steps", steps)
        tr.add("solvers.metropolis.accepted", chain.acceptance_rate * steps)
        if tr.top_key() == "transforms.posterior_draws":
            tr.chains.append(chain.samples)

    patch(solvers, "metropolis", tr.keyed(
        solvers.metropolis, lambda a, kw: ("solvers.metropolis", 0), mh_after))

    orig_invert = solvers.invert_cdf_draw

    def invert(cdf, p, stream):
        def counted(x):
            tr.add("solvers.invert_cdf_draw.cdf_evals")
            return cdf(x)
        return orig_invert(counted, p, stream)

    patch(solvers, "invert_cdf_draw", tr.span(
        functools.wraps(orig_invert)(invert), "solvers.invert_cdf_draw"))

    def memo_rng_key(a, kw):
        if tr.top_key() == "model.memoized_pmf":
            tr.add("model.memoized_pmf.misses")
        return "solvers.memoize_rng_to_pmf", 0

    patch(solvers, "memoize_rng_to_pmf", tr.keyed(solvers.memoize_rng_to_pmf,
                                                  memo_rng_key))
    patch(solvers, "kde_smooth", _traced_ctor(
        tr, tr.span(solvers.kde_smooth, "solvers.kde_smooth"),
        lambda m: "solvers.kde"))

    def cc_after(a, kw, fit):
        tr.add("solvers.coordinate_cycle.iterations", fit.iterations)

    patch(solvers, "coordinate_cycle", tr.keyed(
        solvers.coordinate_cycle, lambda a, kw: ("solvers.coordinate_cycle", 0),
        cc_after))
    for name in ("simulated_annealing", "numeric_gradient", "numeric_hessian"):
        patch(solvers, name, tr.span(getattr(solvers, name), f"solvers.{name}"))

    # simulators
    for name in ("network_sim_model", "demand_model", "search_model"):
        patch(sims, name, _traced_ctor(tr, getattr(sims, name),
                                       lambda m: f"sims.{m.label}"))
    patch(sims, "fuzz_weibull_posterior", tr.span(sims.fuzz_weibull_posterior,
                                                  "sims.fuzz_weibull_posterior"))

    # inference, expressions and the command line
    for name in ("predict", "bootstrap_cov", "jackknife_cov", "replication_cov",
                 "fisher_info_cov", "bin_to_pmf", "ks_stat", "kl_divergence",
                 "rmse", "entropy"):
        patch(inference, name, tr.span(getattr(inference, name),
                                       f"inference.{name}"))
    for name in ("parse_model_expr", "eval_model_expr", "print_model_expr"):
        patch(expr, name, tr.span(getattr(expr, name), f"expr.{name}"))
    for name in ("run_example", "run_eval"):
        patch(cli, name, tr.span(getattr(cli, name), f"cli.{name}"))
    return tr


# ---------------------------------------------------------------------------
# Per-layer metrics

_KIND = re.compile(r"\[[^\]]*\]$")


def ess(x: np.ndarray) -> float:
    """Effective sample size of one chain (Vehtari et al. 2021, single chain).

    Autocorrelations by FFT, summed over Geyer's initial positive sequence of
    pair sums made monotone; for several columns the smallest ESS.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    out = []
    for col in x.T:
        c = col - col.mean()
        var = float(c @ c) / n
        if n < 4 or var == 0.0:
            out.append(float(n))
            continue
        size = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(c, size)
        rho = np.fft.irfft(f * np.conj(f), size)[:n] / n / var
        pairs = rho[0:n - 1:2] + rho[1:n:2]
        stop = np.flatnonzero(pairs < 0)
        pairs = pairs[:stop[0]] if stop.size else pairs
        pairs = np.minimum.accumulate(pairs)
        tau = -1.0 + 2.0 * float(pairs.sum())
        out.append(n / max(tau, 1.0 / np.log10(max(n, 10))))
    return float(min(out))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Reduce the call tree and counters to the named per-layer metrics."""
    calls: dict[str, float] = {}
    rows: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for n in tr.walk():
        if n.key.startswith("phase."):
            continue
        k = _KIND.sub("", n.key)
        calls[k] = calls.get(k, 0) + n.calls
        rows[k] = rows.get(k, 0) + n.rows
        self_s[k] = self_s.get(k, 0.0) + n.total - n.child
    c = tr.counts

    def under(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m: dict[str, float] = {}
    for cls in ("Params", "DataSet", "RandomStream"):
        m[f"data.{cls}.calls"] = under(f"data.{cls}.", calls)
        m[f"data.{cls}.self_s"] = under(f"data.{cls}.", self_s)
    m["model.resolve.calls"] = calls.get("model.resolve", 0)
    m["model.log_likelihood.calls"] = calls.get("model.log_likelihood", 0)
    m["model.log_likelihood.self_s"] = self_s.get("model.log_likelihood", 0.0)
    for key in STRATEGY_KEYS:
        m[f"model.{key}.calls"] = calls.get(f"model.{key}", 0)
        m[f"model.{key}.rows"] = rows.get(f"model.{key}", 0)
        if key in STRATEGY_SELF:
            m[f"model.{key}.self_s"] = self_s.get(f"model.{key}", 0.0)
    memo = calls.get("model.memoized_pmf", 0)
    m["model.memoized_pmf.calls"] = memo
    m["model.memoized_pmf.hit_ratio"] = _ratio(
        memo - c.get("model.memoized_pmf.misses", 0.0), memo)
    m["model.estimate.calls"] = calls.get("model.estimate", 0)
    for name in CATALOG:
        p = f"distributions.{name}."
        m[p + "self_s"] = under(p, self_s)
        m[p + "rows_per_call"] = _ratio(
            sum(rows.get(p + e, 0) for e in _ROW_ELEMENTS),
            sum(calls.get(p + e, 0) for e in _ROW_ELEMENTS))
    for name in TRANSFORMS:
        m[f"transforms.{name}.self_s"] = under(f"transforms.{name}.", self_s)
    m["transforms.truncate.accept_ratio"] = _ratio(
        rows.get("transforms.truncate.rng", 0), c.get("transforms.truncate.drawn", 0.0))
    m["transforms.posterior_draws.self_s"] = self_s.get(
        "transforms.posterior_draws", 0.0)
    m["transforms.posterior_draws.ess"] = (
        float(np.mean([ess(ch) for ch in tr.chains])) if tr.chains else 0.0)
    nm = calls.get("solvers.nelder_mead", 0)
    m["solvers.nelder_mead.calls"] = nm
    m["solvers.nelder_mead.iterations"] = c.get("solvers.nelder_mead.iterations", 0.0)
    m["solvers.nelder_mead.self_s"] = self_s.get("solvers.nelder_mead", 0.0)
    m["solvers.nelder_mead.converged_ratio"] = _ratio(
        c.get("solvers.nelder_mead.converged", 0.0), nm)
    steps = c.get("solvers.metropolis.steps", 0.0)
    m["solvers.metropolis.calls"] = calls.get("solvers.metropolis", 0)
    m["solvers.metropolis.steps"] = steps
    m["solvers.metropolis.self_s"] = self_s.get("solvers.metropolis", 0.0)
    m["solvers.metropolis.acceptance_rate"] = _ratio(
        c.get("solvers.metropolis.accepted", 0.0), steps)
    inv = calls.get("solvers.invert_cdf_draw", 0)
    m["solvers.invert_cdf_draw.calls"] = inv
    m["solvers.invert_cdf_draw.self_s"] = self_s.get("solvers.invert_cdf_draw", 0.0)
    m["solvers.invert_cdf_draw.cdf_evals_per_draw"] = _ratio(
        c.get("solvers.invert_cdf_draw.cdf_evals", 0.0), inv)
    m["solvers.kde.self_s"] = under("solvers.kde.", self_s)
    for name in ("memoize_rng_to_pmf", "kde_smooth", "coordinate_cycle"):
        m[f"solvers.{name}.calls"] = calls.get(f"solvers.{name}", 0)
        m[f"solvers.{name}.self_s"] = self_s.get(f"solvers.{name}", 0.0)
    m["solvers.coordinate_cycle.iterations"] = c.get(
        "solvers.coordinate_cycle.iterations", 0.0)
    for name in SIMS:
        m[f"sims.{name}.rows"] = rows.get(f"sims.{name}.rng", 0)
        m[f"sims.{name}.self_s"] = under(f"sims.{name}.", self_s)
    m["sims.fuzz_weibull_posterior.self_s"] = self_s.get(
        "sims.fuzz_weibull_posterior", 0.0)
    m["inference.bootstrap_cov.self_s"] = self_s.get("inference.bootstrap_cov", 0.0)
    for name in ("parse_model_expr", "eval_model_expr"):
        m[f"expr.{name}.self_s"] = self_s.get(f"expr.{name}", 0.0)
    m["cli.run_example.self_s"] = self_s.get("cli.run_example", 0.0)
    return {k: float(v) for k, v in m.items()}
