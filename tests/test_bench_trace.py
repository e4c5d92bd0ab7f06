"""The benchmark's span tracer installs on this tree and runs a pipeline.

perfbench/spans.py patches modelkit by name from outside src/, so renaming or
deleting a name it patches or reads breaks only the traced bench.  This test
runs the tracer in a child process, as the bench does, so the patching
leaves the test process's modelkit untouched.  The child also runs a
bootstrap whose fits run in lockstep and a KDE-smoothed 2-D memoized
likelihood, so that fitter and the KDE kernel run under the tracer, and a
posterior's Metropolis chains and a d_compose fit, which score through the
joint likelihood the tracer wraps as an element.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = textwrap.dedent("""
    import dataclasses, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import spans
    tr = spans.install()
    import numpy as np
    from modelkit import (DataSet, KdeSettings, MleSettings, Params, RandomStream,
                          bootstrap_cov, builtin, cli, d_compose, dp_compose, draw,
                          estimate, fix, log_likelihood, mvn_model, normal_model,
                          posterior_draws, weibull_model)
    assert cli.run_example("roundtrip", draws=300, out=sys.argv[3]) == 0
    # a likelihood-only sampler runs the Metropolis solver
    l_only = dataclasses.replace(normal_model(), rng=None, cdf=None, est=None)
    draw(l_only, l_only.param_shape, RandomStream(1), 5)
    # a stacking model's bootstrap fits run in lockstep
    wb = weibull_model()
    bootstrap_cov(wb, DataSet(draw(wb, wb.param_shape, RandomStream(2), 30)),
                  reps=100)
    # a sampler-only 2-D model's likelihood smooths its memoized draws
    mv = dataclasses.replace(mvn_model(2), logl=None, cdf=None, est=None,
                             settings={"kde": KdeSettings(), "memoize_draws": 200})
    log_likelihood(mv, DataSet(draw(mv, mv.param_shape, RandomStream(3), 20)),
                   mv.param_shape)
    # joint likelihoods: a posterior's chains and a d_compose fit
    like = fix(normal_model(), normal_model().param_shape.pin(sigma=1.0))
    post = dp_compose(normal_model(), like, Params.scalars(mu=0.0, sigma=1.0))
    posterior_draws(post.with_settings(posterior_strategy="mh"),
                    DataSet([[2.0], [1.5]]), 20, RandomStream(4))
    dc = d_compose(builtin("exponential"), builtin("exponential"), n_draws=20)
    estimate(dc, DataSet(np.empty((0, 0))), MleSettings(max_iter=30))
    m = spans.layer_metrics(tr)
    assert m["model.estimate.calls"] > 0, m
    assert m["solvers.metropolis.calls"] == 2, m
    assert m["transforms.posterior_draws.self_s"] > 0, m
    assert m["transforms.dp_compose.self_s"] > 0, m
    assert m["transforms.d_compose.self_s"] > 0, m
    assert m["solvers.nelder_mead.calls"] >= 1, m
    assert m["transforms.truncate.self_s"] > 0, m
    assert m["inference.bootstrap_cov.self_s"] > 0, m
    assert m["solvers.kde_smooth.calls"] >= 1, m
""")


def test_traced_roundtrip_runs_on_this_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
