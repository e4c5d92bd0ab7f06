"""CLI surface: exit codes, output files, determinism, formats."""

import numpy as np
import pytest

from modelkit import (DataSet, MleSettings, RandomStream, builtin, cli,
                      d_compose, estimate, fix, network_sim_model)


def _read(path):
    return path.read_bytes()


def test_unknown_example_exits_64(capsys, tmp_path):
    assert cli.run_example("no-such-thing", out=tmp_path) == 64
    assert "unknown example" in capsys.readouterr().err


def test_roundtrip_example_passes_checks(tmp_path, capsys):
    code = cli.run_example("roundtrip", seed=0, out=tmp_path, check=True)
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("check [ok]") == 8
    assert (tmp_path / "roundtrip.csv").exists()
    assert (tmp_path / "roundtrip.dat").exists()


def test_roundtrip_reruns_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.run_example("roundtrip", seed=3, draws=4000, out=d) == 0
    assert _read(a / "roundtrip.csv") == _read(b / "roundtrip.csv")
    assert _read(a / "roundtrip.dat") == _read(b / "roundtrip.dat")


def test_check_failure_exits_2(tmp_path, capsys):
    # 60 draws is far too few for the 0.05 tolerance on mu and sigma
    code = cli.run_example("roundtrip", seed=1, draws=60, out=tmp_path,
                           check=True)
    assert code == 2
    assert "FAILED" in capsys.readouterr().out


def test_csv_format_mirrors_table(tmp_path, capsys):
    assert cli.run_example("roundtrip", draws=4000, out=tmp_path,
                           fmt="csv") == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "model,param,truth,estimate,abs_err,tol"


def test_six_significant_digits():
    assert cli._fmt(0.0533123456) == "0.0533123"
    assert cli._fmt(1234567.89) == "1.23457e+06"
    assert cli._fmt(-1.0) == "-1"


def test_eval_prints_canonical_expression(capsys):
    code = cli.run_eval("fix( normal , sigma = 1 )")
    assert code == 0
    out = capsys.readouterr().out
    assert "fix(normal, sigma=1)" in out
    assert "mu" in out and "fixed" in out and "free" in out


def test_eval_parse_error_exits_64(capsys):
    code = cli.main(["eval", "cross(normal, normal"])
    assert code == 64
    assert "offset 20" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "normal(dim=2)", "normal(mu=abc)", "dcompose(normal, normal, nseq=abc)",
    "network_sim(n_agents=abc)", "truncate(normal, min=abc)",
    "mix(normal, normal, w=abc)", "pmf(foo=1)", "multivariate_normal(dim=3)",
    "search_sim(grid_w=-2, grid_h=-3, n_pairs=1)", 'pmf(file="nope.csv")'])
def test_eval_bad_keyword_or_data_exits_64(text, tmp_path, capsys, monkeypatch):
    # one-column data: pmf reads it, and a 3-d normal cannot be fit to it;
    # the working directory holds no nope.csv
    path = tmp_path / "d.csv"
    DataSet(np.array([[1.0], [2.0]])).to_csv(path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", text, "--data", str(path)]) == 64
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read data file"), ("1,2\n3\n", "rows differ in length"),
    ("1\nabc\n", "could not convert"),
    ("a,b\n1,2,3\n", "header has 2 columns, rows have 3"),
    ("x\n", "has no data rows"), ("x,weight\n", "has no data rows")])
def test_eval_unreadable_data_file_exits_64(content, message, tmp_path, capsys):
    path = tmp_path / "d.csv"
    if content is not None:
        path.write_text(content)
    assert cli.main(["eval", "normal", "--data", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert str(path) in err


def test_eval_header_only_pmf_file_exits_64(tmp_path, capsys, monkeypatch):
    (tmp_path / "h.csv").write_text("x\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", 'pmf(file="h.csv")']) == 64
    assert capsys.readouterr().err == "error: data file h.csv has no data rows\n"


def test_eval_with_data_estimates(tmp_path, capsys):
    path = tmp_path / "d.csv"
    DataSet(np.array([[0.4], [0.9], [1.7], [2.0], [1.0]])).to_csv(path)
    code = cli.run_eval("fix(normal, sigma=1)", data_path=str(path))
    assert code == 0
    out = capsys.readouterr().out
    assert "estimate" in out
    assert "1.2" in out  # sample mean


def test_eval_draw_output(tmp_path):
    code = cli.run_eval("normal", seed=7, draws=50, out=tmp_path)
    assert code == 0
    d = DataSet.from_csv(tmp_path / "eval.csv")
    assert len(d) == 50
    assert (tmp_path / "eval.dat").exists()


def test_main_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate"])
    assert e.value.code == 64
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 64


def test_main_run_with_flags(tmp_path, capsys):
    code = cli.main(["run", "roundtrip", "--seed", "2", "--draws", "4000",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "roundtrip.csv").exists()


def test_gnuplot_blocks_blank_separated(tmp_path):
    cli.run_example("roundtrip", draws=4000, out=tmp_path)
    text = (tmp_path / "roundtrip.dat").read_text()
    blocks = text.split("\n\n")
    assert len(blocks) == 4  # one ecdf per round-trip case
    first = blocks[0].splitlines()[0].split()
    assert len(first) == 2
    float(first[0]), float(first[1])


def test_main_runs_sigma_fit_under_check(tmp_path, capsys):
    assert cli.main(["run", "sigma-fit", "--check", "--out", str(tmp_path)]) == 0
    assert "check [ok]: sigma_opt" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 5])
def test_sigma_fit_is_a_live_d_compose_on_the_run_seed(seed, tmp_path):
    assert cli.run_example("sigma-fit", seed=seed, out=tmp_path) == 0
    header, row = (tmp_path / "sigma-fit.csv").read_text().splitlines()
    assert header == "seed,sigma_opt"
    dc = d_compose(network_sim_model(sigma_free=True), builtin("exponential"),
                   nseq=RandomStream((seed, 0xF17)), n_draws=1, live=True)
    start = dc.param_shape.pin(**{"to.mu": 1.0}).with_blocks(**{"from.sigma": 0.5})
    fit = estimate(fix(dc, start), DataSet(np.empty((0, 0))),
                   MleSettings(method="nelder_mead", tolerance=1e-3, max_iter=60))
    assert fit.params.scalar("from.sigma") == float(row.split(",")[1])


def test_eval_ols_draws_from_the_fitted_design(tmp_path):
    # short decimals survive the CSV round trip
    x = np.column_stack([np.arange(6.0) / 4, [0.0, 0.5, 0.25, 1.0, 0.75, 0.5]])
    y = 1.0 + x @ [2.0, -0.5] + [0.25, -0.25, 0.0, 0.5, -0.5, 0.0]
    path = tmp_path / "f.csv"
    DataSet(np.column_stack([y, x])).to_csv(path)
    out = tmp_path / "out"
    assert cli.main(["eval", "ols", "--data", str(path), "--draws", "50",
                     "--out", str(out)]) == 0
    drawn = DataSet.from_csv(out / "eval.csv").rows
    assert drawn.shape == (50, 3)
    assert np.all((drawn[:, None, 1:] == x[None]).all(axis=2).any(axis=1))


@pytest.mark.parametrize("columns, message", [
    # the two regressors differ by a constant
    (lambda x: [x, x, x + 1.0], "error: ols: element Est: collinear design"),
    (lambda x: [x], "error: ols: element L: a design row needs y and at least "
                    "one regressor column; got 1 column(s)"),
], ids=["collinear", "no-regressor"])
def test_eval_ols_errors_name_the_model_and_the_element(tmp_path, capsys,
                                                        columns, message):
    path = tmp_path / "f.csv"
    DataSet(np.column_stack(columns(np.arange(8.0)))).to_csv(path)
    assert cli.main(["eval", "ols", "--data", str(path),
                     "--out", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err.strip() == message


def test_main_runs_demand_under_check(tmp_path, capsys):
    assert cli.main(["run", "demand", "--check", "--draws", "20",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("check [ok]") == 2 and "FAILED" not in out
    assert (tmp_path / "demand.csv").read_text().startswith("param,truth,estimate")
