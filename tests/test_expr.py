"""Expression grammar, diagnostics, canonical printing, registry evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modelkit import (DataSet, ExprError, ModelError, Params, eval_model_expr,
                      parse_model_expr, print_model_expr, row_log_likelihood)
from modelkit.expr import _REGISTRY, Call, Name


def test_parse_bare_name():
    assert parse_model_expr("normal") == Name("normal")


def test_parse_call_with_kwarg():
    ast = parse_model_expr("fix(normal, sigma=1)")
    assert ast == Call("fix", [Name("normal")], {"sigma": 1})


def test_parse_three_level_tree():
    ast = parse_model_expr(
        "mix(w=0.5, jacobian(exponential, f=reciprocal), normal)")
    assert ast.ident == "mix"
    assert ast.kwargs == {"w": 0.5}
    inner = ast.args[0]
    assert inner == Call("jacobian", [Name("exponential")], {"f": "reciprocal"})


def test_parse_is_whitespace_insensitive():
    a = parse_model_expr("fix( normal ,  sigma = 1 )")
    b = parse_model_expr("fix(normal,sigma=1)")
    assert a == b


def test_parse_value_kinds():
    ast = parse_model_expr('pmf(file="x.csv", w=[1, 2.5], n=3)')
    assert ast.kwargs == {"file": "x.csv", "w": [1, 2.5], "n": 3}


def test_syntax_diagnostic_carries_offset():
    with pytest.raises(ExprError) as e:
        parse_model_expr("cross(normal, normal")
    assert e.value.offset == 20
    with pytest.raises(ExprError) as e:
        parse_model_expr("fix(normal, sigma=)")
    assert "expected a value" in str(e.value)
    with pytest.raises(ExprError, match="trailing"):
        parse_model_expr("normal junk")


def test_print_parse_fixpoint_examples():
    for text in ("normal",
                 "fix(normal, sigma=1)",
                 "truncate(beta(alpha=0.7, beta=1.7), min=0.2)",
                 "dcompose(network_sim(sigma_free=1), exponential)",
                 'pmf(file="data.csv")'):
        ast = parse_model_expr(text)
        assert parse_model_expr(print_model_expr(ast)) == ast


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
_value = st.one_of(st.integers(-100, 100),
                   st.floats(-10, 10, allow_nan=False).map(float),
                   _ident,
                   st.lists(st.integers(0, 9), min_size=1, max_size=3))
_expr = st.recursive(
    _ident.map(Name),
    lambda children: st.builds(
        Call, _ident,
        st.lists(children, max_size=3),
        st.dictionaries(_ident, _value, max_size=3)).filter(
            lambda c: c.args or c.kwargs),
    max_leaves=8)


@given(_expr)
def test_print_parse_fixpoint_property(ast):
    assert parse_model_expr(print_model_expr(ast)) == ast


def test_eval_truncated_normal_delegation():
    m = eval_model_expr(parse_model_expr("truncate(normal, min=0)"))
    v = float(row_log_likelihood(m, np.array([[1.0]]), m.param_shape)[0])
    # 2 phi(1) by symmetry of the standard normal truncated at 0
    assert math.exp(v) == pytest.approx(
        2 * math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-9)


def test_eval_dcompose_parameter_space():
    m = eval_model_expr(parse_model_expr("dcompose(network_sim, exponential)"))
    assert m.param_shape.labels() == ["to.mu"]
    assert m.data_dim == 0


def test_eval_unknown_name_lists_registry():
    with pytest.raises(ExprError, match="registry"):
        eval_model_expr(parse_model_expr("cauchy"))


def test_eval_space_mismatch_reports_dims():
    with pytest.raises(ModelError, match="share a data space"):
        eval_model_expr(parse_model_expr("mix(normal, multivariate_normal)"))


def test_eval_bad_keyword():
    with pytest.raises(ExprError, match="unknown"):
        eval_model_expr(parse_model_expr("swap(normal, spin=3)"))


@pytest.mark.parametrize("text,message", [
    ("cross(normal)", "cross takes at least 2 model argument(s), got 1"),
    ("mixcdf(normal, normal, normal)",
     "mixcdf takes 1 or 2 model argument(s), got 3"),
    ("swap", "swap takes 1 model argument(s), got 0"),
])
def test_eval_arity_messages(text, message):
    with pytest.raises(ExprError) as e:
        eval_model_expr(parse_model_expr(text))
    assert str(e.value) == message


def test_eval_parameter_keyword_of_the_wrong_length():
    with pytest.raises(ExprError, match="'sigma' expects 1 value"):
        eval_model_expr(parse_model_expr("fix(normal, sigma=[1, 2])"))


def test_eval_jacobian_registry_functions():
    for f in ("cube", "sqrt", "reciprocal", "log"):
        m = eval_model_expr(parse_model_expr(f"jacobian(exponential, f={f})"))
        v = float(row_log_likelihood(m, np.array([[0.8]]), m.param_shape)[0])
        assert np.isfinite(v)
    with pytest.raises(ExprError, match="f must be one of"):
        eval_model_expr(parse_model_expr("jacobian(exponential, f=sin)"))


def test_eval_pmf_needs_data():
    with pytest.raises(ExprError, match="file=|--data"):
        eval_model_expr(parse_model_expr("pmf"))
    m = eval_model_expr(parse_model_expr("pmf"),
                        data=DataSet(np.array([[0.0], [1.0]])))
    assert m.param_shape.block("w").tolist() == [0.5, 0.5]


def test_eval_every_documented_name_resolves():
    data = DataSet(np.array([[1.0, 2.0], [2.0, 3.0], [4.0, 5.0]]))
    texts = [
        "normal", "exponential", "poisson", "beta", "weibull", "uniform",
        "multivariate_normal", "network_sim", "demand_sim", "search_sim",
        "pmf", "ols",
        "fix(normal, mu=0)", "cross(normal, normal)", "mix(normal, normal)",
        "mixcdf(truncate(normal, min=0))", "truncate(normal, max=2)",
        "jacobian(exponential, f=log)", "swap(normal)",
        "dcompose(normal, normal)", "dpcompose(normal, fix(normal, sigma=1))",
        "pdcompose(normal, exponential)",
    ]
    # one text per table entry, so a name added without an example fails
    assert {parse_model_expr(t).ident for t in texts} == set(_REGISTRY)
    for text in texts:
        m = eval_model_expr(parse_model_expr(text), data=data)
        assert m.data_dim >= 0


@pytest.mark.parametrize("text, weights", [
    ("mix(normal, normal, w=0.3)", [0.3, 0.7]),
    ("mix(normal, normal, normal, w=0.5)", [0.5, 0.25, 0.25]),
])
def test_eval_mix_with_one_weight_shares_the_rest(text, weights):
    m = eval_model_expr(parse_model_expr(text))
    assert m.param_shape.block("w").tolist() == weights
    assert m.param_shape.fixed_mask[-len(weights):].all()


@pytest.mark.parametrize("text, message", [
    ("normal$", r"unexpected character '\$'"),
    ("cross(normal, 1)", "expected identifier, found '1'"),
    ("cross(normal, )", "expected identifier, found '\\)'"),
    ("truncate(normal)", "truncate needs min= and/or max="),
    ("jacobian(normal)", r"jacobian needs f=, one of \['cube', 'log', 'reciprocal', 'sqrt'\]"),
], ids=["character", "identifier", "end-of-args", "truncate-bounds", "jacobian-f"])
def test_expression_errors_name_their_cause(text, message):
    with pytest.raises(ExprError, match=message):
        eval_model_expr(parse_model_expr(text))
