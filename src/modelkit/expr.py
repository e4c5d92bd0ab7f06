"""Model expressions: a tiny functional notation for composing models.

Grammar:

    expr  := IDENT | IDENT "(" arg ("," arg)* ")"
    arg   := expr | IDENT "=" value
    value := NUMBER | STRING | IDENT | "[" NUMBER ("," NUMBER)* "]"

Identifiers resolve against the distribution, simulation, and transform
registries; ``parse_model_expr`` only builds the tree, so unknown names
surface at evaluation time with the registry printed.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import distributions, sims, transforms
from .data import DataSet, ModelError, Params, RandomStream
from .model import Model


class ExprError(ModelError):
    """Syntax or evaluation failure, carrying a byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass
class Call:
    ident: str
    args: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<punct>[(),=\[\]])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind: str, text: str | None = None):
        tok = self.toks[self.i]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise ExprError(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                            tok[2])
        self.i += 1
        return tok

    def expr(self):
        ident = self.take("ident")[1]
        if self.peek()[:2] != ("punct", "("):
            return Name(ident)
        self.take("punct", "(")
        args, kwargs = [], {}
        while True:
            self.arg(args, kwargs)
            if self.peek()[:2] == ("punct", ","):
                self.take("punct", ",")
                continue
            break
        self.take("punct", ")")
        return Call(ident, args, kwargs)

    def arg(self, args: list, kwargs: dict):
        kind, text, pos = self.peek()
        if kind == "ident" and self.toks[self.i + 1][:2] == ("punct", "="):
            self.take("ident")
            self.take("punct", "=")
            kwargs[text] = self.value()
        elif kind == "ident":
            args.append(self.expr())
        else:
            raise ExprError(f"expected identifier, found {text or 'end of input'!r}",
                            pos)

    def value(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.i += 1
            return self._number(text)
        if kind == "string":
            self.i += 1
            return text[1:-1]
        if kind == "ident":
            self.i += 1
            return text
        if (kind, text) == ("punct", "["):
            self.take("punct", "[")
            vals = [self._number(self.take("number")[1])]
            while self.peek()[:2] == ("punct", ","):
                self.take("punct", ",")
                vals.append(self._number(self.take("number")[1]))
            self.take("punct", "]")
            return vals
        raise ExprError(f"expected a value, found {text or 'end of input'!r}", pos)

    @staticmethod
    def _number(text: str):
        if re.fullmatch(r"[-+]?\d+", text):
            return int(text)
        return float(text)


def parse_model_expr(text: str):
    """Parse a model expression into its AST."""
    p = _Parser(text)
    ast = p.expr()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {tok!r}", pos)
    return ast


def print_model_expr(ast) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""
    if isinstance(ast, Name):
        return ast.ident
    parts = [print_model_expr(a) for a in ast.args]
    parts += [f"{k}={_print_value(v)}" for k, v in ast.kwargs.items()]
    return f"{ast.ident}({', '.join(parts)})"


def _print_value(v) -> str:
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(repr(x) for x in v) + "]"
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
        return v
    return '"' + v + '"'


# ---------------------------------------------------------------------------
# Evaluation: one table entry per name.  Entries call the constructors through
# their modules (``transforms.fix``, ...) at call time, never through stored
# function objects, so a constructor rebound on its module is the one that runs.

_JACOBIAN_FNS = {
    "cube": (lambda x: x ** 3, lambda y: y ** (1.0 / 3.0)),
    "sqrt": (lambda x: np.sqrt(x), lambda y: y ** 2),
    "reciprocal": (lambda x: 1.0 / x, lambda y: 1.0 / y),
    "log": (lambda x: np.log(x), lambda y: np.exp(y)),
}


class _Keyword(NamedTuple):
    """The values a keyword accepts: ``ok(v)`` tests, ``then(v)`` converts."""

    want: str
    ok: Callable
    then: Callable = lambda v: v


_number = _Keyword("a number", lambda v: isinstance(v, (int, float)))
_numbers = _Keyword("a number or a list of numbers",
                    lambda v: isinstance(v, (int, float, list)))
_int = _Keyword("an integer", lambda v: isinstance(v, (int, float))
                and float(v).is_integer(), int)
_flag = _Keyword("0 or 1", lambda v: v in (0, 1), bool)
_text = _Keyword("a file name", lambda v: isinstance(v, str))
_jacobian_fn = _Keyword(f"one of {sorted(_JACOBIAN_FNS)}",
                        lambda v: isinstance(v, str) and v in _JACOBIAN_FNS,
                        _JACOBIAN_FNS.get)
# d_compose's keywords: live draws, or an integer seed replayed every call
_nseq = _Keyword("live or an integer seed", lambda v: v == "live" or _int.ok(v),
                 lambda v: {"live": True} if v == "live"
                 else {"nseq": RandomStream(int(v))})


class _Entry(NamedTuple):
    """One name: the (least, most) number of model arguments, the values each
    keyword accepts, and ``build(sub, data, **kw)`` over the evaluated model
    arguments, the ``--data`` set and the converted keywords.  With
    ``params``, all other keywords are parameter values, passed as ``params=``.
    """

    arity: tuple
    build: Callable
    keywords: dict = {}
    params: bool = False


def _catalog(name: str, **keywords) -> _Entry:
    def build(sub, data, params, **ctor_kw):
        m = distributions.builtin(name, **ctor_kw)
        if not params:
            return m
        return dataclasses.replace(m, param_shape=_apply_param_kwargs(m, params))
    return _Entry((0, 0), build, keywords, params=True)


def _mix(sub, data, w=None):
    if isinstance(w, (int, float)):
        rest = (1.0 - w) / (len(sub) - 1)
        w = [float(w)] + [rest] * (len(sub) - 1)
    if w is not None:
        # explicit weights in an expression are fixed, not estimated
        w = Params([("w", w)], np.ones(len(w), dtype=bool))
    return transforms.mix(sub, weights=w)


def _truncate(sub, data, min=None, max=None):
    if min is None and max is None:
        raise ExprError("truncate needs min= and/or max=")
    return transforms.truncate(sub[0], (min, max))


def _jacobian(sub, data, f=None):
    if f is None:
        raise ExprError(f"jacobian needs f=, one of {sorted(_JACOBIAN_FNS)}")
    return transforms.jacobian(sub[0], *f)


_REGISTRY = {
    **{name: _catalog(name) for name in distributions._CATALOG},
    "multivariate_normal": _catalog("multivariate_normal", dim=_int),
    "pmf": _Entry((0, 0), lambda sub, data, file=None: distributions.pmf_model(
        _load_data("pmf", file, data)), {"file": _text}),
    "ols": _Entry((0, 0), lambda sub, data, file=None: distributions.ols_model(
        _load_data("ols", file, data)), {"file": _text}),
    "network_sim": _Entry(
        (0, 0), lambda sub, data, sigma_free=False, **cfg: sims.network_sim_model(
            sims.NetworkSimConfig(**cfg), sigma_free=sigma_free),
        {"n_agents": _int, "sigma": _number, "sigma_free": _flag}),
    "demand_sim": _Entry(
        (0, 0), lambda sub, data, **cfg: sims.demand_model(sims.DemandConfig(**cfg)),
        {"n_agents": _int, "price": _number}),
    "search_sim": _Entry(
        (0, 0), lambda sub, data, **cfg: sims.search_model(sims.SearchConfig(**cfg)),
        {"grid_w": _int, "grid_h": _int, "n_pairs": _int}),
    "fix": _Entry((1, 1), lambda sub, data, params: transforms.fix(
        sub[0], _apply_param_kwargs(sub[0], params, pin=True)), params=True),
    "cross": _Entry((2, math.inf), lambda sub, data: transforms.cross(sub)),
    "mix": _Entry((2, math.inf), _mix, {"w": _numbers}),
    "mixcdf": _Entry((1, 2), lambda sub, data: transforms.mix_cdf(sub[0], (
        sub[1] if len(sub) == 2
        else distributions.pmf_model(DataSet(np.zeros((1, 1))))))),
    "truncate": _Entry((1, 1), _truncate, {"min": _number, "max": _number}),
    "jacobian": _Entry((1, 1), _jacobian, {"f": _jacobian_fn}),
    "swap": _Entry((1, 1), lambda sub, data: transforms.swap(sub[0])),
    "dcompose": _Entry(
        (2, 2), lambda sub, data, draws=500, nseq={}: transforms.d_compose(
            sub[0], sub[1], n_draws=draws, **nseq),
        {"draws": _int, "nseq": _nseq}),
    "dpcompose": _Entry((2, 2), lambda sub, data: transforms.dp_compose(
        sub[0], sub[1], sub[0].param_shape)),
    "pdcompose": _Entry((2, 2), lambda sub, data: transforms.pd_compose(
        sub[0], sub[1])),
}


def eval_model_expr(ast, data: DataSet | None = None) -> Model:
    """Resolve an AST against the registries and build the model.

    ``data`` backs the names that need observations (pmf, ols) when no
    ``file=`` keyword is given.
    """
    if isinstance(ast, Name):
        ast = Call(ast.ident)
    name = ast.ident
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ExprError(f"unknown name {name!r}; registry: {', '.join(_REGISTRY)}")
    sub = [eval_model_expr(a, data) for a in ast.args]
    least, most = entry.arity
    if not least <= len(sub) <= most:
        want = (least if least == most else f"at least {least}"
                if most == math.inf else f"{least} or {most}")
        raise ExprError(f"{name} takes {want} model argument(s), got {len(sub)}")
    rest = dict(ast.kwargs)
    kw = {k: _convert(name, k, kind, rest.pop(k))
          for k, kind in entry.keywords.items() if k in rest}
    if entry.params:
        kw["params"] = {k: _convert(name, k, _numbers, v) for k, v in rest.items()}
    elif rest:
        raise ExprError(f"{name}: unknown keyword(s) {sorted(rest)}")
    return entry.build(sub, data, **kw)


def _convert(name: str, key: str, kind: _Keyword, value):
    if not kind.ok(value):
        raise ExprError(f"{name}: {key} must be {kind.want}, got {_print_value(value)}")
    return kind.then(value)


def read_data_file(path) -> DataSet:
    """The rows of a CSV data file; a file without data rows is an error."""
    d = DataSet.from_csv(path)
    if len(d) == 0:
        raise ModelError(f"data file {path} has no data rows")
    return d


def _load_data(name: str, path: str | None, data: DataSet | None) -> DataSet:
    if path is not None:
        return read_data_file(path)
    if data is None:
        raise ExprError(f"{name} needs file=... or --data")
    return data


def _apply_param_kwargs(m: Model, values: dict, pin: bool = False) -> Params:
    """Keywords as parameter values: m's parameters with the named blocks set
    (e.g. normal(mu=1)), and also fixed with ``pin``."""
    shape = m.param_shape
    unknown = sorted(set(values) - set(shape.names))
    if unknown:
        raise ExprError(f"{m.label}: unknown parameter(s) {unknown}; "
                        f"have {shape.labels()}")
    try:
        return shape.pin(**values) if pin else shape.with_blocks(**values)
    except ModelError as e:
        raise ExprError(str(e))
