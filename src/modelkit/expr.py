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

import re
from dataclasses import dataclass, field

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

    def __eq__(self, other):
        return (isinstance(other, Call) and self.ident == other.ident
                and self.args == other.args and self.kwargs == other.kwargs)


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
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(repr(x) for x in v) + "]"
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
        return v
    return '"' + v + '"'


# ---------------------------------------------------------------------------
# Evaluation

_JACOBIAN_FNS = {
    "cube": (lambda x: x ** 3, lambda y: y ** (1.0 / 3.0)),
    "sqrt": (lambda x: np.sqrt(x), lambda y: y ** 2),
    "reciprocal": (lambda x: 1.0 / x, lambda y: 1.0 / y),
    "log": (lambda x: np.log(x), lambda y: np.exp(y)),
}

_DIST_NAMES = ("normal", "exponential", "poisson", "beta", "weibull",
               "uniform", "multivariate_normal")
_TRANSFORM_NAMES = ("fix", "cross", "mix", "mixcdf", "truncate", "jacobian",
                    "swap", "dcompose", "dpcompose", "pdcompose")
_OTHER_NAMES = ("pmf", "ols", "network_sim", "demand_sim", "search_sim")


def eval_model_expr(ast, data: DataSet | None = None) -> Model:
    """Resolve an AST against the registries and build the model.

    ``data`` backs the names that need observations (pmf, ols) when no
    ``file=`` keyword is given.
    """
    if isinstance(ast, Name):
        ast = Call(ast.ident)
    name, kwargs = ast.ident, dict(ast.kwargs)
    sub = [eval_model_expr(a, data) for a in ast.args]

    if name in _DIST_NAMES:
        _expect_arity(name, sub, 0)
        ctor_kw = {k: kwargs.pop(k) for k in ("dim",) if k in kwargs}
        m = distributions.builtin(name, **ctor_kw)
        return _apply_param_kwargs(m, kwargs)
    if name == "pmf":
        _expect_arity(name, sub, 0)
        return distributions.pmf_model(_load_data(name, kwargs, data))
    if name == "ols":
        _expect_arity(name, sub, 0)
        d = _load_data(name, kwargs, data)
        _reject_unknown(name, kwargs)
        return distributions.ols_model(data_names=d.names, n_x=d.dim - 1)
    if name == "network_sim":
        _expect_arity(name, sub, 0)
        sigma_free = bool(kwargs.pop("sigma_free", False))
        cfg = sims.NetworkSimConfig(**_take(kwargs, "n_agents", "sigma"))
        _reject_unknown(name, kwargs)
        return sims.network_sim_model(cfg, sigma_free=sigma_free)
    if name == "demand_sim":
        _expect_arity(name, sub, 0)
        cfg = sims.DemandConfig(**_take(kwargs, "n_agents", "price"))
        _reject_unknown(name, kwargs)
        return sims.demand_model(cfg)
    if name == "search_sim":
        _expect_arity(name, sub, 0)
        cfg = sims.SearchConfig(**_take(kwargs, "grid_w", "grid_h", "n_pairs"))
        _reject_unknown(name, kwargs)
        return sims.search_model(cfg)

    if name == "fix":
        _expect_arity(name, sub, 1)
        try:
            pinned = sub[0].param_shape.pin(**kwargs)
        except KeyError as e:
            raise ExprError(f"fix: {e.args[0]}")
        return transforms.fix(sub[0], pinned)
    if name == "cross":
        if len(sub) < 2:
            raise ExprError("cross needs at least two models")
        _reject_unknown(name, kwargs)
        return transforms.cross(sub)
    if name == "mix":
        if len(sub) < 2:
            raise ExprError("mix needs at least two models")
        w = kwargs.pop("w", None)
        _reject_unknown(name, kwargs)
        if isinstance(w, (int, float)):
            rest = (1.0 - w) / (len(sub) - 1)
            w = [float(w)] + [rest] * (len(sub) - 1)
        if w is not None:
            # explicit weights in an expression are fixed, not estimated
            w = Params([("w", w)], np.ones(len(w), dtype=bool))
        return transforms.mix(sub, weights=w)
    if name == "mixcdf":
        if len(sub) == 1:
            point = distributions.pmf_model(DataSet(np.zeros((1, 1))))
        elif len(sub) == 2:
            point = sub[1]
        else:
            raise ExprError("mixcdf takes a truncated model and an optional "
                            "point-mass model")
        _reject_unknown(name, kwargs)
        return transforms.mix_cdf(sub[0], point)
    if name == "truncate":
        _expect_arity(name, sub, 1)
        lo = kwargs.pop("min", None)
        hi = kwargs.pop("max", None)
        _reject_unknown(name, kwargs)
        if lo is None and hi is None:
            raise ExprError("truncate needs min= and/or max=")
        return transforms.truncate(sub[0], (lo, hi))
    if name == "jacobian":
        _expect_arity(name, sub, 1)
        fname = kwargs.pop("f", None)
        _reject_unknown(name, kwargs)
        if fname not in _JACOBIAN_FNS:
            raise ExprError(f"jacobian: f must be one of "
                            f"{sorted(_JACOBIAN_FNS)}, got {fname!r}")
        f, f_inv = _JACOBIAN_FNS[fname]
        return transforms.jacobian(sub[0], f, f_inv)
    if name == "swap":
        _expect_arity(name, sub, 1)
        _reject_unknown(name, kwargs)
        return transforms.swap(sub[0])
    if name == "dcompose":
        _expect_arity(name, sub, 2)
        n_draws = int(kwargs.pop("draws", 500))
        nseq = kwargs.pop("nseq", None)
        _reject_unknown(name, kwargs)
        if nseq not in (None, "live"):
            nseq = RandomStream(int(nseq))
        return transforms.d_compose(sub[0], sub[1], nseq=nseq, n_draws=n_draws)
    if name == "dpcompose":
        _expect_arity(name, sub, 2)
        _reject_unknown(name, kwargs)
        prior, like = sub
        return transforms.dp_compose(prior, like, prior.param_shape)
    if name == "pdcompose":
        _expect_arity(name, sub, 2)
        _reject_unknown(name, kwargs)
        return transforms.pd_compose(sub[0], sub[1])

    known = ", ".join(_DIST_NAMES + _OTHER_NAMES + _TRANSFORM_NAMES)
    raise ExprError(f"unknown name {name!r}; registry: {known}")


def _expect_arity(name: str, sub: list, want: int) -> None:
    if len(sub) != want:
        raise ExprError(f"{name} takes {want} model argument(s), got {len(sub)}")


def _reject_unknown(name: str, kwargs: dict) -> None:
    if kwargs:
        raise ExprError(f"{name}: unknown keyword(s) {sorted(kwargs)}")


def _take(kwargs: dict, *names: str) -> dict:
    return {n: kwargs.pop(n) for n in names if n in kwargs}


def _load_data(name: str, kwargs: dict, data: DataSet | None) -> DataSet:
    path = kwargs.pop("file", None)
    if path is not None:
        return DataSet.from_csv(path)
    if data is None:
        raise ExprError(f"{name} needs file=... or --data")
    return data


def _apply_param_kwargs(m: Model, kwargs: dict) -> Model:
    """Interpret leftover keywords as parameter defaults (e.g. normal(mu=1))."""
    if not kwargs:
        return m
    shape = m.param_shape
    unknown = sorted(set(kwargs) - set(shape.names))
    if unknown:
        raise ExprError(f"{m.label}: unknown parameter(s) {unknown}; "
                        f"have {shape.labels()}")
    try:
        shape = shape.with_blocks(**kwargs)
    except ModelError as e:
        raise ExprError(str(e))
    import dataclasses

    return dataclasses.replace(m, param_shape=shape)
