"""Core value types: data sets, parameter vectors, random streams, settings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class ModelError(Exception):
    """Raised for contract violations: bad shapes, unresolvable elements, etc."""


class UnresolvableElementError(ModelError):
    """No strategy exists to derive the requested model element."""


# ---------------------------------------------------------------------------
# Random streams


class RandomStream:
    """Seeded deterministic random source with reproducible child streams.

    Identical seed + identical call sequence gives identical output.
    ``split(i)`` derives an independent child stream; children are themselves
    reproducible, so replicate work can fan out across workers.
    """

    def __init__(self, seed: int | Sequence[int] = 0):
        if isinstance(seed, (int, np.integer)):
            self._path: tuple[int, ...] = (int(seed),)
        else:
            self._path = tuple(int(s) for s in seed)
        self.seed = self._path[0]
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._path)))

    def split(self, index: int) -> "RandomStream":
        return RandomStream(self._path + (int(index),))

    # thin delegation helpers -------------------------------------------------
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def choice(self, n: int, p=None, size=None):
        return self.gen.choice(n, size=size, p=p)

    def __repr__(self):
        return f"RandomStream{self._path}"


# ---------------------------------------------------------------------------
# Data sets


class DataSet:
    """Ordered, weighted collection of fixed-dimension observation rows.

    Rows are stored as a float array of shape (n, dim); ``dim`` may be zero
    for models over an empty data space. Weights default to 1 per row.
    Optional integer ``groups`` labels partition rows into sub-datasets for
    hierarchical compositions.
    """

    def __init__(self, rows, weights=None, names: list[str] | None = None,
                 groups=None):
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ModelError(f"rows must be 1- or 2-dimensional, got shape {arr.shape}")
        self.rows = arr
        n = arr.shape[0]
        if weights is None:
            self.weights = np.ones(n)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise ModelError(f"weights shape {w.shape} does not match {n} rows")
            if np.any(w < 0):
                raise ModelError("weights must be nonnegative")
            if n and not np.any(w > 0):
                raise ModelError("at least one weight must be positive")
            self.weights = w
        self.names = names
        self.groups = None if groups is None else np.asarray(groups, dtype=int)
        if self.groups is not None and self.groups.shape != (n,):
            raise ModelError("groups must label every row")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def sorted(self) -> "DataSet":
        """Rows in lexicographic componentwise order (for PMF CDF support)."""
        order = np.lexsort(self.rows.T[::-1]) if self.dim else np.arange(len(self))
        return DataSet(self.rows[order], self.weights[order], self.names)

    def group_list(self) -> list["DataSet"]:
        if self.groups is None:
            return [self]
        out = []
        for g in np.unique(self.groups):
            sel = self.groups == g
            out.append(DataSet(self.rows[sel], self.weights[sel], self.names))
        return out

    # CSV interface (RFC 4180; optional header; optional final "weight" column)
    @classmethod
    def from_csv(cls, path) -> "DataSet":
        import csv

        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
        if not rows:
            return cls(np.empty((0, 0)))
        names = None
        first = rows[0]
        try:
            [float(x) for x in first]
        except ValueError:
            names = [c.strip() for c in first]
            rows = rows[1:]
        data = np.array([[float(x) for x in r] for r in rows])
        weights = None
        if names and names[-1].lower() == "weight":
            weights = data[:, -1]
            data = data[:, :-1]
            names = names[:-1]
        return cls(data, weights=weights, names=names)

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            weighted = not np.allclose(self.weights, 1.0)
            names = self.names or [f"c{i}" for i in range(self.dim)]
            w.writerow(list(names) + (["weight"] if weighted else []))
            for i in range(len(self)):
                row = [repr(float(v)) for v in self.rows[i]]
                if weighted:
                    row.append(repr(float(self.weights[i])))
                w.writerow(row)

    def __repr__(self):
        return f"DataSet({len(self)} rows, dim={self.dim})"


# ---------------------------------------------------------------------------
# Parameters


class Params:
    """Named-block real vector with an optional per-entry fixed mask.

    The values live in one flat float vector whose blocks are named by an
    immutable layout of (name, slice) pairs, shared by every ``replace``,
    ``with_free``, ``copy`` and ``pin`` result.  ``fixed_mask`` (read-only)
    marks pinned entries, which estimation and transforms treat as
    constants.  ``product`` joins parameter spaces, a Cartesian product
    that is associative up to block names; ``split`` cuts a joined vector
    back into its parts.
    """

    def __init__(self, blocks: Iterable[tuple[str, Sequence[float]]],
                 fixed_mask=None):
        names, values, i = [], [], 0
        for n, v in blocks:
            v = np.atleast_1d(np.asarray(v, dtype=float))
            names.append((str(n), slice(i, i + len(v))))
            values.append(v)
            i += len(v)
        self._layout = tuple(names)
        self._vec = np.concatenate(values) if values else np.empty(0)
        if fixed_mask is None:
            mask = np.zeros(i, dtype=bool)
        else:
            mask = np.array(fixed_mask, dtype=bool)
            if mask.shape != (i,):
                raise ModelError(f"fixed_mask length {mask.shape} != {i}")
        mask.flags.writeable = False
        self.fixed_mask = mask

    def _derive(self, vec: np.ndarray, mask: np.ndarray) -> "Params":
        """A Params over this layout that takes ownership of vec and mask."""
        out = object.__new__(Params)
        out._layout = self._layout
        out._vec = vec
        out.fixed_mask = mask
        return out

    @classmethod
    def scalars(cls, **kw: float) -> "Params":
        return cls([(k, [v]) for k, v in kw.items()])

    @classmethod
    def product(cls, parts) -> "Params":
        """Join (prefix, Params) parts: blocks renamed prefix + name, masks kept."""
        parts = list(parts)
        blocks = [(prefix + n, p._vec[s]) for prefix, p in parts
                  for n, s in p._layout]
        masks = [p.fixed_mask for _, p in parts]
        return cls(blocks, np.concatenate(masks) if masks else None)

    def split(self, shapes) -> list["Params"]:
        """Cut the vector into one piece per shape, each with its shape's mask."""
        out, i = [], 0
        for shape in shapes:
            j = i + len(shape)
            out.append(shape.replace(self._vec[i:j]))
            i = j
        if i != len(self):
            raise ModelError(f"split: parts cover {i} of {len(self)} values")
        return out

    @property
    def blocks(self) -> list[tuple[str, np.ndarray]]:
        return [(n, self._vec[s].copy()) for n, s in self._layout]

    def flatten(self) -> np.ndarray:
        return self._vec.copy()

    def __len__(self) -> int:
        return len(self._vec)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self._layout]

    def _slice(self, name: str) -> slice:
        for n, s in self._layout:
            if n == name:
                return s
        raise KeyError(name)

    def block(self, name: str) -> np.ndarray:
        return self._vec[self._slice(name)]

    def scalar(self, name: str) -> float:
        v = self.block(name)
        if len(v) != 1:
            raise ModelError(f"block {name!r} is not scalar")
        return float(v[0])

    def labels(self) -> list[str]:
        out = []
        for n, s in self._layout:
            k = s.stop - s.start
            out.extend([n] if k == 1 else [f"{n}[{i}]" for i in range(k)])
        return out

    def replace(self, vec) -> "Params":
        """Same shape and mask, values taken from the flat vector."""
        vec = np.array(vec, dtype=float)
        if vec.shape != self._vec.shape:
            raise ModelError(f"expected {len(self)} values, got {vec.shape}")
        return self._derive(vec, self.fixed_mask)

    def with_free(self, free_vec) -> "Params":
        """Fill only the unmasked entries from free_vec."""
        vec = self._vec.copy()
        vec[~self.fixed_mask] = np.asarray(free_vec, dtype=float)
        return self._derive(vec, self.fixed_mask)

    def free_values(self) -> np.ndarray:
        return self._vec[~self.fixed_mask]

    def with_blocks(self, **values) -> "Params":
        """Copy with the named blocks set; the mask is unchanged."""
        unknown = sorted(set(values) - set(self.names))
        if unknown:
            raise KeyError(f"unknown parameter block(s): {unknown}")
        vec = self._vec.copy()
        for name, v in values.items():
            s = self._slice(name)
            v = np.atleast_1d(np.asarray(v, dtype=float))
            if len(v) != s.stop - s.start:
                raise ModelError(
                    f"parameter {name!r} expects {s.stop - s.start} value(s)")
            vec[s] = v
        return self._derive(vec, self.fixed_mask)

    def pin(self, **kw: float) -> "Params":
        """Copy with the named scalar blocks set and marked fixed."""
        mask = self.fixed_mask.copy()
        for name, s in self._layout:
            if name in kw:
                if s.stop - s.start != 1:
                    raise ModelError(f"block {name!r} is not scalar; pin via mask")
                mask[s] = True
        mask.flags.writeable = False
        return self._derive(self.with_blocks(**kw)._vec, mask)

    def concat(self, other: "Params", prefix: tuple[str, str] | None = None) -> "Params":
        a, b = prefix or ("", "")
        return Params.product([(a, self), (b, other)])

    def copy(self) -> "Params":
        return self._derive(self._vec.copy(), self.fixed_mask)

    def __repr__(self):
        parts = ", ".join(f"{n}={np.array2string(self._vec[s], precision=6)}"
                          for n, s in self._layout)
        return f"Params({parts})"


EMPTY_PARAMS = Params([])


# ---------------------------------------------------------------------------
# Settings groups


def _positive(name, value):
    if value <= 0:
        raise ModelError(f"{name} must be strictly positive, got {value}")


@dataclass
class MleSettings:
    method: str = "nelder_mead"  # nelder_mead | annealing | coordinate_cycle
    tolerance: float = 1e-8
    max_iter: int = 5000
    restarts: int = 1

    def __post_init__(self):
        if self.method not in ("nelder_mead", "annealing", "coordinate_cycle"):
            raise ModelError(f"unknown MLE method {self.method!r}")
        _positive("tolerance", self.tolerance)
        _positive("max_iter", self.max_iter)
        _positive("restarts", self.restarts)


@dataclass
class McmcSettings:
    burnin: int = 2000
    proposal: object = None  # Model; isotropic Normal step when None
    step_scale: float = 1.0
    thin: int = 1

    def __post_init__(self):
        _positive("burnin", self.burnin)
        _positive("step_scale", self.step_scale)
        _positive("thin", self.thin)


@dataclass
class KdeSettings:
    kernel: object = None  # Model with closed-form likelihood; Normal when None
    bandwidth: Params | None = None


@dataclass
class TruncMcSettings:
    normalizer_draws: int = 10000

    def __post_init__(self):
        _positive("normalizer_draws", self.normalizer_draws)
