"""Core value types: data sets, parameter vectors, random streams, settings."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
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


def write_csv(path, headers, rows) -> None:
    """Header, then rows: strings as they are, numbers as repr(float)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(headers)
        for r in rows:
            w.writerow([c if isinstance(c, str) else repr(float(c)) for c in r])


def _owned(a, dtype=float) -> np.ndarray:
    """a as a read-only array of dtype that no writeable array shares,
    copied unless it already is one."""
    if (isinstance(a, np.ndarray) and not a.flags.writeable
            and a.dtype == dtype
            and (a.base is None or (isinstance(a.base, np.ndarray)
                                    and not a.base.flags.writeable))):
        return a
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def row_keys(rows: np.ndarray) -> np.ndarray:
    """A key per row of a 2-d float array, equal exactly where the rows'
    float64 bits are, so for the same point; keys sort as int64 bits by column."""
    bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
    return bits[:, 0] if bits.shape[1] == 1 else bits.view([("", "i8")] * bits.shape[1])[:, 0]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows' distinct rows by ``row_keys`` in key order, each row's index into them)."""
    keys, inv = np.unique(row_keys(rows), return_inverse=True)
    return keys.view(float).reshape(-1, rows.shape[1]), inv


class DataSet:
    """Ordered, weighted collection of fixed-dimension observation rows.

    Rows are stored as a float array of shape (n, dim); ``dim`` may be zero
    for models over an empty data space. Weights default to 1 per row.
    Optional integer ``groups`` labels partition rows into sub-datasets for
    hierarchical compositions.

    ``rows``, ``weights`` and ``groups`` are read-only arrays the data set
    owns: the input is copied unless it already is a read-only array that
    no writeable array shares, so writing to the caller's array afterwards
    changes nothing here.  A weight is how many times its row counts: a
    row of weight 0 counts for nothing but stays in place, and
    ``compressed`` merges repeated rows into one row with their summed
    weight.
    """

    def __init__(self, rows, weights=None, names: list[str] | None = None,
                 groups=None):
        arr = _owned(rows)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ModelError(f"rows must be 1- or 2-dimensional, got shape {arr.shape}")
        self.rows = arr
        n = arr.shape[0]
        if weights is None:
            w = np.ones(n)
            w.setflags(write=False)
        else:
            w = _owned(weights)
            if w.shape != (n,):
                raise ModelError(f"weights shape {w.shape} does not match {n} rows")
            if not np.all((0 <= w) & (w < np.inf)):  # nan fails both
                raise ModelError("weights must be finite and nonnegative")
            if n and not np.any(w > 0):
                raise ModelError("at least one weight must be positive")
        self.weights = w
        self.names = names
        self.groups = None if groups is None else _owned(groups, int)
        if self.groups is not None and self.groups.shape != (n,):
            raise ModelError("groups must label every row")

    def compressed(self) -> "DataSet":
        """The distinct rows, each once with the summed weight of its
        copies and with no groups, when at most a quarter of the rows are
        distinct; otherwise self, as for rows of no columns.

        Rows whose float64 bits are equal are copies (``distinct_rows``), so
        -0.0 and 0.0 stay two rows; the weights add in row order.  This is
        Apophenia's apop_data_pmf_compress.  It sorts, so a loop that scores
        one data set many times compresses it once before it starts, and a
        data set scored once is never examined.
        """
        n, dim = self.rows.shape
        if dim == 0:
            return self
        # a row set has at least as many distinct rows as any of its rows have
        # distinct first values, so sorting the first value of n/4 + 1 rows
        # rules out continuous data
        first = np.sort(self.rows[:n // 4 + 1, 0].view(np.int64))
        if 4 * (1 + np.count_nonzero(first[1:] != first[:-1])) > n:
            return self
        uniq, inv = distinct_rows(self.rows)
        if 4 * len(uniq) > n:
            return self
        return DataSet(uniq, np.bincount(inv, self.weights, len(uniq)), self.names)

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
        try:
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
        except OSError as e:
            raise ModelError(f"cannot read data file {path}: {e.strerror}") from None
        if not rows:
            return cls(np.empty((0, 0)))
        names = None
        first = rows[0]
        try:
            [float(x) for x in first]
        except ValueError:
            names = [c.strip() for c in first]
            rows = rows[1:]
        if len({len(r) for r in rows}) > 1:
            raise ModelError(f"data file {path}: rows differ in length")
        width = len(rows[0]) if rows else len(names)
        if names is not None and len(names) != width:
            raise ModelError(
                f"data file {path}: header has {len(names)} columns, rows have {width}")
        try:
            # reshape: a header-only file still has the header's width
            data = np.array([[float(x) for x in r] for r in rows]).reshape(-1, width)
        except ValueError as e:
            raise ModelError(f"data file {path}: {e}") from None
        weights = None
        if names and names[-1].lower() == "weight":
            weights = data[:, -1]
            data = data[:, :-1]
            names = names[:-1]
        return cls(data, weights=weights, names=names)

    def to_csv(self, path) -> None:
        weighted = not np.allclose(self.weights, 1.0)
        names = list(self.names or [f"c{i}" for i in range(self.dim)])
        rows = np.column_stack([self.rows, self.weights]) if weighted else self.rows
        write_csv(path, names + (["weight"] if weighted else []), rows)

    def __repr__(self):
        return f"DataSet({len(self)} rows, dim={self.dim})"


# ---------------------------------------------------------------------------
# Parameters


class Params:
    """Named-block real vector with an optional per-entry fixed mask.

    A Params is a value: its values live in one flat read-only float
    vector, and ``vector``, ``block``, ``blocks`` and ``split``'s parts are
    read-only views of it; ``flatten`` gives a writable copy.  Blocks are
    named by an immutable layout of (name, slice) pairs.  The layout and its
    name -> slice index (the first block wins when a name repeats) are built
    once and shared by every ``replace``, ``with_free`` and ``pin`` result,
    so ``block`` and ``scalar`` are one dict lookup.  ``fixed_mask`` marks
    pinned entries, which estimation and transforms treat as constants; its
    complement, the free entries ``with_free`` fills, is worked out once per
    mask.  ``product`` joins parameter spaces, a Cartesian product that is
    associative up to block names; ``split`` cuts a joined vector back into
    its parts.  ``stack`` fills K vectors over the layout at once.
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
        # reversed, so the first block of a repeated name is the one kept
        self._index = {n: s for n, s in reversed(self._layout)}
        self._vec = np.concatenate(values) if values else np.empty(0)
        self._vec.setflags(write=False)
        if fixed_mask is None:
            mask = np.zeros(i, dtype=bool)
        else:
            mask = np.array(fixed_mask, dtype=bool)
            if mask.shape != (i,):
                raise ModelError(f"fixed_mask length {mask.shape} != {i}")
        mask.flags.writeable = False
        self.fixed_mask = mask
        self._free = ~mask

    def _derive(self, vec: np.ndarray, mask: np.ndarray, kind=None) -> "Params":
        """A Params (or ``kind``) over this layout that takes ownership of
        vec and mask."""
        out = object.__new__(kind or Params)
        out._layout = self._layout
        out._index = self._index
        vec.setflags(write=False)
        out._vec = vec
        out.fixed_mask = mask
        out._free = self._free if mask is self.fixed_mask else ~mask
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
        return [(n, self._vec[s]) for n, s in self._layout]

    def flatten(self) -> np.ndarray:
        return self._vec.copy()

    @property
    def vector(self) -> np.ndarray:
        """The flat value vector itself, read-only; ``flatten`` copies it."""
        return self._vec

    def __len__(self) -> int:
        return len(self._vec)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self._layout]

    def block(self, name: str) -> np.ndarray:
        return self._vec[self._index[name]]

    def scalar(self, name: str) -> float:
        s = self._index[name]
        if s.stop - s.start != 1:
            raise ModelError(f"block {name!r} is not scalar")
        return float(self._vec[s.start])

    def labels(self) -> list[str]:
        out = []
        for n, s in self._layout:
            k = s.stop - s.start
            out.extend([n] if k == 1 else [f"{n}[{i}]" for i in range(k)])
        return out

    def replace(self, vec) -> "Params":
        """Same shape and mask, values from the flat vector, copied unless
        it is read-only and owned, as DataSet's rows."""
        vec = _owned(vec)
        if vec.shape != self._vec.shape:
            raise ModelError(f"expected {len(self)} values, got {vec.shape}")
        return self._derive(vec, self.fixed_mask)

    def with_free(self, free_vec) -> "Params":
        """Fill only the unmasked entries from free_vec."""
        vec = self._vec.copy()
        vec[self._free] = np.asarray(free_vec, dtype=float)
        return self._derive(vec, self.fixed_mask)

    def free_values(self) -> np.ndarray:
        return self._vec[self._free]

    @cached_property
    def _free_columns(self) -> tuple:
        """(where, count) of the free entries: where is a slice when they
        are contiguous, as when nothing or only a head or tail is pinned,
        else their indices."""
        at = np.flatnonzero(self._free)
        if at.size and at[-1] - at[0] + 1 == at.size:
            return slice(int(at[0]), int(at[-1]) + 1), at.size
        return at, at.size

    def stack(self, free_rows) -> "StackedParams":
        """K vectors over this layout and mask at once: row k of the (K,
        n_free) array fills the free entries of vector k, as ``with_free``
        does, and the pinned entries keep their values."""
        free = np.asarray(free_rows, dtype=float)
        at, n_free = self._free_columns
        if free.ndim != 2 or free.shape[1] != n_free:
            raise ModelError(f"stack: expected a (K, {n_free}) array of free "
                             f"values, got shape {free.shape}")
        if n_free == len(self._vec):
            vec = free.copy()
        else:
            vec = np.empty((free.shape[0], len(self._vec)))
            vec[:] = self._vec
            vec[:, at] = free
        return self._derive(vec, self.fixed_mask, StackedParams)

    def with_blocks(self, **values) -> "Params":
        """Copy with the named blocks set; the mask is unchanged."""
        unknown = sorted(set(values) - self._index.keys())
        if unknown:
            raise KeyError(f"unknown parameter block(s): {unknown}")
        vec = self._vec.copy()
        for name, v in values.items():
            s = self._index[name]
            v = np.atleast_1d(np.asarray(v, dtype=float))
            if len(v) != s.stop - s.start:
                raise ModelError(
                    f"parameter {name!r} expects {s.stop - s.start} value(s)")
            vec[s] = v
        return self._derive(vec, self.fixed_mask)

    def pin(self, **kw: float) -> "Params":
        """Copy with the named scalar blocks (of a repeated name, the first)
        set and marked fixed; ``with_blocks`` raises on unknown names."""
        mask = self.fixed_mask.copy()
        for name in [n for n in kw if n in self._index]:
            s = self._index[name]
            if s.stop - s.start != 1:
                raise ModelError(f"block {name!r} is not scalar; pin via mask")
            mask[s] = True
        mask.flags.writeable = False
        return self._derive(self.with_blocks(**kw)._vec, mask)

    def __repr__(self):
        parts = ", ".join(f"{n}={np.array2string(self._vec[..., s], precision=6)}"
                          for n, s in self._layout)
        return f"{type(self).__name__}({parts})"


class StackedParams(Params):
    """K parameter vectors over one layout, made by ``Params.stack``.

    ``vector`` is the (K, n) array of values, one vector per row, and
    ``len`` is K.  ``block`` gives a (K, width) array and ``scalar`` a (K, 1)
    column, so an element written with array arithmetic scores all K
    vectors at once.  ``P[k]`` is vector k as a Params; ``P[ks]``, for a
    slice or an index array, is the StackedParams of those rows.  Only
    these reads, ``names``, ``labels`` and ``fixed_mask`` apply to a stack:
    the flat reads and the methods that make a changed vector work on one
    vector, and on a stack they raise ModelError.
    """

    def __len__(self) -> int:
        return self._vec.shape[0]

    def __getitem__(self, k) -> Params:
        if isinstance(k, (int, np.integer)):
            return self._derive(self._vec[k], self.fixed_mask)
        return self._derive(self._vec[k], self.fixed_mask, StackedParams)

    def block(self, name: str) -> np.ndarray:
        return self._vec[:, self._index[name]]

    def scalar(self, name: str) -> np.ndarray:
        s = self._index[name]
        if s.stop - s.start != 1:
            raise ModelError(f"block {name!r} is not scalar")
        return self._vec[:, s]


def _one_vector_only(name: str):
    def refuse(self, *args, **kwargs):
        raise ModelError(f"StackedParams.{name}: a stack holds {len(self)} "
                         f"parameter vectors; take vector k as P[k] first")
    return refuse


for _name in ("split", "flatten", "replace", "with_free", "free_values",
              "stack", "with_blocks", "pin"):
    setattr(StackedParams, _name, _one_vector_only(_name))
StackedParams.blocks = property(_one_vector_only("blocks"))


EMPTY_PARAMS = Params([])


# ---------------------------------------------------------------------------
# Settings groups


def _positive(name, value):
    if value <= 0:
        raise ModelError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class MleSettings:
    """One optimizer run over the free parameters, from the model's values."""
    method: str = "nelder_mead"  # nelder_mead | annealing | coordinate_cycle
    tolerance: float = 1e-8  # simplex size and value change that stop a run
    max_iter: int = 5000  # evaluation cap; annealing takes max(max_iter, 200) steps

    def __post_init__(self):
        if self.method not in ("nelder_mead", "annealing", "coordinate_cycle"):
            raise ModelError(f"unknown MLE method {self.method!r}")
        _positive("tolerance", self.tolerance)
        _positive("max_iter", self.max_iter)


@dataclass(frozen=True)
class McmcSettings:
    """Random-walk Metropolis with an isotropic Normal step."""
    burnin: int = 2000  # steps discarded before the first kept sample
    step_scale: float = 1.0  # standard deviation of the step in every coordinate
    thin: int = 1  # keep every thin-th step after burnin

    def __post_init__(self):
        _positive("burnin", self.burnin)
        _positive("step_scale", self.step_scale)
        _positive("thin", self.thin)


@dataclass(frozen=True)
class KdeSettings:
    """Smooth a memoized PMF: on each support point, the product of
    coordinate Normals, coordinate j with Silverman's bandwidth h_j."""
