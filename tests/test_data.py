"""Value types: data sets, parameter vectors, random streams, settings."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelkit import (DataSet, KdeSettings, McmcSettings, MleSettings,
                      ModelError, Params, RandomStream, StackedParams, builtin)
from modelkit import model as core


def test_dataset_csv_round_trip(tmp_path):
    d = DataSet(np.array([[1.0, 2.0], [3.0, 4.0]]), weights=[1.0, 2.5],
                names=["a", "b"])
    path = tmp_path / "d.csv"
    d.to_csv(path)
    back = DataSet.from_csv(path)
    assert np.array_equal(back.rows, d.rows)
    assert np.array_equal(back.weights, d.weights)
    assert back.names == ["a", "b"]
    path.write_text("x,weight\n")  # header only: no rows, one data column
    assert DataSet.from_csv(path).rows.shape == (0, 1)
    path.write_text("")  # an empty file: no rows, no columns
    assert DataSet.from_csv(path).rows.shape == (0, 0)
    path.write_text("x,weight\n1,nan\n2,1\n3,1\n")
    with pytest.raises(ModelError, match="weights must be finite"):
        DataSet.from_csv(path)


def test_dataset_headerless_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,2\n3,4\n")
    d = DataSet.from_csv(path)
    assert d.rows.shape == (2, 2)
    assert d.names is None
    assert np.all(d.weights == 1.0)


def test_dataset_validation():
    with pytest.raises(ModelError, match=r"weights shape \(2,\) does not match 3 rows"):
        DataSet(np.zeros((3, 1)), weights=[1.0, 2.0])
    with pytest.raises(ModelError, match="nonnegative"):
        DataSet(np.zeros((2, 1)), weights=[1.0, -1.0])
    with pytest.raises(ModelError, match="at least one weight must be positive"):
        DataSet(np.zeros((2, 1)), weights=[0.0, 0.0])
    # a weight that is not finite would drop its row from a weighted sum
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError, match="weights must be finite"):
            DataSet(np.array([[1.0], [2.0], [3.0]]), weights=[bad, 1.0, 1.0])
    with pytest.raises(ModelError, match="groups"):
        DataSet(np.zeros((3, 1)), groups=[0, 1])


def test_dataset_arrays_are_read_only():
    d = DataSet(np.array([[1.0], [2.0]]), weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        d.rows[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        d.weights[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        DataSet([1.0, 2.0]).weights[1] = 3.0


def test_dataset_groups_are_a_read_only_copy():
    g = np.array([0, 1, 0, 1])
    d = DataSet(np.arange(4.0), groups=g)
    g[:] = 7  # the caller's array, not the data set's
    assert [p.rows[:, 0].tolist() for p in d.group_list()] == [[0.0, 2.0], [1.0, 3.0]]
    with pytest.raises(ValueError, match="read-only"):
        d.groups[0] = 1


def test_dataset_owns_its_arrays():
    rows, w = np.arange(40.0) % 4, np.ones(40)
    d = DataSet(rows, w)
    m, p = builtin("poisson"), Params.scalars(lam=2.0)
    before = core.log_likelihood(m, d, p)
    c = d.compressed()
    rows[:] = 7.0
    w[:] = 5.0
    assert core.log_likelihood(m, d, p) == before
    assert d.compressed().rows.tobytes() == c.rows.tobytes()
    assert d.compressed().weights.tobytes() == c.weights.tobytes()
    # a read-only view of a writeable array is copied as well
    view = rows.view()
    view.flags.writeable = False
    assert not np.shares_memory(DataSet(view).rows, rows)
    # another data set's arrays are shared, not copied
    e = DataSet(d.rows, d.weights)
    assert e.rows is d.rows and e.weights is d.weights


def test_dataset_compressed_merges_repeated_rows():
    rows = np.array([[2.0, 1.0], [0.0, 1.0], [2.0, 1.0], [2.0, 0.0]] * 4)
    d = DataSet(rows, weights=[1.0, 0.0, 2.0, 0.5] * 4, names=["a", "b"])
    c = d.compressed()
    # the distinct rows in the order of their bits, each with the weights of
    # its copies added, zero weights included
    assert c.rows.tolist() == [[0.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    assert c.weights.tolist() == [0.0, 2.0, 12.0] and c.names == ["a", "b"]
    assert not c.rows.flags.writeable and not c.weights.flags.writeable
    # more than a quarter of the rows distinct, and rows of no columns, stay
    # as they are
    for same in (DataSet(rows[:8]), DataSet(np.empty((16, 0)))):
        assert same.compressed() is same


def test_dataset_group_list():
    d = DataSet(np.arange(6.0).reshape(-1, 1), groups=[1, 0, 1, 0, 2, 2])
    parts = d.group_list()
    assert [len(p) for p in parts] == [2, 2, 2]
    assert parts[0].rows[:, 0].tolist() == [1.0, 3.0]
    ungrouped = DataSet(np.arange(3.0))
    assert len(ungrouped.group_list()) == 1
    assert ungrouped.group_list()[0] is ungrouped


def test_dataset_sorted_is_lexicographic():
    d = DataSet(np.array([[2.0, 1.0], [1.0, 5.0], [1.0, 2.0]]))
    s = d.sorted()
    assert s.rows.tolist() == [[1.0, 2.0], [1.0, 5.0], [2.0, 1.0]]


def test_params_blocks_and_labels():
    p = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])])
    assert len(p) == 3
    assert p.labels() == ["mu[0]", "mu[1]", "sigma"]
    assert p.scalar("sigma") == 3.0
    with pytest.raises(ModelError, match="not scalar"):
        p.scalar("mu")


def test_params_pin_and_free():
    p = Params.scalars(a=1.0, b=2.0).pin(b=5.0)
    assert p.fixed_mask.tolist() == [False, True]
    assert p.free_values().tolist() == [1.0]
    q = p.with_free([9.0])
    assert q.flatten().tolist() == [9.0, 5.0]
    with pytest.raises(KeyError):
        p.pin(c=0.0)


def test_params_with_blocks_sets_values_and_keeps_mask():
    p = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])]).pin(sigma=3.0)
    q = p.with_blocks(mu=[5.0, 6.0])
    assert q.flatten().tolist() == [5.0, 6.0, 3.0]
    assert q.fixed_mask.tolist() == [False, False, True]
    assert p.flatten().tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ModelError, match="expects 2"):
        p.with_blocks(mu=1.0)
    with pytest.raises(KeyError):
        p.with_blocks(nu=1.0)
    with pytest.raises(ModelError, match="not scalar"):
        p.pin(mu=1.0)


def test_params_repeated_block_name_resolves_to_its_first_block():
    p = Params([("a", [1.0]), ("b", [2.0, 3.0]), ("a", [4.0, 5.0])])
    for q in (p, p.replace([6.0, 7.0, 8.0, 9.0, 10.0]).replace(p.flatten()),
              p.with_free(p.free_values())):
        assert q.scalar("a") == 1.0
        assert q.block("a").tolist() == [1.0]
    assert p.with_blocks(a=9.0).flatten().tolist() == [9.0, 2.0, 3.0, 4.0, 5.0]


def test_params_lookup_errors():
    p = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])])
    for q in (p, p.pin(sigma=3.0), p.with_free([0.0, 0.0, 0.0])):
        with pytest.raises(KeyError, match="nu"):
            q.scalar("nu")
        with pytest.raises(KeyError, match="nu"):
            q.block("nu")
        with pytest.raises(ModelError, match="block 'mu' is not scalar"):
            q.scalar("mu")


def test_params_values_are_read_only_and_flatten_is_a_writable_copy():
    p = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])]).pin(sigma=3.0)
    P = p.stack([[4.0, 5.0], [6.0, 7.0]])
    joined = Params.product([("a.", p), ("b.", p)])
    reads = [p.vector, p.block("mu"), *(v for _, v in p.blocks),
             *(q.vector for q in joined.split([p, p])), joined.vector,
             p.replace([7.0, 8.0, 9.0]).vector, p.with_free([0.0, 0.0]).vector,
             p.with_blocks(mu=[0.0, 0.0]).vector, Params.scalars(a=1.0).pin(a=2.0).vector,
             P.vector, P.block("mu"), P.scalar("sigma"), P[1].vector, P[1:].vector,
             P[np.array([1, 0])].vector]
    for v in reads:
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0.0
    flat = p.flatten()
    flat[:] = 0.0
    assert p.flatten().tolist() == [1.0, 2.0, 3.0]
    # replace keeps a read-only vector as it is and copies a writable one
    assert np.shares_memory(p.replace(P[1].vector).vector, P.vector)
    vec = np.zeros(3)
    q = p.replace(vec)
    vec[0] = 5.0
    assert not np.shares_memory(q.vector, vec) and q.flatten().tolist() == [0.0] * 3


@pytest.mark.parametrize("record, name, good, bad, message", [
    (MleSettings(), "method", "annealing", "bfgs", "unknown MLE method 'bfgs'"),
    (MleSettings(), "tolerance", 1e-4, 0.0, "tolerance must be strictly positive"),
    (McmcSettings(), "burnin", 10, -1, "burnin must be strictly positive"),
    (McmcSettings(), "step_scale", 0.5, 0.0, "step_scale must be strictly positive"),
    (McmcSettings(), "thin", 2, 0, "thin must be strictly positive"),
], ids=["mle-method", "mle-tolerance", "mcmc-burnin", "mcmc-step_scale", "mcmc-thin"])
def test_settings_records_are_frozen_and_replace_checks_again(record, name, good, bad,
                                                              message):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, bad)
    assert getattr(dataclasses.replace(record, **{name: good}), name) == good
    with pytest.raises(ModelError, match=message):
        dataclasses.replace(record, **{name: bad})


def test_kde_settings_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KdeSettings().bandwidth = 1.0


def test_stacked_params_blocks_scalars_and_rows():
    base = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])]).pin(sigma=3.0)
    free = np.array([[10.0, 20.0], [11.0, 21.0], [12.0, 22.0]])
    P = base.stack(free)
    assert isinstance(P, StackedParams) and len(P) == 3
    assert P.vector.shape == (3, 3)
    assert P.block("mu").shape == (3, 2) and P.block("sigma").shape == (3, 1)
    assert P.scalar("sigma").shape == (3, 1)
    assert P.scalar("sigma")[:, 0].tolist() == [3.0, 3.0, 3.0]  # pinned
    assert P.block("mu").tolist() == free.tolist()
    assert P.names == ["mu", "sigma"] and P.labels() == ["mu[0]", "mu[1]", "sigma"]
    for k in range(3):
        q = P[k]
        assert type(q) is Params
        assert q.flatten().tolist() == base.with_free(free[k]).flatten().tolist()
        assert q.fixed_mask.tolist() == base.fixed_mask.tolist()
        assert q.scalar("sigma") == 3.0
    tail = P[1:]
    assert isinstance(tail, StackedParams) and len(tail) == 2
    assert tail.vector.tolist() == P.vector[1:].tolist()
    assert P[np.array([2, 0])].block("mu")[:, 0].tolist() == [12.0, 10.0]
    # no vectors at all is a stack of none
    assert base.stack(np.empty((0, 2))).scalar("sigma").shape == (0, 1)


@pytest.mark.parametrize("pinned", [(), ("a",), ("b",), ("c",), ("a", "c"), ("a", "b", "c")],
                         ids=["none", "head", "middle", "tail", "ends", "all"])
def test_stack_fills_the_free_entries_at_every_pin_pattern(pinned):
    # the free entries may be all, a contiguous run, scattered, or none
    base = Params.scalars(a=1.0, b=2.0, c=3.0).pin(**{n: -1.0 for n in pinned})
    n_free = 3 - len(pinned)
    free = np.arange(1.0, 1.0 + 2 * n_free).reshape(2, n_free) * 10.0
    P = base.stack(free)
    want = [base.with_free(row).vector.tobytes() for row in free]
    free[:] = 0.0  # the stack holds its own copy of the caller's rows
    assert [P[k].vector.tobytes() for k in range(2)] == want


def test_stacked_params_errors():
    base = Params([("mu", [1.0, 2.0]), ("sigma", [3.0])])
    P = base.stack(np.zeros((2, 3)))
    with pytest.raises(KeyError, match="nu"):
        P.scalar("nu")
    with pytest.raises(KeyError, match="nu"):
        P.block("nu")
    with pytest.raises(ModelError, match="block 'mu' is not scalar"):
        P.scalar("mu")
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 3, 1))):
        with pytest.raises(ModelError, match=r"stack: expected a \(K, 3\) array"):
            base.stack(bad)
    with pytest.raises(ModelError, match=r"expected a \(K, 2\) array .* shape \(2, 3\)"):
        base.pin(sigma=3.0).stack(np.zeros((2, 3)))
    # the flat reads and the copy-making methods take one vector, not a stack
    for name, call in [("split", lambda: P.split([base])), ("flatten", P.flatten),
                       ("replace", lambda: P.replace(np.zeros((2, 3)))),
                       ("with_free", lambda: P.with_free(np.zeros(3))),
                       ("free_values", P.free_values),
                       ("stack", lambda: P.stack(np.zeros((2, 3)))),
                       ("with_blocks", lambda: P.with_blocks(sigma=1.0)),
                       ("pin", lambda: P.pin(sigma=1.0)),
                       ("blocks", lambda: P.blocks)]:
        with pytest.raises(ModelError, match=rf"StackedParams\.{name}: a stack "
                                             rf"holds 2 parameter vectors; take"):
            call()
    assert P[1].flatten().tolist() == [0.0, 0.0, 0.0]  # one vector still copies


def test_params_repr_plain_and_stacked():
    p = Params([("mu", [1.0, 2.5]), ("sigma", [3.0])])
    assert repr(p) == "Params(mu=[1.  2.5], sigma=[3.])"
    P = p.stack([[1.0, 2.5, 3.0], [4.0, 5.0, 6.0]])
    assert repr(P) == "StackedParams(mu=[[1.  2.5]\n [4.  5. ]], sigma=[[3.]\n [6.]])"


def _fill_free(p, free):
    vec = p.flatten()
    vec[~p.fixed_mask] = free
    return vec.tolist()


def test_params_with_free_fills_the_free_entries_of_each_mask():
    base = Params([("a", [1.0]), ("b", [2.0, 3.0]), ("c", [4.0])])
    pinned = base.pin(c=40.0)
    twice = pinned.pin(a=10.0)
    joined = Params.product([("x.", twice), ("y.", base), ("z.", pinned)])
    parts = joined.split([twice, base, pinned])
    for p in (base, pinned, twice, joined, *parts, joined.replace(joined.flatten())):
        free = -1.0 - np.arange(int((~p.fixed_mask).sum()))
        assert p.with_free(free).flatten().tolist() == _fill_free(p, free)
        assert p.free_values().tolist() == p.flatten()[~p.fixed_mask].tolist()
    # pinning makes a new mask and leaves its source's free entries alone
    assert base.with_free([7.0, 8.0, 9.0, 6.0]).flatten().tolist() == [7.0, 8.0, 9.0, 6.0]
    assert twice.with_free([7.0, 8.0]).flatten().tolist() == [10.0, 7.0, 8.0, 40.0]
    assert joined.with_free(np.zeros(9)).flatten().tolist() == [
        10.0, 0.0, 0.0, 40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 40.0]


def test_params_split_checks_coverage():
    p = Params.scalars(a=1.0, b=2.0)
    with pytest.raises(ModelError, match="cover"):
        p.split([Params.scalars(a=0.0)])


_value = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _params(draw):
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    blocks = [(f"b{i}", draw(st.lists(_value, min_size=k, max_size=k)))
              for i, k in enumerate(sizes)]
    mask = draw(st.lists(st.booleans(), min_size=sum(sizes), max_size=sum(sizes)))
    return Params(blocks, mask)


@settings(max_examples=30, deadline=None)
@given(st.lists(_params(), min_size=1, max_size=3))
def test_product_then_split_gives_back_the_parts_property(parts):
    joined = Params.product((f"{i}.", p) for i, p in enumerate(parts))
    assert joined.labels() == [f"{i}.{lab}" for i, p in enumerate(parts)
                               for lab in p.labels()]
    assert joined.fixed_mask.tolist() == [b for p in parts for b in p.fixed_mask]
    for p, q in zip(parts, joined.split(parts)):
        assert q.labels() == p.labels()
        assert np.array_equal(q.flatten(), p.flatten())
        assert np.array_equal(q.fixed_mask, p.fixed_mask)


@settings(max_examples=30, deadline=None)
@given(_params(), st.data())
def test_replace_with_free_pin_with_blocks_round_trip_property(p, data):
    before = p.flatten()
    vec = np.array(data.draw(st.lists(_value, min_size=len(p), max_size=len(p))),
                   dtype=float)
    q = p.replace(vec)
    assert np.array_equal(q.flatten(), vec)
    assert q.labels() == p.labels()
    assert np.array_equal(q.fixed_mask, p.fixed_mask)
    assert np.array_equal(q.replace(before).flatten(), before)
    # with_free fills the free entries and keeps the pinned ones
    r = p.with_free(q.free_values())
    assert np.array_equal(r.free_values(), q.free_values())
    assert np.array_equal(r.flatten()[p.fixed_mask], before[p.fixed_mask])
    assert np.array_equal(p.with_free(p.free_values()).flatten(), before)
    # with_blocks of another point's blocks moves to that point, mask kept
    s = p.with_blocks(**dict(q.blocks))
    assert np.array_equal(s.flatten(), vec)
    assert np.array_equal(s.fixed_mask, p.fixed_mask)
    # pin = with_blocks plus the mask
    scalars = {n: v[0] for n, v in q.blocks if len(v) == 1}
    pinned = p.pin(**scalars)
    assert np.array_equal(pinned.flatten(), p.with_blocks(**scalars).flatten())
    for n in scalars:
        assert pinned.fixed_mask[pinned.labels().index(n)]
    assert np.array_equal(pinned.with_free(pinned.free_values()).flatten(),
                          pinned.flatten())
    # no vector can be written, so every result leaves its source as it was
    for out in (p, q, r, s, pinned, q.replace(before)):
        with pytest.raises(ValueError, match="read-only"):
            out.vector[...] = 0.0
    assert np.array_equal(p.flatten(), before)


def test_stream_reproducible_and_split_independent():
    a = RandomStream(7).normal(size=5)
    b = RandomStream(7).normal(size=5)
    assert np.array_equal(a, b)
    parent = RandomStream(7)
    c0 = parent.split(0).normal(size=5)
    c1 = parent.split(1).normal(size=5)
    assert not np.array_equal(c0, c1)
    # splitting does not perturb the parent
    assert np.array_equal(RandomStream(7).normal(size=5), a)


def test_stream_path_seeding():
    assert np.array_equal(RandomStream((1, 2)).uniform(size=3),
                          RandomStream(1).split(2).uniform(size=3))


def test_stream_and_dataset_reprs():
    assert repr(RandomStream(7).split(3)) == "RandomStream(7, 3)"
    assert repr(DataSet(np.zeros((3, 2)))) == "DataSet(3 rows, dim=2)"


def test_params_pin_sets_and_fixes_only_the_first_block_of_a_repeated_name():
    # the second, two-entry block named "a" is neither checked nor pinned
    p = Params([("a", [1.0]), ("a", [4.0, 5.0])]).pin(a=1.0)
    assert p.flatten().tolist() == [1.0, 4.0, 5.0]
    assert p.fixed_mask.tolist() == [True, False, False]
    q = Params([("a", [1.0]), ("b", [2.0]), ("a", [3.0])]).pin(a=7.0)
    assert q.flatten().tolist() == [7.0, 2.0, 3.0]
    assert q.fixed_mask.tolist() == [True, False, False]


@pytest.mark.parametrize("call, message", [
    (lambda: DataSet(np.zeros((2, 2, 2))),
     r"rows must be 1- or 2-dimensional, got shape \(2, 2, 2\)"),
    (lambda: Params([("a", [1.0])], fixed_mask=[True, False]),
     r"fixed_mask length \(2,\) != 1"),
    (lambda: Params.scalars(a=1.0).replace([1.0, 2.0]), r"expected 1 values, got \(2,\)"),
], ids=["rows-ndim", "mask-length", "replace-length"])
def test_data_errors_name_their_cause(call, message):
    with pytest.raises(ModelError, match=message):
        call()
