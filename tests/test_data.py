"""Value types: data sets, parameter vectors, random streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelkit import DataSet, ModelError, Params, RandomStream


def test_dataset_csv_round_trip(tmp_path):
    d = DataSet(np.array([[1.0, 2.0], [3.0, 4.0]]), weights=[1.0, 2.5],
                names=["a", "b"])
    path = tmp_path / "d.csv"
    d.to_csv(path)
    back = DataSet.from_csv(path)
    assert np.array_equal(back.rows, d.rows)
    assert np.array_equal(back.weights, d.weights)
    assert back.names == ["a", "b"]


def test_dataset_headerless_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,2\n3,4\n")
    d = DataSet.from_csv(path)
    assert d.rows.shape == (2, 2)
    assert d.names is None
    assert np.all(d.weights == 1.0)


def test_dataset_validation():
    with pytest.raises(ModelError, match="weights"):
        DataSet(np.zeros((3, 1)), weights=[1.0, 2.0])
    with pytest.raises(ModelError, match="nonnegative"):
        DataSet(np.zeros((2, 1)), weights=[1.0, -1.0])
    with pytest.raises(ModelError, match="groups"):
        DataSet(np.zeros((3, 1)), groups=[0, 1])


def test_dataset_group_list():
    d = DataSet(np.arange(6.0).reshape(-1, 1), groups=[1, 0, 1, 0, 2, 2])
    parts = d.group_list()
    assert [len(p) for p in parts] == [2, 2, 2]
    assert parts[0].rows[:, 0].tolist() == [1.0, 3.0]


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


def test_params_concat_prefixes():
    a = Params.scalars(x=1.0)
    b = Params.scalars(x=2.0).pin(x=2.0)
    c = a.concat(b, prefix=("l.", "r."))
    assert c.labels() == ["l.x", "r.x"]
    assert c.fixed_mask.tolist() == [False, True]


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
    # no result shares storage with its source
    assert np.array_equal(p.flatten(), before)
    assert np.array_equal(p.copy().flatten(), before)


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
