import numpy as np
import pytest

from zomat.objectives import Objective
from zomat.optimizers import SUBSPACE_MEZO, OptimizerConfig, OptimizerState, step
from zomat.params import ParamSpace


def small_space():
    return ParamSpace({"w": np.ones((3, 4)), "b": np.zeros((1, 4)), "v": np.ones((2, 2))})


def test_ordering():
    space = small_space()
    assert space.names == ("w", "b", "v")
    assert [name for name, _ in space.items()] == ["w", "b", "v"]


def test_one_d_coerced_to_row():
    space = ParamSpace({"b": np.arange(3.0)})
    assert space["b"].shape == (1, 3)


def test_partition_is_exact():
    # a step holds a factor for each block with more than one row and more
    # than one column, in order; one-row and one-column blocks get none
    space = ParamSpace({**dict(small_space().items()), "c": np.ones((4, 1))})
    state = OptimizerState()
    cfg = OptimizerConfig(learning_rate=1e-2, rank=2)
    step(SUBSPACE_MEZO, Objective("zero", lambda x: 0.0, space), space, cfg, state)
    assert list(state.factors[1]) == ["w", "v"]


def test_updated_preserves_others_and_order():
    space = small_space()
    new = space.updated({"w": 2 * np.ones((3, 4))})
    assert new.names == space.names
    assert np.all(new["w"] == 2.0)
    assert np.all(space["w"] == 1.0)
    assert np.all(new["b"] == space["b"])


def test_updated_rejects_shape_change():
    with pytest.raises(ValueError, match="shape"):
        small_space().updated({"w": np.ones((2, 2))})
    with pytest.raises(ValueError, match="shape"):
        small_space().updated({"b": np.zeros(4)})  # no 1-d coercion on update


def test_updated_rejects_unknown_block():
    with pytest.raises(KeyError):
        small_space().updated({"nope": np.ones((1, 1))})


def test_copy_is_independent():
    space = small_space()
    clone = space.copy()
    clone["w"][0, 0] = 99.0
    assert space["w"][0, 0] == 1.0


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ParamSpace({"w": np.array([[np.inf]])})
    with pytest.raises(ValueError, match="non-finite"):
        ParamSpace({"w": np.eye(2), "b": np.array([0.0, np.nan])})


def test_updated_keeps_order_and_float_blocks():
    space = small_space()
    new = space.updated({"b": np.full((1, 4), 3.0)}).updated({"v": [[1, 2], [3, 4]]})
    assert new.names == ("w", "b", "v")
    assert new["v"].dtype == float and new["v"][1, 1] == 4.0


def test_rejects_empty():
    with pytest.raises(ValueError):
        ParamSpace({})

