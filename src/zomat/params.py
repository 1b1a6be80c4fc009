"""The optimization variable: an ordered collection of named matrix blocks.

Blocks are 2-d float arrays.  What an optimizer does with a block follows
from its shape alone: the matrix methods hold a factor for a block with more
than one row and more than one column, and give a one-row or one-column block
(an mlp's bias) the full-space estimate (see ``optimizers._held_factors``).
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix


class ParamSpace:
    """Ordered, named matrix blocks.

    Immutable by convention: optimizer steps produce new spaces via
    :meth:`updated` instead of writing into block arrays.  Construction
    checks every block (2-d, positive dims, finite); :meth:`updated` only
    checks names and shapes, since it runs once per query.
    """

    def __init__(self, blocks):
        self._blocks = {}
        for name, value in dict(blocks).items():
            arr = np.atleast_2d(np.asarray(value, dtype=float))
            self._blocks[str(name)] = as_matrix(arr, name=f"block {name!r}")
        if not self._blocks:
            raise ValueError("ParamSpace needs at least one block")
        self._index = {name: i for i, name in enumerate(self._blocks)}

    @property
    def names(self) -> tuple:
        return tuple(self._blocks)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def items(self):
        return self._blocks.items()

    def index(self, name: str) -> int:
        """Position of a block in the fixed ordering (used for seed splits)."""
        return self._index[name]

    def copy(self) -> "ParamSpace":
        return ParamSpace({name: value.copy() for name, value in self._blocks.items()})

    def updated(self, changes) -> "ParamSpace":
        """New space with some blocks replaced; shapes must be preserved.

        The result shares this space's ordering and skips the
        finiteness scan of construction: a non-finite iterate surfaces as a
        non-finite objective value, which callers check.
        """
        blocks = dict(self._blocks)
        for name, value in changes.items():
            if name not in blocks:
                raise KeyError(f"unknown block {name!r}")
            arr = np.asarray(value, dtype=float)
            if arr.shape != blocks[name].shape:
                raise ValueError(
                    f"block {name!r} shape changed from "
                    f"{blocks[name].shape} to {arr.shape}"
                )
            blocks[name] = arr
        new = object.__new__(type(self))
        new._blocks, new._index = blocks, self._index
        return new
