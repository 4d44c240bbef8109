"""Shortfall ratchet: how far the radius estimators end below the grid oracle.

A fixed corpus, 20 Gaussian maps seeded ``[11, i, k]`` per tree and degree
k, scored by each estimator at its default budget (map i draws its starts
from seed i): the numerical radius at k = 1 and 2 on every tree, the
absolute radius on the flat ones.  The references are the grid oracle at
resolution 2^14, computed once and committed with the two figures of every
cell: how many maps end more than ``SHORT`` (relative) below the grid, and
the worst such shortfall.  A change that lowers a cell may commit the lower
figures; one that raises a cell fails here.  Regenerate the references (not
the committed figures) with ``python tests/test_shortfall.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from numindex.operators import Operator
from numindex.radius import (DEFAULT_RESTARTS, absolute_radius, radius_grid_oracle,
                             radius_stack)
from numindex.spaces import gaussian, parse_descriptor

DATA = Path(__file__).parent / "data" / "shortfall.json"
MAPS = 20
RESOLUTION = 2 ** 14
#: relative shortfall below which a map counts as reaching the grid
SHORT = 1e-5

CELLS = json.loads(DATA.read_text())["cells"]


def _maps(desc, degree):
    shape = (desc.total_dim,) * (degree + 1)
    return [Operator(gaussian(desc, np.random.default_rng([11, i, degree]), shape), desc)
            for i in range(MAPS)]


def _cell_maps(cell):
    desc = parse_descriptor(cell["space"])
    return _maps(desc, 1 if cell["quantity"] == "absolute" else cell["quantity"])


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c['space']}-{c['quantity']}")
def test_shortfall_does_not_grow(cell):
    absolute = cell["quantity"] == "absolute"
    est = radius_stack(_cell_maps(cell), DEFAULT_RESTARTS,
                       [np.random.default_rng(i) for i in range(MAPS)], absolute=absolute)
    shortfall = [max(0.0, (g - e.value) / g) for g, e in zip(cell["grid"], est)]
    short = [s for s in shortfall if s > SHORT]
    assert len(short) <= cell["short"], shortfall
    assert max(short, default=0.0) <= cell["worst"], shortfall


def _grid(cell):
    absolute = cell["quantity"] == "absolute"
    return [(absolute_radius(T, method="grid", resolution=RESOLUTION) if absolute
             else radius_grid_oracle(T, RESOLUTION)).value for T in _cell_maps(cell)]


if __name__ == "__main__":
    table = json.loads(DATA.read_text())
    for cell in table["cells"]:
        cell["grid"] = _grid(cell)
        print(cell["space"], cell["quantity"], file=sys.stderr)
    DATA.write_text(json.dumps(table, indent=1) + "\n")
