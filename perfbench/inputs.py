"""Seeded inputs for the four workloads.

The program receives only what this module writes.  A seed never changes
how much work a pass does, only which equivalent inputs it gets, so that
runs with different seeds measure the same cost:

* ``check-all`` and ``fierz-table`` run fixed commands and take no input.
* ``readback`` reads back the stored texts of ``data/readback_texts.json``
  (rebuilt by ``make_readback_texts.py``) in a seeded order.
* ``chromatic`` evaluates fixed network shapes under seeded relabellings:
  a theta's three labels in a seeded order, and each tetrahedron both as
  given and under a seeded symmetry of K4.  A relabelling keeps the state
  count, so it keeps the work.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
READBACK_TEXTS = DATA / "readback_texts.json"

#: Theta networks, as label multisets.  (5, 5, 4) has 345,600 states.
THETAS = ((5, 5, 4), (4, 4, 4))

#: Tetrahedron labels in the edge order (12, 13, 14, 23, 24, 34).
TETRAHEDRA = (
    (2, 2, 2, 2, 2, 2),
    (3, 2, 3, 1, 2, 3),
    (4, 3, 1, 3, 1, 2),
    (4, 4, 0, 4, 0, 0),
)

#: Cables of a lines closed through one antisymmetrizer rectangle.
CABLES = (3, 4, 5, 6)

K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def theta_doc(labels) -> dict:
    """Two vertices joined by three edges, in the rotation the CLI reads."""
    return {
        "vertices": ["u", "v"],
        "edges": [{"ends": ["u", "v"], "label": a} for a in labels],
        "rotation": {"u": [[0, 0], [1, 0], [2, 0]], "v": [[2, 1], [1, 1], [0, 1]]},
    }


def tetrahedron_doc(labels) -> dict:
    """K4 with the planar rotation system: outer triangle 1, 2, 3 and
    vertex 4 inside."""
    end = {}
    for ei, (v0, v1) in enumerate(K4_EDGES):
        end[(ei, v0)] = [ei, 0]
        end[(ei, v1)] = [ei, 1]
    return {
        "vertices": [1, 2, 3, 4],
        "edges": [
            {"ends": [v0, v1], "label": a} for (v0, v1), a in zip(K4_EDGES, labels)
        ],
        "rotation": {
            "1": [end[(0, 1)], end[(2, 1)], end[(1, 1)]],
            "2": [end[(3, 2)], end[(4, 2)], end[(0, 2)]],
            "3": [end[(1, 3)], end[(5, 3)], end[(3, 3)]],
            "4": [end[(2, 4)], end[(4, 4)], end[(5, 4)]],
        },
    }


def cable_doc(a: int) -> dict:
    """A cable of ``a`` lines closed on itself through one rectangle."""
    return {
        "rectangles": {"r": a},
        "link": [[["r", 1, p], ["r", 0, p]] for p in range(a)],
    }


def k4_image(labels, perm) -> tuple:
    """Labels after moving vertex v to perm[v - 1]."""
    label = {frozenset(e): a for e, a in zip(K4_EDGES, labels)}
    return tuple(
        label[frozenset((perm[v0 - 1], perm[v1 - 1]))] for v0, v1 in K4_EDGES
    )


def chromatic_networks(seed: int) -> list[dict]:
    """The networks of one chromatic pass, with what each must satisfy."""
    rng = random.Random(seed)
    nets = []
    for multiset in THETAS:
        labels = rng.choice(sorted(set(permutations(multiset))))
        nets.append({"kind": "theta", "labels": list(labels),
                     "normalization": "projector", "doc": theta_doc(labels)})
    k4 = list(permutations((1, 2, 3, 4)))
    for i, labels in enumerate(TETRAHEDRA):
        image = k4_image(labels, rng.choice(k4))
        for variant in (labels, image):
            nets.append({"kind": "tetrahedron", "group": i, "labels": list(variant),
                         "normalization": "raw", "doc": tetrahedron_doc(variant)})
    for a in CABLES:
        nets.append({"kind": "cable", "lines": a, "normalization": "raw",
                     "doc": cable_doc(a)})
    return nets


def readback_texts(seed: int) -> list[dict]:
    """The stored texts in a seeded order."""
    items = json.loads(READBACK_TEXTS.read_text())["texts"]
    random.Random(seed).shuffle(items)
    return items


def make(workload: str, seed: int, workdir: Path) -> dict:
    """The inputs of one pass; network files are written under ``workdir``."""
    if workload == "chromatic":
        nets = chromatic_networks(seed)
        for i, net in enumerate(nets):
            path = workdir / f"net{i:02d}.json"
            path.write_text(json.dumps(net.pop("doc")))
            net["file"] = str(path)
        return {"networks": nets}
    if workload == "readback":
        return {"texts": readback_texts(seed)}
    return {}
