"""A test-side chromatic state sum by brute force, sharing no code with the
contraction in ``qspin.networks``, and a strategy for random strand networks.

``brute_force_chromatic`` enumerates one permutation per rectangle, takes
the parity of each from its inversions, and traces the closed loops of every
assignment through the ambient linking: the product of d! over the
rectangles, each with a walk over all ports.  The sum is a polynomial in
delta, an element of sympy's ``CLASSICAL.ring``.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, prod

from hypothesis import strategies as st

from qspin.networks import StrandNetwork
from sympy_bridge import CLASSICAL

#: Most lines of a generated network.
MAX_LINES = 10
#: Largest product of d! over the rectangles of a generated network, so
#: that one brute-force sum stays under about 0.1 s.
MAX_BRUTE_STATES = 5040


def _inversions(p) -> int:
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )


def brute_force_chromatic(sn: StrandNetwork, normalization: str = "Raw"):
    """The state sum over permutation assignments to the rectangles.

    A permutation p of rectangle r sends the strand entering at (r, 0, k)
    out at (r, 1, p[k]).  normalization: "Raw" or "ProjectorNormalized"
    (divide by prod d_r!).
    """
    rects = sorted(sn.rect_degree, key=str)
    totals: dict[int, int] = {}

    def loop_count(perm: dict) -> int:
        seen = set()
        loops = 0
        for r in rects:
            for p in range(sn.rect_degree[r]):
                start = (r, 0, p)
                if start in seen:
                    continue
                loops += 1
                cur = start
                while True:
                    rr, side, k = cur
                    seen.add(cur)
                    if side == 0:
                        nxt = (rr, 1, perm[rr][k])
                    else:
                        nxt = (rr, 0, perm[rr].index(k))
                    seen.add(nxt)
                    cur = sn.link[nxt]
                    if cur == start:
                        break
        return loops

    def rec(i: int, perm: dict, sign: int) -> None:
        if i == len(rects):
            loops = loop_count(perm)
            totals[loops] = totals.get(loops, 0) + sign
            return
        r = rects[i]
        for p in permutations(range(sn.rect_degree[r])):
            perm[r] = p
            rec(i + 1, perm, sign * (-1) ** _inversions(p))
        perm.pop(r, None)

    rec(0, {}, 1)
    ring = CLASSICAL.ring
    delta = ring.gens[0]
    poly = sum((c * delta**loops for loops, c in totals.items()), ring.zero)
    for a in sn.free_loops:
        poly *= delta**a
    if normalization == "ProjectorNormalized":
        poly /= prod(factorial(d) for d in sn.rect_degree.values())
    return poly


@st.composite
def strand_networks(draw) -> StrandNetwork:
    """A random strand network of at most MAX_LINES lines and at most
    MAX_BRUTE_STATES permutation states: random rectangle degrees (0
    included), a random fixed-point-free involution on the ports as the
    linking (same-side and same-rectangle links included), and a few free
    loops."""
    degrees = draw(
        st.lists(st.integers(0, 7), min_size=1, max_size=5).filter(
            lambda ds: sum(ds) <= MAX_LINES
            and prod(factorial(d) for d in ds) <= MAX_BRUTE_STATES
        )
    )
    rect_degree = {f"r{i}": d for i, d in enumerate(degrees)}
    ports = [(r, side, p) for r, d in rect_degree.items()
             for side in (0, 1) for p in range(d)]
    order = draw(st.permutations(ports))
    link = {}
    for a, b in zip(order[::2], order[1::2]):
        link[a] = b
        link[b] = a
    free_loops = draw(st.lists(st.integers(0, 3), max_size=2))
    return StrandNetwork(rect_degree, link, free_loops)
