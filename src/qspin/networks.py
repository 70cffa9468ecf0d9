"""Network data model (trivalent, strand, tetrahedron), the Penrose /
chromatic state-sum oracle, and the classical gamma-matrix oracle.

Trivalent networks are stored with rotation systems (cyclic order of
edge-ends at each vertex), which determines the medial strand network:
one antisymmetrizer rectangle per edge, with the strand lines between
consecutive edge-ends at a vertex given by the internal counts (r, s, t)
of the admissible triple there.

The chromatic evaluation is the state sum  sum_S eps(S) delta^{|S|}  over
assignments of a permutation to each rectangle, where eps(S) is the parity
(-1)^{inversions} over all rectangles and |S| is the number of closed
loops.  It is computed as a contraction, not by enumerating permutations:
the rectangles are joined one input port at a time, and the state is the
perfect matching that the open strand ends form (see ``chromatic_eval``).
Raw uses the bare sum; ProjectorNormalized divides by the product of
(side sum)! over rectangles.  The value is a polynomial in delta with
rational coefficients, an element of ``CLASSICAL_FIELD.ring``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import factorial

from sympy import QQ

from .errors import (
    ConstraintViolated,
    InadmissibleLabel,
    ParseError,
    StateSpaceTooLarge,
    UnsupportedSize,
)
from .recoupling import AdmissibleTriple
from .scalar import CLASSICAL_FIELD

# Budgets of the chromatic contraction, from one in-process run each on a
# 2-core x86 machine (Python 3.11); RSS is the whole process's peak.
#: Most matching states one join may build.  It bounds the memory and the
#: work of each join.  theta(7, 7, 6) peaks at 24,480 states (0.8 s,
#: 73 MB) and tetrahedron (6, 5, 3, 6, 6, 5) at 84,708, the slowest
#: accepted input seen (4.2 s, 144 MB).  theta(8, 8, 8), which needs
#: 326,880 states, is refused after 0.7 s (102 MB) and cable 14 after
#: 2.1 s (124 MB).
MAX_LIVE_STATES = 10**5
#: Most lines (the total rectangle degree).  It bounds the number of joins
#: and the length of a state: a ring of ten 6-line rectangles (60 lines)
#: never exceeds 14,400 states and takes 2.1 s (67 MB).
MAX_TOTAL_LINES = 64
#: Marks a closed port in a matching state; port indices stay below it
#: because a network has at most 2 * MAX_TOTAL_LINES ports.
_CLOSED = 255
#: Builds a polynomial in delta from nonzero QQ coefficients, unchecked.
_delta_poly = CLASSICAL_FIELD.ring.dtype


# --------------------------------------------------------------------------
# Network files.


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_name(x) -> bool:
    return isinstance(x, str) or _is_int(x)


def _is_pair(x, item=lambda y: True) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(item, x))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ParseError(f"network file: {what}")


def _load(text: str, required: tuple) -> dict:
    """The JSON object of a network file, its required keys present."""
    doc = json.loads(text)
    _expect(isinstance(doc, dict), "the top level must be a JSON object")
    for key in required:
        _expect(key in doc, f"missing {key!r}")
    _expect(
        isinstance(doc.get("free_loops", []), list)
        and all(map(_is_int, doc.get("free_loops", []))),
        "'free_loops' must be a list of integers",
    )
    return doc


def _port(end) -> tuple:
    """A strand-network port [rectangle, side, index] as a tuple."""
    _expect(
        isinstance(end, list) and len(end) == 3 and isinstance(end[0], str),
        f"a port is [rectangle, side, index], not {end!r}",
    )
    try:
        return (end[0], int(end[1]), int(end[2]))
    except (TypeError, ValueError):
        raise ParseError(
            f"network file: port {end!r} has a non-integer side or index"
        ) from None


# --------------------------------------------------------------------------
# Labelled trivalent networks.


@dataclass
class LabelledNetwork:
    """Trivalent network with a rotation system.

    edges: list of (v0, v1, label); edge-ends are (edge_index, side) with
    side 0 at v0 and side 1 at v1.  rotation[v] lists the incident
    edge-ends in cyclic (counterclockwise) order.  free_loops are closed
    labelled circles disjoint from the graph.
    """

    vertices: list
    edges: list
    rotation: dict
    free_loops: list = dc_field(default_factory=list)

    def validate(self) -> None:
        ends_at: dict = {v: [] for v in self.vertices}
        for ei, (v0, v1, label) in enumerate(self.edges):
            if v0 not in ends_at or v1 not in ends_at:
                raise ConstraintViolated(f"edge {ei} ends at no vertex")
            if not _is_int(label):
                raise ConstraintViolated(f"edge {ei} has a non-integer label")
            if label < 0:
                raise InadmissibleLabel(f"edge {ei} has negative label")
            ends_at[v0].append((ei, 0))
            ends_at[v1].append((ei, 1))
        for v in self.vertices:
            rot = self.rotation.get(v, [])
            if len(rot) != 3 or sorted(rot) != sorted(ends_at[v]):
                raise InadmissibleLabel(
                    f"vertex {v!r} is not trivalent or rotation is inconsistent"
                )
            a, b, c = (self.edges[e][2] for e, _ in rot)
            AdmissibleTriple(a, b, c)  # raises InadmissibleTriple if bad
        for a in self.free_loops:
            if a < 0:
                raise InadmissibleLabel("free loop has negative label")

    def end_label(self, end) -> int:
        return self.edges[end[0]][2]

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": list(self.vertices),
                "edges": [
                    {"ends": [v0, v1], "label": label}
                    for v0, v1, label in self.edges
                ],
                "rotation": {
                    str(v): [[e, s] for e, s in rot]
                    for v, rot in self.rotation.items()
                },
                "free_loops": list(self.free_loops),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "LabelledNetwork":
        doc = _load(text, ("vertices", "edges"))
        vertices, edges = doc["vertices"], doc["edges"]
        rotation = doc.get("rotation", {})
        _expect(
            isinstance(vertices, list) and all(map(_is_name, vertices)),
            "'vertices' must be a list of names or integers",
        )
        _expect(
            isinstance(edges, list) and all(
                isinstance(e, dict) and _is_pair(e.get("ends"), _is_name)
                and "label" in e for e in edges
            ),
            "each edge must be {\"ends\": [v, w], \"label\": a}",
        )
        _expect(
            isinstance(rotation, dict) and all(
                isinstance(rot, list) and all(_is_pair(end, _is_int) for end in rot)
                for rot in rotation.values()
            ),
            "'rotation' must map each vertex to a list of [edge, side]",
        )
        by_str = {str(v): v for v in vertices}
        for v in rotation:
            _expect(v in by_str, f"rotation key {v!r} names no vertex")
        net = LabelledNetwork(
            vertices=vertices,
            edges=[(e["ends"][0], e["ends"][1], e["label"]) for e in edges],
            rotation={
                by_str[v]: [tuple(end) for end in rot] for v, rot in rotation.items()
            },
            free_loops=list(doc.get("free_loops", [])),
        )
        net.validate()
        return net


def theta_network(a: int, b: int, c: int) -> LabelledNetwork:
    """Two vertices joined by three edges labelled a, b, c."""
    net = LabelledNetwork(
        vertices=["u", "v"],
        edges=[("u", "v", a), ("u", "v", b), ("u", "v", c)],
        rotation={
            "u": [(0, 0), (1, 0), (2, 0)],
            "v": [(2, 1), (1, 1), (0, 1)],
        },
    )
    net.validate()
    return net


def tetrahedron_network(labels=None) -> LabelledNetwork:
    """K4 with a planar rotation system (outer triangle 1,2,3; vertex 4
    inside).  ``labels`` maps the edge order
    (12, 13, 14, 23, 24, 34) to labels; default all 2."""
    if labels is None:
        labels = [2] * 6
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    edges = [(v0, v1, l) for (v0, v1), l in zip(pairs, labels)]
    end = {}
    for ei, (v0, v1, _) in enumerate(edges):
        end[(ei, v0)] = (ei, 0)
        end[(ei, v1)] = (ei, 1)
    rotation = {
        1: [end[(0, 1)], end[(2, 1)], end[(1, 1)]],
        2: [end[(3, 2)], end[(4, 2)], end[(0, 2)]],
        3: [end[(1, 3)], end[(5, 3)], end[(3, 3)]],
        4: [end[(2, 4)], end[(4, 4)], end[(5, 4)]],
    }
    net = LabelledNetwork(vertices=[1, 2, 3, 4], edges=edges, rotation=rotation)
    net.validate()
    return net


def unknot(a: int) -> LabelledNetwork:
    """A free circle labelled a (no vertices)."""
    net = LabelledNetwork(vertices=[], edges=[], rotation={}, free_loops=[a])
    net.validate()
    return net


def delete_zero_edge(net: LabelledNetwork, ei: int) -> LabelledNetwork:
    """Remove a 0-labelled edge and smooth the two freed 2-valent vertices.

    At each endpoint the two remaining edge-ends are concatenated; if the
    smoothing closes a circle it becomes a free loop.
    """
    if net.edges[ei][2] != 0:
        raise InadmissibleLabel("edge is not labelled 0")
    v0, v1, _ = net.edges[ei]

    # Collect, at each endpoint of ei, the other two edge-ends to splice.
    splices = []
    for v in {v0, v1}:
        rot = net.rotation[v]
        rest = [end for end in rot if end[0] != ei]
        if len(rest) != 2:
            raise InadmissibleLabel("0-edge endpoints must be distinct simple")
        splices.append(tuple(rest))

    # Union-find over edge-ends to trace the concatenated strands.
    # Each surviving edge is an arc between its two ends; splices glue ends.
    survive = [k for k in range(len(net.edges)) if k != ei]
    partner = {}
    for a, b in splices:
        partner[a] = b
        partner[b] = a

    def other_end(end):
        return (end[0], 1 - end[1])

    new_edges = []
    new_loops = list(net.free_loops)
    seen = set()
    endmap = {}  # old edge-end -> (new edge index, side) for surviving chains
    for k in survive:
        for side in (0, 1):
            start = (k, side)
            if start in seen or start in partner:
                continue
            # walk the chain from a true endpoint
            chain = []
            cur = start
            while True:
                seen.add(cur)
                chain.append(cur)
                nxt = other_end(cur)
                seen.add(nxt)
                chain.append(nxt)
                if nxt in partner:
                    cur = partner[nxt]
                else:
                    break
            label = net.edges[chain[0][0]][2]
            for e2, _ in chain:
                if net.edges[e2][2] != label:
                    raise InadmissibleLabel("spliced edges carry unequal labels")
            va = _end_vertex(net, chain[0])
            vb = _end_vertex(net, chain[-1])
            ni = len(new_edges)
            new_edges.append((va, vb, label))
            endmap[chain[0]] = (ni, 0)
            endmap[chain[-1]] = (ni, 1)
    # closed chains (circles)
    for k in survive:
        for side in (0, 1):
            start = (k, side)
            if start in seen:
                continue
            cur = start
            label = net.edges[k][2]
            while True:
                seen.add(cur)
                nxt = other_end(cur)
                seen.add(nxt)
                cur = partner[nxt]
                if cur == start:
                    break
            new_loops.append(label)

    new_vertices = [v for v in net.vertices if v not in (v0, v1)]
    new_rot = {}
    for v in new_vertices:
        new_rot[v] = [endmap[end] for end in net.rotation[v]]
    out = LabelledNetwork(
        vertices=new_vertices,
        edges=new_edges,
        rotation=new_rot,
        free_loops=new_loops,
    )
    out.validate()
    return out


def _end_vertex(net: LabelledNetwork, end):
    ei, side = end
    return net.edges[ei][side]


# --------------------------------------------------------------------------
# Strand networks.


@dataclass
class StrandNetwork:
    """One antisymmetrizer rectangle per element of ``rect_degree``; lines
    enter side 0 and leave side 1.  ``link`` is the ambient involution on
    line endpoints (rect, side, port) describing how strands connect the
    rectangles.  ``free_loops`` are labelled circles with no rectangle
    (a labelled-a circle is a cable of a parallel lines, value delta^a).
    """

    rect_degree: dict
    link: dict
    free_loops: list = dc_field(default_factory=list)

    def validate(self) -> None:
        expected = set()
        for r, d in self.rect_degree.items():
            if not _is_int(d):
                raise ConstraintViolated(f"rectangle {r!r} has a non-integer degree")
            if d < 0:
                raise InadmissibleLabel("negative rectangle degree")
            for side in (0, 1):
                for p in range(d):
                    expected.add((r, side, p))
        if set(self.link) != expected:
            raise ConstraintViolated("ambient linking must cover every port")
        for key, val in self.link.items():
            if val == key:
                raise ConstraintViolated(f"port {key!r} is linked to itself")
            if self.link.get(val) != key:
                raise ConstraintViolated("ambient linking is not an involution")
        for a in self.free_loops:
            if a < 0:
                raise InadmissibleLabel("free loop has negative label")

    def to_json(self) -> str:
        return json.dumps(
            {
                "rectangles": {str(r): d for r, d in self.rect_degree.items()},
                "link": [
                    [list(map(str, (a[0],))) + list(a[1:]),
                     list(map(str, (b[0],))) + list(b[1:])]
                    for a, b in sorted(
                        (k, v) for k, v in self.link.items() if k <= v
                    )
                ],
                "free_loops": list(self.free_loops),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "StrandNetwork":
        doc = _load(text, ("rectangles", "link"))
        _expect(isinstance(doc["rectangles"], dict), "'rectangles' must be an object")
        _expect(
            isinstance(doc["link"], list)
            and all(map(_is_pair, doc["link"])),
            "'link' must be a list of port pairs",
        )
        degree = dict(doc["rectangles"])
        link = {}
        for a, b in doc["link"]:
            ka, kb = _port(a), _port(b)
            link[ka] = kb
            link[kb] = ka
        sn = StrandNetwork(degree, link, list(doc.get("free_loops", [])))
        sn.validate()
        return sn


def cabled_unknot(a: int, with_projector: bool) -> StrandNetwork:
    """A closed a-cable: plain (value delta^a) or through one
    antisymmetrizer rectangle (Raw value delta(delta-1)...(delta-a+1))."""
    if not with_projector:
        return StrandNetwork({}, {}, [a])
    link = {}
    for p in range(a):
        link[("r", 1, p)] = ("r", 0, p)
        link[("r", 0, p)] = ("r", 1, p)
    sn = StrandNetwork({"r": a}, link)
    sn.validate()
    return sn


def medial(net: LabelledNetwork) -> StrandNetwork:
    """The medial strand network: one rectangle per edge (degree = label),
    ambient links determined by the internal counts at each vertex.

    Ports on each rectangle side are indexed in the frame of the edge's
    side-0 end; consecutive edge-ends (h, h') in a vertex rotation are
    joined by m = (l_h + l_h' - l_other)/2 lines matching the last m ports
    of h against the first m of h', with the index flipped on side-1 ends
    so both sides of a rectangle are traversed coherently.
    """
    net.validate()
    label = {ei: net.edges[ei][2] for ei in range(len(net.edges))}
    link = {}

    def pidx(end, p):
        # convert a port index local to this edge-end into the edge frame
        ei, side = end
        return p if side == 0 else label[ei] - 1 - p

    for v in net.vertices:
        rot = net.rotation[v]
        for i in range(3):
            h, nh = rot[i], rot[(i + 1) % 3]
            other = rot[(i + 2) % 3]
            m2 = net.end_label(h) + net.end_label(nh) - net.end_label(other)
            if m2 < 0 or m2 % 2:
                raise InadmissibleLabel(f"inadmissible triple at vertex {v!r}")
            m = m2 // 2
            dh = net.end_label(h)
            for j in range(m):
                a = (h[0], h[1], pidx(h, dh - 1 - j))
                b = (nh[0], nh[1], pidx(nh, j))
                link[a] = b
                link[b] = a
    degree = dict(label)
    # a labelled free circle is a projected cable closed on itself
    for li, a in enumerate(net.free_loops):
        r = f"loop{li}"
        degree[r] = a
        for p in range(a):
            link[(r, 1, p)] = (r, 0, p)
            link[(r, 0, p)] = (r, 1, p)
    sn = StrandNetwork(rect_degree=degree, link=link)
    sn.validate()
    return sn


# --------------------------------------------------------------------------
# Chromatic state sum.


def chromatic_eval(sn: StrandNetwork, normalization: str = "Raw"):
    """The chromatic state sum  sum_S eps(S) delta^{|S|}  over permutation
    assignments S to the rectangles, computed as a contraction.

    The rectangles are taken one at a time, and each rectangle one input
    port at a time.  A state is the perfect matching that the open strand
    ends form among the ports not yet closed (at the start, the ambient
    linking), and it carries an integer polynomial in delta.  Joining input
    k of rectangle r to a still-open output j of r multiplies by
    (-1)^(open outputs of r below j), the Lehmer-code digit of the
    permutation's parity.  If the two ends were partners the join closes a
    loop (times delta); otherwise it splices their partners together.
    Equal states are summed and zero entries dropped.  This is the
    factorization A_d = (A_{d-1} x 1)(1 - s_{d-1} + s_{d-1}s_{d-2} - ...):
    d(d+1)/2 joins per rectangle instead of d! permutations.

    ``MAX_LIVE_STATES`` bounds the work of each join: a join raises
    StateSpaceTooLarge as soon as it has built more states than that, so
    it costs at most that many copies of one matching of 2 * (total lines)
    ports.  ``MAX_TOTAL_LINES`` bounds the length of a matching and the
    number of joins, sum d(d+1)/2; their product bounds the whole run.

    normalization: "Raw" or "ProjectorNormalized" (divide by prod d_r!).
    The result is a polynomial in delta, an element of
    ``CLASSICAL_FIELD.ring``; it is built as a polynomial, not through the
    field, so it costs no cancel.
    """
    if normalization not in ("Raw", "ProjectorNormalized"):
        raise ConstraintViolated(f"unknown normalization {normalization!r}")
    sn.validate()
    rects = sorted(sn.rect_degree, key=str)
    total_lines = sum(sn.rect_degree.values())
    if total_lines > MAX_TOTAL_LINES:
        raise StateSpaceTooLarge(
            f"{total_lines} lines exceeds the budget {MAX_TOTAL_LINES}"
        )
    index = {}
    for r in rects:
        for side in (0, 1):
            for p in range(sn.rect_degree[r]):
                index[(r, side, p)] = len(index)
    states = {bytes(index[sn.link[port]] for port in index): {0: 1}}
    for r in rects:
        outs = [index[(r, 1, p)] for p in range(sn.rect_degree[r])]
        for k in range(sn.rect_degree[r]):
            states = _join(states, index[(r, 0, k)], outs)
    norm = 1
    if normalization == "ProjectorNormalized":
        for r in rects:
            norm *= factorial(sn.rect_degree[r])
    # every port is closed now: at most one state is left, the empty one;
    # a free loop labelled a is a cable of a circles, a factor delta^a
    shift = sum(sn.free_loops)
    weight = next(iter(states.values()), {})
    return _delta_poly({(loops + shift, 0): QQ(c, norm) for loops, c in weight.items()})


def _join(states: dict, i: int, outs: list) -> dict:
    """Join input port ``i`` to each open port of ``outs`` in every state.

    A state is a bytes object giving each port's partner, or ``_CLOSED``
    once the port is closed; its weight maps a loop count to an integer
    coefficient.  Raises StateSpaceTooLarge as soon as the join has built
    more than MAX_LIVE_STATES states, counted before zero weights are
    dropped, so that no join holds more than that many.
    """
    nxt: dict = {}
    for match, weight in states.items():
        pi = match[i]
        sign = 1
        for j in outs:
            pj = match[j]
            if pj == _CLOSED:
                continue
            new = bytearray(match)
            new[i] = new[j] = _CLOSED
            if pi == j:
                shift = 1
            else:
                new[pi] = pj
                new[pj] = pi
                shift = 0
            key = bytes(new)
            acc = nxt.get(key)
            if acc is None:
                if len(nxt) == MAX_LIVE_STATES:
                    raise StateSpaceTooLarge(
                        f"more than {MAX_LIVE_STATES} live matching states"
                    )
                acc = nxt[key] = {}
            for loops, c in weight.items():
                loops += shift
                acc[loops] = acc.get(loops, 0) + sign * c
            sign = -sign
    out = {}
    for key, acc in nxt.items():
        acc = {loops: c for loops, c in acc.items() if c}
        if acc:
            out[key] = acc
    return out


def penrose_eval(sn: StrandNetwork, normalization: str = "Raw"):
    """The chromatic evaluation at delta = -2, a rational."""
    return chromatic_eval(sn, normalization)(-2, 0)


# --------------------------------------------------------------------------
# Tetrahedron symbols.


@dataclass(frozen=True)
class TetrahedronSymbol:
    """3x4 grid z[i][j]: the i-th internal strand count at vertex j+1 of
    the reference tetrahedron embedding (corner i joins the i-th and
    (i+1)-st edge-ends of the vertex rotation)."""

    z: tuple  # 3 rows of 4

    @staticmethod
    def from_grid(rows) -> "TetrahedronSymbol":
        if len(rows) != 3 or any(len(r) != 4 for r in rows):
            raise ConstraintViolated("tetrahedron symbol must be a 3x4 grid")
        return TetrahedronSymbol(tuple(tuple(r) for r in rows))

    def row_sums(self):
        return [sum(r) for r in self.z]

    def col_sums(self):
        return [sum(self.z[i][j] for i in range(3)) for j in range(4)]


def tetrahedron_check(t: TetrahedronSymbol) -> bool:
    """Grid nonnegative and total row sum equals total column sum."""
    if any(x < 0 for row in t.z for x in row):
        raise ConstraintViolated("tetrahedron grid entries must be nonnegative")
    return sum(t.row_sums()) == sum(t.col_sums())


def tetrahedron_edge_labels(t: TetrahedronSymbol) -> list:
    """Reconstruct the 6 edge labels of the reference K4 embedding from the
    corner counts; the two endpoint side sums of each edge must agree."""
    if not tetrahedron_check(t):
        raise ConstraintViolated("row/column sums do not balance")
    ref = tetrahedron_network()  # rotation layout source
    # label demanded at each edge-end: sum of the two adjacent corner counts
    demand: dict = {}
    for j, v in enumerate(ref.vertices):
        rot = ref.rotation[v]
        for i in range(3):
            end = rot[i]
            # end sits between corners (i-1, i) and (i, i+1): rows (i-1)%3, i
            demand[end] = t.z[(i - 1) % 3][j] + t.z[i][j]
    labels = []
    for ei in range(6):
        l0 = demand[(ei, 0)]
        l1 = demand[(ei, 1)]
        if l0 != l1:
            raise ConstraintViolated(
                f"edge {ei}: opposite side sums differ ({l0} vs {l1})"
            )
        labels.append(l0)
    return labels


def tetrahedron_chromatic(t: TetrahedronSymbol, normalization: str = "Raw"):
    """Chromatic evaluation of the strand network of a tetrahedron symbol."""
    labels = tetrahedron_edge_labels(t)
    if all(l == 0 for l in labels):
        return CLASSICAL_FIELD.ring.one
    net = tetrahedron_network(labels)
    return chromatic_eval(medial(net), normalization)


# --------------------------------------------------------------------------
# Classical gamma-matrix oracle.


def _kron_int(a, b):
    n, m = len(a), len(b)
    return [
        [a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)]
        for i in range(n * m)
    ]


def _matmul_int(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def gamma_matrices(k: int) -> list:
    """2k gamma matrices of size 2^k for the split metric
    diag(+1, -1, +1, -1, ...), built from the integer Pauli ladder:
    gamma_{2i-1} = Z...Z X 1...1 (squares to +1),
    gamma_{2i}   = Z...Z (XZ) 1...1 (squares to -1)."""
    if k < 1 or k > 3:
        raise UnsupportedSize("gamma oracle supports k in {1, 2, 3}")
    X = [[0, 1], [1, 0]]
    ZM = [[1, 0], [0, -1]]
    XZ = [[0, -1], [1, 0]]
    I2 = [[1, 0], [0, 1]]
    out = []
    for i in range(1, k + 1):
        for head in (X, XZ):
            m = [[1]]
            for j in range(1, k + 1):
                if j < i:
                    blk = ZM
                elif j == i:
                    blk = head
                else:
                    blk = I2
                m = _kron_int(m, blk)
            out.append(m)
    return out


def gamma_metric(k: int) -> list:
    """Diagonal split metric: g_{mu,mu} = +1 for odd mu, -1 for even mu."""
    return [1 if mu % 2 == 0 else -1 for mu in range(2 * k)]


def check_clifford(k: int) -> bool:
    gs = gamma_matrices(k)
    g = gamma_metric(k)
    dim = 2**k
    for a in range(2 * k):
        for b in range(a, 2 * k):
            anti = [
                [
                    sum(
                        gs[a][i][l] * gs[b][l][j] + gs[b][i][l] * gs[a][l][j]
                        for l in range(dim)
                    )
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            want = 2 * g[a] if a == b else 0
            for i in range(dim):
                for j in range(dim):
                    if anti[i][j] != (want if i == j else 0):
                        return False
    return True


def gamma_oracle_trace(k: int, word: list, matching: list) -> Fraction:
    """Tr(gamma^{mu_1} ... gamma^{mu_L}) with the word positions contracted
    pairwise per ``matching`` (a list of disjoint position pairs covering
    the word); each contracted pair sums over a common index with the
    metric factor g_{mu,mu}.

    ``word`` gives a slot id per position; positions with equal slot ids
    must be matched together (the slots name the contractions).
    """
    L = len(word)
    if L % 2 or L > 8:
        raise UnsupportedSize("word length must be even and at most 8")
    pairs = [tuple(p) for p in matching]
    flat = [i for p in pairs for i in p]
    if sorted(flat) != list(range(L)):
        raise ConstraintViolated("matching must cover each position once")
    gs = gamma_matrices(k)
    g = gamma_metric(k)
    dim = 2**k
    m = L // 2
    total = 0
    # assign an index to each pair; positions in a pair share it
    idx = [0] * L

    def rec(pi: int):
        nonlocal total
        if pi == m:
            mat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
            for pos in range(L):
                mat = _matmul_int(mat, gs[idx[pos]])
            tr = sum(mat[i][i] for i in range(dim))
            weight = 1
            for a, b in pairs:
                weight *= g[idx[a]]
            total += weight * tr
            return
        a, b = pairs[pi]
        for mu in range(2 * k):
            idx[a] = mu
            idx[b] = mu
            rec(pi + 1)

    rec(0)
    return Fraction(total)
