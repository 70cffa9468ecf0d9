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
``Fraction`` coefficients, a ``poly.Poly`` in the generators (delta, Delta)
of the classical images.

The ``check_*`` functions hold the closed forms of ``recoupling`` to these
oracles, as rows of ``matrixlab.CHECKS``: chromatic values are compared in
Q(delta, Delta) with delta_chromatic = 2 delta_classical, and gamma traces
with the limit q -> 1 of the closed form at level k.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm, prod

from .errors import (
    ArgumentOutOfRange,
    ConstraintViolated,
    InadmissibleLabel,
    StateSpaceTooLarge,
    UnsupportedSize,
    check_counts,
    expect,
    is_int,
    json_object,
)
from .poly import FIELD_BITS, Poly, pack
from .recoupling import AdmissibleTriple, dimq_vector_recurrence_consistent, fierz, theta_vector
from .scalar import CLASSICAL_FIELD, DELTA, SPIN_DELTA, classical, integer_level, q_to_one

# Budgets of the chromatic contraction, from three to ten in-process runs
# each on a 2-core x86 machine (Python 3.11) whose speed drifts by up to 2x
# from run to run; RSS is the whole process's peak.
#: Most matching states one join may build.  It bounds the memory and the
#: work of each join.  theta(7, 7, 6) peaks at 24,480 states (0.24-0.39 s,
#: 23 MB) and tetrahedron (6, 5, 3, 6, 6, 5) at 84,708, the slowest
#: accepted input seen (1.09-2.28 s, 50 MB).  theta(8, 8, 8), which needs
#: 326,880 states, is refused after 0.19-0.33 s (38 MB) and cable 14 after
#: 0.57-0.61 s (49 MB).
MAX_LIVE_STATES = 10**5
#: Most lines: the total rectangle degree plus the free loops.  It bounds
#: the number of joins and the length of a state: a ring of ten 6-line
#: rectangles (60 lines) never exceeds 14,400 states and takes 0.71-0.92 s
#: (22 MB).
MAX_TOTAL_LINES = 64
#: Marks a closed port in a matching state; port indices stay below it
#: because a network has at most 2 * MAX_TOTAL_LINES ports.
_CLOSED = 255


# --------------------------------------------------------------------------
# Network files.


_FILE = "network file"


def _is_name(x) -> bool:
    return isinstance(x, str) or is_int(x)


def _is_pair(x, item=lambda y: True) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(item, x))


def _load(text, required: tuple) -> dict:
    """The JSON object of a network file, its required keys present; text
    that is not a JSON object raises ParseError."""
    doc = json_object(text, _FILE, required)
    expect(
        isinstance(doc.get("free_loops", []), list)
        and all(map(is_int, doc.get("free_loops", []))),
        _FILE, "'free_loops' must be a list of integers",
    )
    return doc


def _check_free_loops(free_loops) -> None:
    """The free-loop check of both network constructors."""
    for a in free_loops:
        if not is_int(a):
            raise ConstraintViolated("free loop has a non-integer label")
        if a < 0:
            raise InadmissibleLabel("free loop has negative label")


def _port(end) -> tuple:
    """A strand-network port [rectangle, side, index] as a tuple."""
    expect(
        isinstance(end, list) and len(end) == 3 and isinstance(end[0], str),
        _FILE, f"a port is [rectangle, side, index], not {end!r}",
    )
    expect(
        is_int(end[1]) and is_int(end[2]),
        _FILE, f"port {end!r} has a non-integer side or index",
    )
    return tuple(end)


# --------------------------------------------------------------------------
# Labelled trivalent networks.


class LabelledNetwork:
    """Trivalent network with a rotation system.

    edges: list of (v0, v1, label); edge-ends are (edge_index, side) with
    side 0 at v0 and side 1 at v1.  rotation[v] lists the incident
    edge-ends in cyclic (counterclockwise) order.  free_loops are closed
    labelled circles disjoint from the graph.

    The constructor checks the network (``validate``), and every function
    that receives one takes it as checked: a network is not to be mutated
    once built.
    """

    __slots__ = ("vertices", "edges", "rotation", "free_loops")

    def __init__(self, vertices: list, edges: list, rotation: dict,
                 free_loops: list | None = None):
        self.vertices = vertices
        self.edges = edges
        self.rotation = rotation
        self.free_loops = [] if free_loops is None else free_loops
        self.validate()

    def validate(self) -> None:
        ends_at: dict = {}
        for v in self.vertices:
            if v in ends_at:
                raise ConstraintViolated(f"vertex {v!r} is listed twice")
            ends_at[v] = []
        for ei, (v0, v1, label) in enumerate(self.edges):
            if v0 not in ends_at or v1 not in ends_at:
                raise ConstraintViolated(f"edge {ei} ends at no vertex")
            if not is_int(label):
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
        _check_free_loops(self.free_loops)

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
        expect(
            isinstance(vertices, list) and all(map(_is_name, vertices)),
            _FILE, "'vertices' must be a list of names or integers",
        )
        expect(
            isinstance(edges, list) and all(
                isinstance(e, dict) and _is_pair(e.get("ends"), _is_name)
                and "label" in e for e in edges
            ),
            _FILE, "each edge must be {\"ends\": [v, w], \"label\": a}",
        )
        expect(
            isinstance(rotation, dict) and all(
                isinstance(rot, list) and all(_is_pair(end, is_int) for end in rot)
                for rot in rotation.values()
            ),
            _FILE, "'rotation' must map each vertex to a list of [edge, side]",
        )
        by_str = {str(v): v for v in vertices}
        for v in rotation:
            expect(v in by_str, _FILE, f"rotation key {v!r} names no vertex")
        return LabelledNetwork(
            vertices=vertices,
            edges=[(e["ends"][0], e["ends"][1], e["label"]) for e in edges],
            rotation={
                by_str[v]: [tuple(end) for end in rot] for v, rot in rotation.items()
            },
            free_loops=list(doc.get("free_loops", [])),
        )


def theta_network(a: int, b: int, c: int) -> LabelledNetwork:
    """Two vertices joined by three edges labelled a, b, c."""
    return LabelledNetwork(
        vertices=["u", "v"],
        edges=[("u", "v", a), ("u", "v", b), ("u", "v", c)],
        rotation={
            "u": [(0, 0), (1, 0), (2, 0)],
            "v": [(2, 1), (1, 1), (0, 1)],
        },
    )


#: The edges of K4, in the label order of ``tetrahedron_network``.
_K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
#: The rotation system of ``tetrahedron_network``: each vertex's
#: edge-ends (index into _K4_EDGES, side) in cyclic order.
_K4_ROTATION = {
    1: ((0, 0), (2, 0), (1, 0)),
    2: ((3, 0), (4, 0), (0, 1)),
    3: ((1, 1), (5, 0), (3, 1)),
    4: ((2, 1), (4, 1), (5, 1)),
}


def tetrahedron_network(labels) -> LabelledNetwork:
    """K4 with a planar rotation system (outer triangle 1,2,3; vertex 4
    inside).  ``labels`` maps the edge order
    (12, 13, 14, 23, 24, 34) to labels."""
    return LabelledNetwork(
        vertices=list(_K4_ROTATION),
        edges=[(v0, v1, l) for (v0, v1), l in zip(_K4_EDGES, labels)],
        rotation={v: list(rot) for v, rot in _K4_ROTATION.items()},
    )


def unknot(a: int) -> LabelledNetwork:
    """A free circle labelled a (no vertices)."""
    return LabelledNetwork(vertices=[], edges=[], rotation={}, free_loops=[a])


# --------------------------------------------------------------------------
# Strand networks.


class StrandNetwork:
    """One antisymmetrizer rectangle per element of ``rect_degree``; lines
    enter side 0 and leave side 1.  ``link`` is the ambient involution on
    line endpoints (rect, side, port) describing how strands connect the
    rectangles.  ``free_loops`` are labelled circles with no rectangle
    (a labelled-a circle is a cable of a parallel lines, value delta^a).

    The constructor checks the network (``validate``), and every function
    that receives one takes it as checked: a network is not to be mutated
    once built.
    """

    __slots__ = ("rect_degree", "link", "free_loops")

    def __init__(self, rect_degree: dict, link: dict, free_loops: list | None = None):
        self.rect_degree = rect_degree
        self.link = link
        self.free_loops = [] if free_loops is None else free_loops
        self.validate()

    def validate(self) -> None:
        for r, d in self.rect_degree.items():
            if not is_int(d):
                raise ConstraintViolated(f"rectangle {r!r} has a non-integer degree")
            if d < 0:
                raise InadmissibleLabel("negative rectangle degree")
        # the count first, so that a port set is built only for a link that
        # could cover it
        if len(self.link) != 2 * sum(self.rect_degree.values()) or set(self.link) != {
            (r, side, p) for r, d in self.rect_degree.items()
            for side in (0, 1) for p in range(d)
        }:
            raise ConstraintViolated("ambient linking must cover every port")
        for key, val in self.link.items():
            if val == key:
                raise ConstraintViolated(f"port {key!r} is linked to itself")
            if self.link.get(val) != key:
                raise ConstraintViolated("ambient linking is not an involution")
        _check_free_loops(self.free_loops)

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
        expect(isinstance(doc["rectangles"], dict), _FILE, "'rectangles' must be an object")
        expect(
            isinstance(doc["link"], list) and all(map(_is_pair, doc["link"])),
            _FILE, "'link' must be a list of port pairs",
        )
        degree = dict(doc["rectangles"])
        link = {}
        for a, b in doc["link"]:
            ka, kb = _port(a), _port(b)
            for port in (ka, kb):
                if port in link:
                    raise ConstraintViolated(f"port {port!r} is in two link pairs")
            link[ka] = kb
            link[kb] = ka
        return StrandNetwork(degree, link, list(doc.get("free_loops", [])))


def cabled_unknot(a: int, with_projector: bool) -> StrandNetwork:
    """A closed a-cable: plain (value delta^a) or through one
    antisymmetrizer rectangle (Raw value delta(delta-1)...(delta-a+1))."""
    if not with_projector:
        return StrandNetwork({}, {}, [a])
    link = {}
    for p in range(a):
        link[("r", 1, p)] = ("r", 0, p)
        link[("r", 0, p)] = ("r", 1, p)
    return StrandNetwork({"r": a}, link)


def medial(net: LabelledNetwork) -> StrandNetwork:
    """The medial strand network: one rectangle per edge (degree = label),
    ambient links determined by the internal counts at each vertex.

    Ports on each rectangle side are indexed in the frame of the edge's
    side-0 end; consecutive edge-ends (h, h') in a vertex rotation are
    joined by m = (l_h + l_h' - l_other)/2 lines matching the last m ports
    of h against the first m of h', with the index flipped on side-1 ends
    so both sides of a rectangle are traversed coherently.

    A network of more than ``MAX_TOTAL_LINES`` lines (labels and free
    loops), which ``chromatic_eval`` would refuse, raises
    StateSpaceTooLarge before any link is built.
    """
    _check_lines(sum(label for *_, label in net.edges) + sum(net.free_loops))
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
            # the constructor has checked the triple: m is a nonnegative integer
            m = (net.end_label(h) + net.end_label(nh) - net.end_label(other)) // 2
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
    return StrandNetwork(rect_degree=degree, link=link)


# --------------------------------------------------------------------------
# Chromatic state sum.


def _check_lines(total: int) -> None:
    if total > MAX_TOTAL_LINES:
        raise StateSpaceTooLarge(f"{total} lines exceeds the budget {MAX_TOTAL_LINES}")


def chromatic_eval(sn: StrandNetwork, normalization: str = "Raw"):
    """The chromatic state sum  sum_S eps(S) delta^{|S|}  over permutation
    assignments S to the rectangles, computed as a contraction.

    The rectangles are taken one at a time, and each rectangle one input
    port at a time.  A state is the perfect matching that the open strand
    ends form among the ports not yet closed (at the start, the ambient
    linking), and it carries an integer polynomial in delta, its weight.
    Joining input k of rectangle r to a still-open output j of r
    multiplies by (-1)^(open outputs of r below j), the Lehmer-code digit
    of the permutation's parity.  If the two ends were partners the join
    closes a loop (times delta); otherwise it splices their partners
    together.  Equal states are summed and zero weights dropped.  This is
    the factorization A_d = (A_{d-1} x 1)(1 - s_{d-1} + s_{d-1}s_{d-2} - ...):
    d(d+1)/2 joins per rectangle instead of d! permutations.

    A weight is held as one int, the polynomial at delta = 2^W with
    W = (prod d_r!).bit_length() + 1 (Kronecker substitution).  Each of
    its coefficients is a signed count of at most prod d_r! partial
    assignments, so it lies strictly inside +-2^(W-1): the balanced
    base-2^W digits of the int are the coefficients, and the int is 0
    exactly when the polynomial is.  Closing a loop is a shift by W, a
    sign is a negation, and summing equal states is one addition.

    ``MAX_LIVE_STATES`` bounds the work of each join: a join raises
    StateSpaceTooLarge as soon as it has built more states than that.  A
    state holds one matching of 2 * (total lines) ports and one int of at
    most (lines + 1) * W bits, since a state has closed at most one loop
    per line.  ``MAX_TOTAL_LINES`` bounds those lengths and the number of
    joins, sum d(d+1)/2; the product of the two budgets bounds the run.
    The free loops count toward the lines too.

    normalization: "Raw" or "ProjectorNormalized" (divide by prod d_r!).
    The result is a polynomial in delta, a ``Poly`` in (delta, Delta)
    with ``Fraction`` coefficients; it is built as a polynomial, not
    through the field, so it costs no gcd.
    """
    if normalization not in ("Raw", "ProjectorNormalized"):
        raise ConstraintViolated(f"unknown normalization {normalization!r}")
    rects = sorted(sn.rect_degree, key=str)
    _check_lines(sum(sn.rect_degree.values()) + sum(sn.free_loops))
    index = {}
    for r in rects:
        for side in (0, 1):
            for p in range(sn.rect_degree[r]):
                index[(r, side, p)] = len(index)
    assignments = prod(map(factorial, sn.rect_degree.values()))
    width = assignments.bit_length() + 1
    states = {bytes(index[sn.link[port]] for port in index): 1}
    for r in rects:
        outs = [index[(r, 1, p)] for p in range(sn.rect_degree[r])]
        for k in range(sn.rect_degree[r]):
            states = _join(states, index[(r, 0, k)], outs, width)
    norm = assignments if normalization == "ProjectorNormalized" else 1
    # every port is closed now: at most one state is left, the empty one;
    # a free loop labelled a is a cable of a circles, a factor delta^a
    loops = sum(sn.free_loops)
    weight = next(iter(states.values()), 0)
    half, mask = 1 << (width - 1), (1 << width) - 1
    terms = {}
    while weight:
        c = weight & mask
        if c >= half:
            c -= 1 << width
        if c:
            terms[pack((loops, 0))] = Fraction(c, norm)
        weight = (weight - c) >> width
        loops += 1
    return CLASSICAL_FIELD.ring(terms)


def _join(states: dict, i: int, outs: list, width: int) -> dict:
    """Join input port ``i`` to each open port of ``outs`` in every state.

    A state is a bytes object giving each port's partner, or ``_CLOSED``
    once the port is closed; its weight is a polynomial in delta packed
    into one int at delta = 2^width (see ``chromatic_eval``), so closing a
    loop is ``<< width``.  A join changes the partners of four ports at
    most, and each open port occurs once as a partner, so the new state is
    the old one with those four values translated by a table.  Raises
    StateSpaceTooLarge as soon as the join has built more than
    MAX_LIVE_STATES states, counted before zero weights are dropped, so
    that no join holds more than that many.
    """
    nxt: dict = {}
    get = nxt.get
    identity = bytearray(range(256))
    for match, weight in states.items():
        pi = match[i]
        for j in outs:
            pj = match[j]
            if pj == _CLOSED:
                continue
            # match holds pi at port i, pj at j, i at pi and j at pj
            table = identity[:]
            if pi == j:
                # i and j were partners: close both, and a loop
                table[i] = table[j] = _CLOSED
                term = weight << width
            else:
                # close i and j, and make pi and pj partners
                table[i], table[j] = pj, pi
                table[pi] = table[pj] = _CLOSED
                term = weight
            key = match.translate(table)
            acc = get(key)
            if acc is None:
                if len(nxt) == MAX_LIVE_STATES:
                    raise StateSpaceTooLarge(
                        f"more than {MAX_LIVE_STATES} live matching states"
                    )
                nxt[key] = term
            else:
                nxt[key] = acc + term
            # the Lehmer digit of the next open output has the other sign
            weight = -weight
    return {key: weight for key, weight in nxt.items() if weight}


# --------------------------------------------------------------------------
# The chromatic oracle of the closed forms (rows of ``matrixlab.CHECKS``).


def chromatic_classical(poly: Poly):
    """A chromatic value as an element of CLASSICAL_FIELD, where the closed
    forms' classical images live: delta_chromatic = 2 delta_classical, so
    each delta^d term is scaled by 2^d."""
    den = lcm(*(c.denominator for c in poly.values()))
    num = CLASSICAL_FIELD.ring({m: int(c * den) << (m >> FIELD_BITS) for m, c in poly.items()})
    return CLASSICAL_FIELD.new(num, CLASSICAL_FIELD.ring({0: den}))


def check_unknot_chromatic(a: int) -> bool:
    """An a-labelled unknot, as the medial network of a free loop and as an
    a-cable closed through one projector, has the classical image of the
    loop value dimq_vector_recurrence_consistent(a) as its normalized
    chromatic value."""
    closed = classical(dimq_vector_recurrence_consistent(a))
    return all(
        chromatic_classical(chromatic_eval(sn, "ProjectorNormalized")) == closed
        for sn in (medial(unknot(a)), cabled_unknot(a, True))
    )


def check_theta_chromatic(r: int, s: int, t: int) -> bool:
    """The theta network with internal counts (r, s, t) has the classical
    image of theta_vector(r, s, t) as its normalized chromatic value."""
    tri = AdmissibleTriple.from_rst(r, s, t)
    chrom = chromatic_eval(medial(theta_network(tri.a, tri.b, tri.c)), "ProjectorNormalized")
    return chromatic_classical(chrom) == classical(theta_vector(r, s, t))


def _admissible(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def check_tetrahedron_relabelling(max_label: int) -> bool:
    """Every admissible tetrahedron with labels <= max_label has the Raw
    value of each of its relabellings by a vertex permutation of K4."""
    check_counts(max_label=max_label)
    orbits: dict = {}
    for labels in product(range(max_label + 1), repeat=6):
        label = dict(zip(_K4_EDGES, labels))
        if not all(_admissible(*(label[e] for e in _K4_EDGES if v in e)) for v in range(1, 5)):
            continue
        orbit = min(
            tuple(label[tuple(sorted((p[v0 - 1], p[v1 - 1])))] for v0, v1 in _K4_EDGES)
            for p in permutations((1, 2, 3, 4))
        )
        raw = chromatic_eval(medial(tetrahedron_network(list(labels))))
        if orbits.setdefault(orbit, raw) != raw:
            return False
    return True


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
    check_counts(k=k)
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
    check_counts(k=k)
    return [1 if mu % 2 == 0 else -1 for mu in range(2 * k)]


def check_clifford(k: int) -> bool:
    """gamma_a gamma_b + gamma_b gamma_a = 2 g_ab 1 for every a <= b."""
    gs = gamma_matrices(k)
    g = gamma_metric(k)
    dim = 2**k
    for a in range(2 * k):
        for b in range(a, 2 * k):
            ab, ba = _matmul_int(gs[a], gs[b]), _matmul_int(gs[b], gs[a])
            want = 2 * g[a] if a == b else 0
            if any(ab[i][j] + ba[i][j] != (want if i == j else 0)
                   for i in range(dim) for j in range(dim)):
                return False
    return True


def _chords(word: list, matching: list) -> list:
    """The pairs of ``matching``, each sorted.  ConstraintViolated unless
    ``word`` is a list of int slot ids and ``matching`` a list of int pairs
    that covers the word once and pairs the positions that share a slot
    id; UnsupportedSize for a word of odd length or past 8 letters."""
    if not isinstance(word, (list, tuple)) or not all(map(is_int, word)):
        raise ConstraintViolated("slot ids must be integers")
    if not isinstance(matching, (list, tuple)) or not all(_is_pair(p, is_int) for p in matching):
        raise ConstraintViolated("a matching is a list of pairs of integer positions")
    L = len(word)
    if L % 2 or L > 8:
        raise UnsupportedSize("word length must be even and at most 8")
    pairs = [sorted(p) for p in matching]
    if sorted(i for p in pairs for i in p) != list(range(L)):
        raise ConstraintViolated("matching must cover each position once")
    if len(set(word)) != L // 2 or any(word[a] != word[b] for a, b in pairs):
        raise ConstraintViolated("positions must share a slot id exactly when matched")
    return pairs


def gamma_oracle_trace(k: int, word: list, matching: list) -> Fraction:
    """Tr(gamma^{mu_1} ... gamma^{mu_L}) with the word positions contracted
    pairwise per ``matching`` (a list of disjoint position pairs covering
    the word); each contracted pair sums over a common index with the
    metric factor g_{mu,mu}.

    ``word`` gives a slot id per position; positions with equal slot ids
    must be matched together (the slots name the contractions).
    """
    pairs = _chords(word, matching)
    gs = gamma_matrices(k)
    g = gamma_metric(k)
    dim = 2**k
    total = 0
    idx = [0] * len(word)
    # an index for each pair; the positions of a pair share it
    for mus in product(range(2 * k), repeat=len(pairs)):
        for (a, b), mu in zip(pairs, mus):
            idx[a] = idx[b] = mu
        mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for mu in idx:
            mat = _matmul_int(mat, gs[mu])
        total += prod(g[mu] for mu in mus) * sum(mat[i][i] for i in range(dim))
    return Fraction(total)


def check_gamma_trace(k: int, word: list, matching: list) -> bool:
    """gamma_oracle_trace(k, word, matching) is 2^m times the limit q -> 1
    at level k, at Delta = 2^k (the size of the matrices), of the closed
    form of the m chords of ``matching``: the spinor loop Delta, times the
    vector loop delta for each chord that crosses none and F(1, 1) for each
    pair of chords that cross.  A chord that crosses two others has no
    closed form here.  With no chords, Tr(1) = 2^k is Delta."""
    chords = _chords(word, matching)
    crossings = [sum(a < c < b < d or c < a < d < b for c, d in chords) for a, b in chords]
    if max(crossings, default=0) > 1:
        raise ArgumentOutOfRange("a chord crosses two others")
    closed = SPIN_DELTA * DELTA ** crossings.count(0) * fierz(1, 1) ** (crossings.count(1) // 2)
    limit = q_to_one(integer_level(closed, k))
    value = Fraction(limit.numer(0, 2**k), limit.denom(0, 2**k))
    return gamma_oracle_trace(k, word, matching) == value * 2 ** len(chords)
