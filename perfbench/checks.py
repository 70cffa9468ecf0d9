"""Output checks computed apart from the program.

Each ``*_failures`` function takes the outputs of passes (as the worker
serialized them) and returns a list of failure messages, empty when the
outputs are right.  They use their own parser for the canonical text,
their own Laurent polynomials and exact ``Fraction`` arithmetic, and
recompute every expected value from its definition.  Only
``numeric_towers`` calls the program: it produces the idempotents the
tower check then verifies by itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial

# --------------------------------------------------------------------------
# Canonical text and Laurent polynomials in (q, z, Delta, u, v).

VARS = ("q", "z", "Delta", "u", "v")
_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"([A-Za-z]+)(?:\^(\d+))?$")


def parse_poly(text: str) -> dict:
    """A polynomial as the program prints it: terms joined by ' + ' or
    ' - ', each an optional integer and '*'-joined powers of the
    variables.  Returns {exponent tuple: int}."""
    parts = _SPLIT.split(text.strip())
    signs = ["+"] + parts[1::2]
    out: dict = {}
    for sign, body in zip(signs, parts[0::2]):
        coeff = -1 if sign == "-" else 1
        if body.startswith("-"):
            coeff, body = -coeff, body[1:]
        exps = [0] * len(VARS)
        for k, factor in enumerate(body.split("*")):
            if k == 0 and factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group(1) not in VARS:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exps[VARS.index(m.group(1))] += int(m.group(2) or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def parse_text(text: str) -> tuple[dict, dict]:
    """(numerator, denominator) of a canonical text ``P`` or ``(P)/(P)``."""
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), {(0,) * len(VARS): 1}


def lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def lsum(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def lprod(polys) -> dict:
    out = mono()
    for p in polys:
        out = lmul(out, p)
    return out


def mono(c=1, q=0, z=0, delta=0) -> dict:
    return {(q, z, delta, 0, 0): c}


def bar_poly(p: dict) -> dict:
    """q -> 1/q, z -> 1/z (Delta, u, v fixed)."""
    return {(-k[0], -k[1]) + k[2:]: v for k, v in p.items()}


def qint_frac(b: int, a: int) -> tuple[dict, dict]:
    """[b n + a] = (z^b q^a - z^-b q^-a) / (q - q^-1)."""
    return lsum(mono(1, a, b), mono(-1, -a, -b)), lsum(mono(1, 1), mono(-1, -1))


def brace_poly(k: int) -> dict:
    """{k} = z q^-k + z^-1 q^k."""
    return lsum(mono(1, -k, 1), mono(1, k, -1))


def same_fraction(a: tuple[dict, dict], b: tuple[dict, dict]) -> bool:
    return lmul(a[0], b[1]) == lmul(a[1], b[0])


def fierz_b0(a: int) -> tuple[dict, dict]:
    """F(a, 0) = [2n][2n-1]...[2n-a+1] / ({0}{1}...{a-1})."""
    brackets = [qint_frac(2, -k) for k in range(a)]
    num = lprod(n for n, _ in brackets)
    den = lmul(lprod(d for _, d in brackets), lprod(brace_poly(k) for k in range(a)))
    return num, den


def fierz_b1(a: int) -> tuple[dict, dict]:
    """F(a, 1) = (-1)^a [2n-2a][2n]...[2n-a+1] / ({0}{1}...{a})."""
    brackets = [qint_frac(2, -2 * a)] + [qint_frac(2, -k) for k in range(a)]
    num = lmul(mono((-1) ** a), lprod(n for n, _ in brackets))
    den = lmul(lprod(d for _, d in brackets), lprod(brace_poly(k) for k in range(a + 1)))
    return num, den


# --------------------------------------------------------------------------
# check-all


#: The 22 rows of `qspin check --all`, as (name, params) in its sort order.
CHECK_ROWS = sorted(
    [("braid-invariants", {"n": n}) for n in (1, 2)]
    + [("ybe", {"kind": k, "rep": "hecke2"}) for k in ("HeckeF", "HeckeE")]
    + [("ybe", {"kind": k, "rep": "bmw3"}) for k in ("BMW_D", "BMW_A")]
    + [("ybe", {"kind": k, "rep": "tensor", "n": 1}) for k in ("BMW_D", "BMW_A")]
    + [("unitarity", {"kind": k, "rep": "bmw3"}) for k in ("BMW_D", "BMW_A")]
    + [("unitarity", {"kind": k, "rep": "hecke2"}) for k in ("HeckeF", "HeckeE")]
    + [("tower", {"kind": k, "n": n, "p_max": 3}) for n in (1, 2) for k in "EF"]
    + [("quantum-dims", {"n": n, "p_max": 3}) for n in (1, 2)]
    + [("crossing-symmetry-D", {})]
    + [("hecke-tower", {"kind": k}) for k in "FE"]
    + [("hecke-quotient", {})],
    key=lambda row: (row[0], json.dumps(row[1], sort_keys=True)),
)


def check_all_failures(outputs: list[dict]) -> list[str]:
    """Every pass printed the 22 rows, each PASS, and 'all passed'."""
    want = [f"PASS  {n}  {json.dumps(p, sort_keys=True)}" for n, p in CHECK_ROWS]
    want.append("all passed")
    fails = []
    for k, out in enumerate(outputs):
        got = out["stdout"].splitlines()
        if out["code"] != 0:
            fails.append(f"check-all pass {k}: exit code {out['code']}")
        if got != want:
            bad = [line for line in got if line not in want] or ["(rows missing)"]
            fails.append(f"check-all pass {k}: unexpected rows {bad[:3]}")
    return fails


#: Idempotent towers checked at q = 2: (n, p_max).
TOWERS = ((1, 4), (2, 3))
PROBE_Q = 2


def classical_rank(kind: str, n: int, p: int) -> int:
    """Rank of E(p) (antisymmetric) or F(p) (traceless symmetric) on
    V^(x)p, dim V = 2n."""
    if kind == "E":
        return comb(2 * n, p)
    return comb(2 * n + p - 1, p) - (comb(2 * n + p - 3, p - 2) if p >= 2 else 0)


def numeric_towers() -> dict:
    """E(p) and F(p) from the program, evaluated at q = 2 entry by entry:
    {(kind, n, p): {i: {j: Fraction}}}."""
    import warnings

    from qspin import matrixlab, scalar

    out = {}
    for n, p_max in TOWERS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = matrixlab.build_braid_data(n)
        for kind in "EF":
            tower = matrixlab.idempotent_tower(kind, data, p_max)
            for p, x in tower.items():
                out[(kind, n, p)] = {
                    "dim": x.dim,
                    "rows": {
                        i: {j: scalar.numeric_probe(x.entry(i, j), PROBE_Q, n, 0)
                            for j in row}
                        for i, row in x.rows.items()
                    },
                }
    return out


def _square(rows: dict) -> dict:
    out: dict = {}
    for i, row in rows.items():
        acc: dict = {}
        for k, a in row.items():
            for j, b in rows.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def tower_failures(towers: dict) -> list[str]:
    """X^2 = X in exact rationals, and tr X = the classical rank."""
    fails = []
    want = {(k, n, p) for n, p_max in TOWERS for k in "EF" for p in range(1, p_max + 1)}
    if set(towers) != want:
        fails.append(f"towers: got {sorted(towers)}")
    for key in sorted(towers):
        kind, n, p = key
        rows = {i: {j: v for j, v in row.items() if v} for i, row in towers[key]["rows"].items()}
        rows = {i: row for i, row in rows.items() if row}
        if towers[key]["dim"] != (2 * n) ** p:
            fails.append(f"{kind}({p}) at n={n}: dimension {towers[key]['dim']}")
        if _square(rows) != rows:
            fails.append(f"{kind}({p}) at n={n}, q={PROBE_Q}: X^2 != X")
        trace = sum(row.get(i, 0) for i, row in rows.items())
        if trace != classical_rank(kind, n, p):
            fails.append(
                f"{kind}({p}) at n={n}: trace {trace} != rank {classical_rank(kind, n, p)}"
            )
    return fails


# --------------------------------------------------------------------------
# fierz-table


FIERZ_MAX = 5


def fierz_table_failures(outputs: list[dict]) -> list[str]:
    """The table has every (a, b), is symmetric, each entry is invariant
    under q -> 1/q, z -> 1/z, and the columns b = 0 and b = 1 match their
    closed forms.  Every pass printed the same bytes."""
    fails = []
    first = outputs[0]["stdout"] if outputs else ""
    for k, out in enumerate(outputs):
        if out["code"] != 0:
            fails.append(f"fierz-table pass {k}: exit code {out['code']}")
        if out["stdout"] != first:
            fails.append(f"fierz-table pass {k}: output differs from pass 0")
    try:
        doc = json.loads(first)
        entries = {(e["a"], e["b"]): e["value"] for e in doc["entries"]}
    except (ValueError, KeyError, TypeError) as exc:
        return fails + [f"fierz-table: unreadable output ({exc})"]
    grid = {(a, b) for a in range(FIERZ_MAX + 1) for b in range(FIERZ_MAX + 1)}
    if set(entries) != grid or len(doc["entries"]) != len(grid):
        return fails + ["fierz-table: entries do not cover the 6x6 grid once"]
    for (a, b), text in sorted(entries.items()):
        if entries[(b, a)] != text:
            fails.append(f"F({a},{b}) != F({b},{a})")
        try:
            num, den = parse_text(text)
        except ValueError as exc:
            fails.append(f"F({a},{b}): {exc}")
            continue
        if not same_fraction((num, den), (bar_poly(num), bar_poly(den))):
            fails.append(f"F({a},{b}) is not invariant under q -> 1/q, z -> 1/z")
        if b == 0 and not same_fraction((num, den), fierz_b0(a)):
            fails.append(f"F({a},0) differs from [2n]...[2n-a+1]/({{0}}...{{a-1}})")
        if b == 1 and not same_fraction((num, den), fierz_b1(a)):
            fails.append(f"F({a},1) differs from (-1)^a [2n-2a][2n]...[2n-a+1]/({{0}}...{{a}})")
    return fails


# --------------------------------------------------------------------------
# readback


def _falling(x: int, m: int) -> int:
    out = 1
    for k in range(m):
        out *= x - k
    return out


def classical_image(family: str, params: list, n: int) -> dict:
    """The value at q -> 1 and z = q^n, where [b n + a] -> b n + a and
    {k} -> 2, as {power of Delta: Fraction}."""
    if family == "theta_spinor":
        (a,) = params
        return _nonzero({1: Fraction(_falling(2 * n, a), 2**a)})
    if family == "fierz":
        a, b = params
        total = sum(
            (-1) ** (a * b - m * m) * comb(a, m) * comb(b, m) * factorial(m)
            * _falling(2 * n, a + b - m)
            for m in range(min(a, b) + 1)
        )
        return _nonzero({0: Fraction(total, 2 ** (a + b))})
    r, s, t = params
    m = r + s + t
    ff = _falling(2 * n, m)
    if family == "theta_vector":
        coef = Fraction(
            factorial(r) * factorial(s) * factorial(t),
            factorial(r + s) * factorial(r + t) * factorial(s + t),
        )
        return _nonzero({0: coef * ff})
    if family == "threej_spinor":
        return _nonzero({1: Fraction(ff, 2**m)})
    if family == "threej_double":
        a, b, c = r + t, r + s, s + t
        coef = Fraction(
            factorial(a) * factorial(b) * factorial(c),
            factorial(r) * factorial(s) * factorial(t),
        )
        return _nonzero({2: coef * ff / 4**m})
    raise ValueError(f"unknown family {family!r}")


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _delta_powers(level: dict) -> dict | None:
    """A serialized element of Q(delta, Delta) as {power of Delta:
    Fraction}, or None unless it is c * Delta^k-sums over a constant."""
    den = level["den"]
    if len(den) != 1 or den[0][0] != [0, 0]:
        return None
    d = Fraction(den[0][1])
    out = {}
    for (e_delta, e_cap), c in level["num"]:
        if e_delta:
            return None
        out[e_cap] = out.get(e_cap, 0) + Fraction(c) / d
    return _nonzero(out)


def readback_failures(texts: list[dict], outputs: list[dict]) -> list[str]:
    """Round trip, bar invariance and the classical image at n = 1, 2, 3."""
    if len(outputs) != len(texts):
        return [f"readback: {len(outputs)} outputs for {len(texts)} texts"]
    fails = []
    for item, out in zip(texts, outputs):
        tag = f"{item['family']}{tuple(item['params'])}"
        if "error" in out:
            fails.append(f"{tag}: {out['error']}")
            continue
        if out["round_trip"] != item["text"]:
            fails.append(f"{tag}: to_text(parse_scalar(t)) != t")
        if out["bar"] != item["text"]:
            fails.append(f"{tag}: bar(x) != x")
        for n, level in zip((1, 2, 3), out["levels"]):
            if _delta_powers(level) != classical_image(item["family"], item["params"], n):
                fails.append(f"{tag}: q_to_one(integer_level(x, {n})) is wrong")
    return fails


# --------------------------------------------------------------------------
# chromatic


def poly_from_roots(roots, scale=Fraction(1)) -> dict:
    """scale * prod (x - root), as {degree: Fraction}."""
    coeffs = {0: Fraction(scale)}
    for r in roots:
        nxt: dict = {}
        for d, c in coeffs.items():
            nxt[d + 1] = nxt.get(d + 1, 0) + c
            nxt[d] = nxt.get(d, 0) - r * c
        coeffs = nxt
    return _nonzero(coeffs)


def expected_theta(labels) -> dict:
    """The classical image of theta_vector(r, s, t) under delta_chrom =
    2 delta: r!s!t!/((r+s)!(r+t)!(s+t)!) x(x-1)...(x-m+1), m = r+s+t."""
    a, b, c = labels
    r, s, t = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    coef = Fraction(
        factorial(r) * factorial(s) * factorial(t),
        factorial(r + s) * factorial(r + t) * factorial(s + t),
    )
    return poly_from_roots(range(r + s + t), coef)


def chromatic_failures(networks: list[dict], outputs: list[dict]) -> list[str]:
    """Thetas match their closed form, each tetrahedron equals its image
    under a symmetry of K4, and a cable through one rectangle of a lines
    gives delta(delta-1)...(delta-a+1)."""
    if len(outputs) != len(networks):
        return [f"chromatic: {len(outputs)} outputs for {len(networks)} networks"]
    fails = []
    tetra: dict = {}
    for net, out in zip(networks, outputs):
        tag = f"{net['kind']} {net.get('labels', net.get('lines'))}"
        try:
            if out["code"] != 0:
                raise ValueError(f"exit code {out['code']}")
            coeffs = json.loads(out["stdout"])["coefficients"]
            poly = _nonzero({int(d): Fraction(c) for d, c in coeffs.items()})
        except (ValueError, KeyError, TypeError) as exc:
            fails.append(f"{tag}: unreadable output ({exc})")
            continue
        if net["kind"] == "theta" and poly != expected_theta(net["labels"]):
            fails.append(f"{tag}: differs from the theta closed form")
        elif net["kind"] == "cable" and poly != poly_from_roots(range(net["lines"])):
            fails.append(f"{tag}: differs from delta(delta-1)...(delta-a+1)")
        elif net["kind"] == "tetrahedron":
            tetra.setdefault(net["group"], []).append((tag, poly))
    for group in tetra.values():
        if any(poly != group[0][1] for _, poly in group):
            fails.append(f"{group[0][0]}: not invariant under the K4 relabelling")
    return fails
