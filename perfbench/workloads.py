"""Seeded inputs for the four benchmark workloads.

Each workload is a list of knotmeta CLI invocations (argv lists) run once per
pass. Inputs are written to the run directory before any timing starts, and
the same seed always gives byte-identical files. Sizes are fixed per slot so
that the cost of a pass barely depends on the seed: the seed picks which
matrices, q values and coefficients fill a slot, never how big the slot is.

Nothing here imports knotmeta; matrix determinants and polynomial products
are computed with the plain helpers below.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Slots up to this genus are mixed by symplectic transvections; larger ones
# stay plain connected sums. knotmeta's smith_normal_form lets entries grow
# to millions of bits on some dense inputs from genus 3 up (see
# perfbench/README.md), and a run must finish in minutes.
MIXED_GENUS_MAX = 2

WORKLOADS = ("sweep", "roots", "census", "apoly")

# Per-workload sizes. "full" is what BENCHMARK.json runs; "tiny" is for the
# benchmark's own smoke tests.
SIZES = {
    "full": {
        "sweep_p_max": 21,
        "roots_p_top": 15,
        # census slots: the determinants of the genus-1 blocks of each knot.
        # Blocks sharing a factor (3, 15, 3 and 3, 3, 9) give non-cyclic
        # torsion; the others are pairwise coprime.
        "census": [
            [4523],
            [5, 209],
            [3, 7, 25],
            [1, 3, 15, 3],
            [1, 1, 3, 5, 7],
            [3, 3, 9],
        ],
        # apoly slots: (kind, deg_l, top m-exponent)
        "apoly": [
            ("arcs", 6, 12),
            ("arcs", 10, 20),
            ("arcs", 14, 28),
            ("factored", 5, 10),
            ("factored", 8, 16),
            ("factored", 12, 24),
            ("factored", 16, 30),
            ("none", 7, 14),
            ("none", 12, 24),
            ("generic", 9, 18),
            ("generic", 10, 20),
            ("generic", 14, 40),
            ("generic", 16, 32),
            ("tagged", 5, 10),
            ("tagged", 8, 16),
            ("tagged", 11, 22),
            ("tagged", 14, 28),
            ("tagged", 17, 34),
            ("tagged", 20, 40),
            ("square", 6, 12),
            ("square", 10, 20),
            ("square", 12, 24),
        ],
    },
    "tiny": {
        "sweep_p_max": 7,
        "roots_p_top": 7,
        "census": [[31], [1, 3, 15]],
        "apoly": [
            ("arcs", 5, 8),
            ("factored", 5, 8),
            ("none", 5, 8),
            ("generic", 5, 8),
            ("tagged", 5, 10),
            ("square", 5, 8),
        ],
    },
}

# Residual factors R(l) for "factored" slots, as coefficient lists from l^0:
# linear, quadratic with roots +-2i in Q(i), quadratic with no root in Q(i),
# and cubic, so the four factored slots reach every residual branch of the
# criteria ("none" slots give the constant residual).
_RESIDUALS = (
    [-2, 1],
    [4, 0, 1],
    [1, 1, 1],
    [2, 0, 0, 1],
)


def two_bridge_pairs(p_max: int, negative_q: bool) -> list:
    """Every (p, q) with 3 <= p <= p_max odd, q odd, 0 < q < p, gcd(p, q) = 1,
    and -q too when negative_q. Written from the definition of S(p, q)."""
    out = []
    for p in range(3, p_max + 1, 2):
        for q in range(1, p, 2):
            if math.gcd(p, q) == 1:
                out.append((p, q))
                if negative_q:
                    out.append((p, -q))
    return out


# ---------------------------------------------------------------------------
# Integer helpers

def int_det(rows) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def symplectic_form(n: int):
    """J with J[2k][2k+1] = 1 and J[2k+1][2k] = -1."""
    J = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        J[k][k + 1], J[k + 1][k] = 1, -1
    return J


# ---------------------------------------------------------------------------
# census: Seifert matrices V = B + J+ with B symmetric

def _genus_one_block(d: int, rng: random.Random):
    """A 2x2 symmetric B with |det(2B + J + J^T)| = d, d odd.

    det [[2a, 2b+1], [2b+1, 2c]] = 4ac - (2b+1)^2, so pick 2b+1 near
    sqrt(d) and solve 4ac = (2b+1)^2 +- d, the sign fixed by d mod 4, with
    a and c close in size. Entries stay of order sqrt(d)."""
    b = max(0, (math.isqrt(d) - 1) // 2) + rng.randrange(0, 2)
    s = (2 * b + 1) ** 2
    m = (s - d) // 4 if d % 4 == 1 else (s + d) // 4
    if m == 0:
        return [[0, b], [b, rng.randrange(-2, 3)]]
    a = max(x for x in range(1, math.isqrt(abs(m)) + 1) if m % x == 0)
    a *= rng.choice((1, -1))
    return [[a, b], [b, m // a]] if rng.random() < 0.5 else [[m // a, b], [b, a]]


def seifert_matrix(dets, rng: random.Random):
    """A Seifert matrix with det(V - V^T) = 1 whose symmetrization has
    |det| = the product of the block determinants `dets`.

    It is a connected sum of genus-1 blocks. Up to genus MIXED_GENUS_MAX it
    is mixed by symplectic transvections P = I + v v^T J, which keep
    V - V^T = J and the determinant of V + V^T."""
    n = 2 * len(dets)
    J = symplectic_form(n)
    V = [[0] * n for _ in range(n)]
    for k, d in enumerate(dets):
        B = _genus_one_block(d, rng)
        for i in range(2):
            for j in range(2):
                V[2 * k + i][2 * k + j] = B[i][j] + (1 if (i, j) == (0, 1) else 0)
    for _ in range(len(dets) if len(dets) <= MIXED_GENUS_MAX else 0):
        v = [0] * n
        for i in rng.sample(range(n), 2):
            v[i] = rng.choice((1, -1))
        vJ = [sum(v[i] * J[i][j] for i in range(n)) for j in range(n)]
        P = [[(1 if i == j else 0) + v[i] * vJ[j] for j in range(n)] for i in range(n)]
        V = _matmul(_matmul(_transpose(P), V), P)
    W = [[V[i][j] + V[j][i] for j in range(n)] for i in range(n)]
    S = [[V[i][j] - V[j][i] for j in range(n)] for i in range(n)]
    if S != J or abs(int_det(W)) != math.prod(dets):
        raise RuntimeError("seifert_matrix: construction invariant broken")
    return V


# ---------------------------------------------------------------------------
# apoly: sparse integer polynomials {(m_exp, l_exp): coeff}

def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for (m1, l1), c1 in a.items():
        for (m2, l2), c2 in b.items():
            k = (m1 + m2, l1 + l2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _in_l(coeffs) -> dict:
    return {(0, e): c for e, c in enumerate(coeffs) if c}


_M2_PLUS_1 = {(0, 0): 1, (2, 0): 1}
_L = _in_l([0, 1])
_L_MINUS_1 = _in_l([-1, 1])
_L_PLUS_1 = _in_l([1, 1])


def _power(base: dict, k: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(k):
        out = _pmul(out, base)
    return out


def _random_bivariate(shape, rng, deg_l: int, m_top: int, terms: int) -> dict:
    """A poly with even m-exponents <= m_top and l-exponents <= deg_l.

    `shape` places the terms and `rng` picks their coefficients, so a slot
    keeps its term layout, and its cost, whatever the seed. The m^0 column
    holds l^0 and l^deg_l (a vertical Newton edge), and the poly does not
    vanish at l = 1."""
    grid = [
        (m, l)
        for m in range(0, m_top + 1, 2)
        for l in range(deg_l + 1)
        if (m, l) not in ((0, 0), (0, deg_l))
    ]
    keys = [(0, 0), (0, deg_l)] + shape.sample(grid, min(terms, len(grid)))
    poly = {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in keys}
    at_one = {}
    for (me, _le), c in poly.items():
        at_one[me] = at_one.get(me, 0) + c
    if not any(at_one.values()):
        poly[(0, 0)] += 1 if poly[(0, 0)] > 0 else -1
    return poly


def _apoly_slot(idx: int, kind: str, deg_l: int, m_top: int, rng: random.Random) -> dict:
    """One A-polynomial record; `kind` and the slot index pick the criterion
    branch it fires and the term layout, the seed only its coefficients."""
    shape = random.Random(f"apoly-slot:{idx}:{kind}:{deg_l}:{m_top}")
    terms = max(4, deg_l)
    # generic slots alternate: asserted small gives a residual finding,
    # unasserted gives "inconclusive"
    rec = {"small": kind != "generic" or idx % 2 == 0}
    if kind == "arcs":
        # (m^2 + 1) | A, so A(i, l) = 0
        poly = _pmul(_M2_PLUS_1, _random_bivariate(shape, rng, deg_l, m_top - 2, terms))
    elif kind in ("factored", "none", "tagged"):
        if kind == "tagged":
            # A(i, l) = (l - 1)^k with k = deg_l <= (p-1)/2
            p = 2 * deg_l + 1 + 2 * rng.randrange(0, 3)
            q = rng.choice([q for q in range(1, p, 2) if math.gcd(p, q) == 1])
            rec.update(p=p, q=q, small=True)
            T = _power(_L_MINUS_1, deg_l)
        else:
            a, b = idx % 3, 1 + idx % 3
            c = 0 if kind == "none" else 1
            R = [rng.choice((1, -1, 2))] if kind == "none" else _RESIDUALS[idx % len(_RESIDUALS)]
            T = _pmul(_pmul(_power(_L, a), _power(_L_MINUS_1, b)),
                      _pmul(_power(_L_PLUS_1, c), _in_l(R)))
        C = _random_bivariate(shape, rng, deg_l, m_top - 2, terms)
        poly = _padd(T, _pmul(_M2_PLUS_1, C))
    elif kind == "generic":
        # no vertical edge: the m^0 column is l^deg_l alone and the m^top
        # column is 1, so deg_l survives m = sqrt(-1)
        poly = {(0, deg_l): 1, (m_top, 0): rng.choice((1, -1))}
        grid = [(m, l) for m in range(2, m_top - 1, 2) for l in range(deg_l)]
        for k in shape.sample(grid, min(terms, len(grid))):
            poly[k] = rng.choice((-2, -1, 1, 2))
    elif kind == "square":
        # A = F^2 gives A(3, l) a repeated factor: the normal-form warning
        F = _random_bivariate(shape, rng, deg_l // 2, m_top // 2, terms // 2)
        poly = _power(F, 2)
    else:
        raise ValueError(f"unknown apoly slot kind {kind!r}")
    rec["terms"] = [{"m": me, "l": le, "c": c} for (me, le), c in sorted(poly.items())]
    return rec


# ---------------------------------------------------------------------------
# Workloads

def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def build(workload: str, seed: int, size: str, workdir: Path, fixtures: Path):
    """Write the inputs of one workload into workdir.

    Returns (invocations, inputs, summary): the argv lists of one pass, the
    generated records the oracles check against, and a short description of
    the inputs for the results file."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = SIZES[size]
    if workload == "sweep":
        p_max = cfg["sweep_p_max"]
        pairs = two_bridge_pairs(p_max, negative_q=True)
        argv = ["sweep", "--p-max", str(p_max), "--negative-q", "-f", "json"]
        summary = {"p_max": p_max, "knots": len(pairs), "seed": "unused"}
        return [argv], {"pairs": pairs}, summary

    if workload == "roots":
        pq = []
        for p in range(3, cfg["roots_p_top"] + 1, 2):
            qs = [q for q in range(-p + 2, p, 2) if math.gcd(p, abs(q)) == 1]
            pq.append((p, rng.choice(qs)))
        invocations = [
            ["tb-riley", "-p", str(p), "-q", str(q), "--roots", "-f", "json"]
            for p, q in pq
        ]
        return invocations, {"pq": pq}, {"pq": pq}

    if workload == "census":
        records, knots = [], []
        for idx, dets in enumerate(cfg["census"]):
            V = seifert_matrix(dets, rng)
            name = f"K{idx}_g{len(dets)}"
            records.append({"type": "seifert", "name": name, "V": V})
            knots.append({"name": name, "V": V, "block_dets": dets})
        path = workdir / "census.json"
        _write_json(path, records)
        summary = {
            "knots": [
                {
                    "name": k["name"],
                    "genus": len(k["V"]) // 2,
                    "det": math.prod(k["block_dets"]),
                    "block_dets": k["block_dets"],
                }
                for k in knots
            ]
        }
        # three commands of very different cost, so that the pooled median
        # falls inside one command's samples rather than between two
        invocations = [
            ["det", "-i", str(path), "-f", "json"],
            ["meta-enum", "-i", str(path), "-f", "json"],
            ["meta-verify", "-i", str(path), "-f", "json"],
        ]
        return invocations, {"knots": knots}, summary

    if workload == "apoly":
        records = json.loads((fixtures / "apolys.json").read_text(encoding="utf-8"))
        for idx, (kind, deg_l, m_top) in enumerate(cfg["apoly"]):
            rec = _apoly_slot(idx, kind, deg_l, m_top, rng)
            rec.update(type="apoly", name=f"A{idx}_{kind}")
            records.append(rec)
        det = rng.choice((3, 5, 7))
        path = workdir / "apoly.json"
        _write_json(path, records)
        summary = {
            "det": det,
            "records": [
                {
                    "name": r["name"],
                    "deg_l": max(t["l"] for t in r["terms"]),
                    "deg_m": max(t["m"] for t in r["terms"]),
                    "tagged": "p" in r,
                }
                for r in records
            ],
        }
        invocations = [["apoly-analyze", "-i", str(path), "--det", str(det), "-f", "json"]]
        return invocations, {"records": records, "det": det}, summary

    raise ValueError(f"unknown workload {workload!r}")
