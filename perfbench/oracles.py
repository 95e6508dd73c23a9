"""Output checks that do not use knotmeta's code.

Each check takes the generated inputs and the stdout text and exit code of
every invocation of one pass, and returns one list of problems per
invocation; an empty list means the output is right. Exact arithmetic comes
from sympy and fractions. A check never raises on bad output: it reports it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import sympy

_L, _U = sympy.symbols("l u")


def parse_poly(text: str):
    """knotmeta's rendering "(c)*u^k + ... + (c0)" as a sympy expression."""
    expr = text.replace("^", "**")
    return sympy.expand(sympy.sympify(expr, locals={"l": _L, "u": _U, "i": sympy.I}))


def _load(out: str, code, problems: list):
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _guard(check):
    """Turn an unexpected error inside a check into a reported problem."""

    def run(*args):
        problems = []
        try:
            check(*args, problems)
        except Exception as exc:  # malformed output must not stop the run
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        return problems

    return run


# ---------------------------------------------------------------------------
# sweep

@_guard
def _sweep_call(inputs, out, code, problems):
    rows = _load(out, code, problems)
    if rows is None:
        return
    got = sorted((r["p"], r["q"]) for r in rows)
    if got != sorted(inputs["pairs"]):
        problems.append("(p, q) set differs from the enumeration of S(p, q)")
    for r in rows:
        half = (r["p"] - 1) // 2
        if not r["ok"]:
            problems.append(f"{r['name']}: row not ok")
        if r["det"] != r["p"]:
            problems.append(f"{r['name']}: det {r['det']}, a 2-bridge knot S(p, q) has det p")
        if r["meta_count"] != half or r["riley_deg"] != half:
            problems.append(
                f"{r['name']}: meta_count {r['meta_count']}, riley_deg "
                f"{r['riley_deg']}, expected (p-1)/2 = {half}"
            )


def check_sweep(inputs, outs, codes):
    return [_sweep_call(inputs, outs[0], codes[0])]


# ---------------------------------------------------------------------------
# roots

@_guard
def _roots_call(p, q, out, code, problems):
    doc = _load(out, code, problems)
    if doc is None:
        return
    if (doc["p"], doc["q"]) != (p, q):
        problems.append(f"answered S({doc['p']},{doc['q']}) for S({p},{q})")
    phi = sympy.Poly(parse_poly(doc["phi"]), _U)
    deg = doc["deg_phi"]
    if phi.degree() != deg or deg != (p - 1) // 2:
        problems.append(f"deg phi {phi.degree()}, deg_phi {deg}, (p-1)/2 {(p - 1) // 2}")
    if sympy.degree(sympy.gcd(phi, phi.diff(_U)), _U) != 0:
        problems.append("phi is not squarefree")
    real = [float(x) for x in doc["approx"]["real_roots"]]
    pairs = doc["approx"]["complex_pair_count"]
    if phi.count_roots() != len(real):
        problems.append(f"{len(real)} real roots printed, sympy counts {phi.count_roots()}")
    if len(real) + 2 * pairs != deg:
        problems.append(f"{len(real)} real + 2*{pairs} complex pairs != deg {deg}")
    if real != sorted(real) or len(set(real)) != len(real):
        problems.append("real roots are not distinct and increasing")
    # roots are printed to 12 significant digits
    exact = [float(r.evalf(30)) for r in phi.real_roots()]
    if len(exact) == len(real):
        for got, want in zip(real, exact):
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                problems.append(f"real root {got!r}, sympy gives {want!r}")


def check_roots(inputs, outs, codes):
    return [_roots_call(p, q, o, c) for (p, q), o, c in zip(inputs["pq"], outs, codes)]


# ---------------------------------------------------------------------------
# census

def _classes_of(knot, rows, problems):
    V = knot["V"]
    n = len(V)
    W = [[V[i][j] + V[j][i] for j in range(n)] for i in range(n)]
    det = _sym_det(knot)
    classes = set()
    for r in rows:
        th = tuple(Fraction(t) for t in r["thetas"])
        if len(th) != n or any(not 0 <= t < 1 for t in th) or not any(th):
            problems.append(f"{knot['name']}: bad rotation vector {r['thetas']}")
            continue
        if th > tuple((-t) % 1 for t in th):
            problems.append(f"{knot['name']}: {r['thetas']} is not canonical")
        if any(sum(w * t for w, t in zip(row, th)) % 1 for row in W):
            problems.append(f"{knot['name']}: W.theta != 0 mod 1 for {r['thetas']}")
        if "order" in r and r["order"] != math.lcm(*(t.denominator for t in th)):
            problems.append(f"{knot['name']}: wrong order for {r['thetas']}")
        if th in classes:
            problems.append(f"{knot['name']}: class {r['thetas']} listed twice")
        classes.add(th)
    if len(classes) != (det - 1) // 2:
        problems.append(
            f"{knot['name']}: {len(classes)} classes, (|det|-1)/2 = {(det - 1) // 2}"
        )
    return classes


def _sym_det(knot) -> int:
    V = knot["V"]
    n = len(V)
    return abs(int(sympy.Matrix(n, n, lambda i, j: V[i][j] + V[j][i]).det()))


def _census_calls(inputs, outs, codes, problems):
    det_rows = _load(outs[0], codes[0], problems[0])
    enum_rows = _load(outs[1], codes[1], problems[1])
    verify_rows = _load(outs[2], codes[2], problems[2])
    if det_rows is not None:
        got = [(r["name"], r["det"]) for r in det_rows]
        want = [(k["name"], _sym_det(k)) for k in inputs["knots"]]
        if got != want:
            problems[0].append(f"determinants {got}, sympy gives {want}")
    for knot in inputs["knots"]:
        name = knot["name"]
        if enum_rows is not None:
            mine = [r for r in enum_rows if r["name"] == name]
            enum_classes = _classes_of(knot, mine, problems[1])
        if verify_rows is not None:
            mine = [r for r in verify_rows if r["knot"] == name]
            bad = [r["thetas"] for r in mine if not r["ok"]]
            if bad:
                problems[2].append(f"{name}: {len(bad)} classes fail meta-verify")
            verified = {tuple(Fraction(t) for t in r["thetas"]) for r in mine}
            if enum_rows is not None and verified != enum_classes:
                problems[2].append(f"{name}: verified classes differ from enumerated")


def check_census(inputs, outs, codes):
    problems = [[], [], []]
    try:
        _census_calls(inputs, outs, codes, problems)
    except Exception as exc:  # malformed output must not stop the run
        problems[0].append(f"check raised {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------------------
# apoly

def _a_at(record, m):
    """A(m, l) for the record's A, signed like knotmeta's normal form: an
    A-polynomial is defined up to sign, and the term with the smallest
    (m, l) exponent pair gets a positive coefficient."""
    first = min(record["terms"], key=lambda t: (t["m"], t["l"]))
    sign = 1 if first["c"] > 0 else -1
    return sympy.expand(
        sign * sum(t["c"] * sympy.sympify(m) ** t["m"] * _L ** t["l"] for t in record["terms"])
    )


def _multiplicity(expr, root):
    """Multiplicity of l - root in a nonzero polynomial in l, with the
    cofactor as a Poly."""
    poly, mult = sympy.Poly(expr, _L), 0
    while poly.eval(root) == 0:
        poly = sympy.div(poly, sympy.Poly(_L - root, _L))[0]
        mult += 1
    return mult, poly


def _expected_kinds(record, ev):
    """The criterion kinds knotmeta must report, from A(i, l) alone: arcs
    when it vanishes, and otherwise a finding about every factor other than
    l and l-1, which needs asserted smallness to be conclusive."""
    if ev == 0:
        return ["arcs"]
    _a, rest = _multiplicity(ev, 0)
    _b, rest = _multiplicity(rest, 1)
    c, residual = _multiplicity(rest, -1)
    if c == 0 and residual.degree() < 1:
        return ["none"]
    if not record.get("small"):
        return ["inconclusive"]
    # one finding per omega in Q(i) (l = -1, the roots of a residual of
    # degree <= 2 when they lie in Q(i)), else one for the whole residual
    n = int(c > 0)
    d = residual.degree()
    if d == 1:
        n += 1
    elif d == 2:
        c2, c1, c0 = residual.all_coeffs()
        n += 2 if sympy.sqrt(abs(c1**2 - 4 * c2 * c0)).is_rational else 1
    elif d > 2:
        n += 1
    return ["trace-free-nonmetabelian"] * n


def _repeated_factor_degree(record):
    """deg gcd(A(3, l), dA/dl), or None when A(3, l) is constant."""
    a3 = sympy.Poly(_a_at(record, 3), _L)
    if a3.degree() < 1:
        return None
    return sympy.gcd(a3, a3.diff(_L)).degree()


@_guard
def _apoly_call(inputs, out, code, problems):
    reports = _load(out, code, problems)
    if reports is None:
        return
    records = inputs["records"]
    if [r["name"] for r in reports] != [r["name"] for r in records]:
        problems.append("report names differ from the input records")
        return
    bound = (inputs["det"] - 1) // 2
    for rec, rep in zip(records, reports):
        name = rec["name"]
        ev = _a_at(rec, sympy.I)
        if sympy.expand(parse_poly(rep["eval_at_i"]) - ev) != 0:
            problems.append(f"{name}: eval_at_i differs from A(i, l)")
        prof = rep["factor_profile"]
        a, b, c = prof["l_power"], prof["l_minus_1_power"], prof["l_plus_1_power"]
        residual = parse_poly(prof["residual"])
        k = 0
        if prof["identically_zero"]:
            if ev != 0:
                problems.append(f"{name}: reported identically zero, A(i, l) is not")
        else:
            rebuilt = _L**a * (_L - 1) ** b * (_L + 1) ** c * residual
            if sympy.expand(rebuilt - ev) != 0:
                problems.append(f"{name}: l^a (l-1)^b (l+1)^c * residual != A(i, l)")
            if any(residual.subs(_L, x) == 0 for x in (0, 1, -1)):
                problems.append(f"{name}: residual keeps a factor l, l-1 or l+1")
            if ev != 0:
                k = _multiplicity(ev, 1)[0]
        deg_l = max(t["l"] for t in rec["terms"])
        if rep["deg_l"] != deg_l:
            problems.append(f"{name}: wrong deg_l {rep['deg_l']}")

        # the Newton polygon has a vertical edge iff its leftmost or
        # rightmost column holds more than one point
        support = [(t["m"], t["l"]) for t in rec["terms"] if t["c"]]
        ms = [m for m, _l in support]
        edge = any(sum(m == side for m, _l in support) > 1 for side in (min(ms), max(ms)))
        if rep["has_vertical_edge"] != edge:
            problems.append(f"{name}: has_vertical_edge should be {edge}")

        db = rep["degree_bound"]
        if "p" in rec:
            top = (rec["p"] - 1) // 2
            pure = ev != 0 and sympy.expand(ev - ev.coeff(_L, k) * (_L - 1) ** k) == 0
            want = {"applicable": True, "deg_l": deg_l, "bound": top, "slack": top - deg_l,
                    "pure_l_minus_1_power": pure, "k": k if ev != 0 else None,
                    "ok": pure and top >= deg_l}
        else:
            want = {"applicable": False, "deg_l": deg_l, "bound": None, "slack": None,
                    "pure_l_minus_1_power": None, "k": None, "ok": True}
        if {key: db.get(key) for key in want} != want:
            problems.append(f"{name}: degree_bound {db}, expected {want}")

        kinds = [f["kind"] for f in rep["criteria"]]
        if kinds != _expected_kinds(rec, ev):
            problems.append(f"{name}: criteria {kinds}, expected {_expected_kinds(rec, ev)}")

        probe = rep["probe"]
        if probe["k"] != k or probe["bound"] != bound or probe["within_bound"] != (k <= bound):
            problems.append(f"{name}: probe k, bound or verdict wrong")

        repeated = _repeated_factor_degree(rec)
        warning = rep["warning"]
        if not repeated:
            if warning is not None:
                problems.append(f"{name}: normal-form warning on a squarefree A(3, l)")
        elif warning is None or f"(gcd degree {repeated})" not in warning:
            problems.append(f"{name}: warning {warning!r}, A(3, l) has gcd degree {repeated}")


def check_apoly(inputs, outs, codes):
    return [_apoly_call(inputs, outs[0], codes[0])]


CHECKS = {
    "sweep": check_sweep,
    "roots": check_roots,
    "census": check_census,
    "apoly": check_apoly,
}
