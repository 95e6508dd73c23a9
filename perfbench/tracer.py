"""Span tracing from outside the package, and the per-layer metrics derived
from the spans.

`Tracer.install` wraps each public function named in TARGETS in every
knotmeta module namespace that holds it, so calls count whether they come
through the CLI, through another module's `from .x import f`, or from inside
the defining module. Each call becomes one span (name, start, end, parent,
item, info); spans stay in memory and are handed back when the pass ends.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter


def _phi(args, result):
    K = args[0]
    return [K.p, K.q, str(result.phi)]


def _size(_args, result):
    return len(result)


def _real_roots(_args, result):
    return len(result[0])


def _tagged(args, _result):
    return args[0].pq is not None


# module -> {function name: extractor of the span's info, or None}
TARGETS = {
    "exactalg": {"poly_gcd": None},
    "riley": {
        "section_at_minus_one": _phi,
        "verify_relator_mod_phi": None,
        "verify_longitude_mod_phi": None,
        "cross_check_counts": None,
        "approx_real_roots": _real_roots,
    },
    "intlinalg": {"det": None, "smith_normal_form": None, "torsion_solutions": _size},
    "metabelian": {"enumerate_metabelian": _size, "verify_class": None},
    "apoly": {
        "analyze": _tagged,
        "factor_profile": None,
        "squarefree_in_l_warning": None,
        "eval_at_sqrt_minus_one": None,
    },
    "knotdata": {
        "load_knots": _size,
        "load_apolys": _size,
        "relator_word": _size,
        "longitude_word": _size,
    },
}

CLI_SPAN = "cli.invoke"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                detail = info(args, result) if info and result is not None else None
                spans[idx] = (name, t0, t1, parent, self.item, detail)

        return traced

    def install(self) -> None:
        """Replace every binding of each target function in knotmeta's
        modules with its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "knotmeta"]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"knotmeta.{mod_name}"]
            for fname, info in funcs.items():
                fn = getattr(home, fname)
                traced = self.wrap(f"{mod_name}.{fname}", fn, info)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, traced)

    def invoke(self, item: int, fn):
        """Run one CLI invocation as the root span of its item."""
        self.item = item
        try:
            return self.wrap(CLI_SPAN, fn, None)()
        finally:
            self.item = None


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass

class PassSpans:
    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.children = {}
        for idx, s in enumerate(self.spans):
            self.children.setdefault(s[3], []).append(idx)

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent != -1:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def outermost(self, names):
        """Indices of spans in `names` with no ancestor in `names`."""
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] in names and not any(a in names for a in self._ancestors(i))
        ]

    def inclusive_s(self, *names) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.outermost(names))

    def self_s(self, name) -> float:
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name:
                kids = self.children.get(i, ())
                total += (s[2] - s[1]) - sum(
                    self.spans[k][2] - self.spans[k][1] for k in kids
                )
        return total

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def count(self, name) -> int:
        return len(self.named(name))

    def info_sum(self, *names) -> int:
        return sum(self.spans[i][5] or 0 for i in self.outermost(names))

    def calls_under(self, name, ancestor, flag=None) -> tuple:
        """(calls of `name` below an `ancestor` span, ancestor spans), where
        flag, if given, selects ancestors by their info."""
        roots = {
            i
            for i, s in enumerate(self.spans)
            if s[0] == ancestor and (flag is None or s[5] == flag)
        }
        calls = 0
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            parent = s[3]
            while parent != -1 and parent not in roots:
                parent = self.spans[parent][3]
            calls += parent != -1
        return calls, len(roots)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(spans, stdout_bytes: int) -> dict:
    t = PassSpans(spans)
    sections = t.named("riley.section_at_minus_one")
    knots = {tuple(s[5][:2]) for s in sections if s[5]}
    phis = {s[5][2] for s in sections if s[5]}
    torsion = t.info_sum("intlinalg.torsion_solutions")
    classes = t.info_sum("metabelian.enumerate_metabelian")
    prof_all = t.calls_under("apoly.factor_profile", "apoly.analyze")
    prof_tag = t.calls_under("apoly.factor_profile", "apoly.analyze", True)
    prof_untag = t.calls_under("apoly.factor_profile", "apoly.analyze", False)
    words = ("knotdata.relator_word", "knotdata.longitude_word")
    return {
        "exactalg.gcd_s": t.inclusive_s("exactalg.poly_gcd"),
        "exactalg.gcd_calls": t.count("exactalg.poly_gcd"),
        "riley.section_s": t.inclusive_s("riley.section_at_minus_one"),
        "riley.section_calls_per_knot": _ratio(len(sections), len(knots)),
        "riley.phi_distinct": len(phis),
        "riley.phi_reuse_share": _ratio(len(sections) - len(phis), len(sections)),
        "riley.relator_self_s": t.self_s("riley.verify_relator_mod_phi"),
        "riley.longitude_self_s": t.self_s("riley.verify_longitude_mod_phi"),
        "riley.crosscheck_self_s": t.self_s("riley.cross_check_counts"),
        "riley.roots_s": t.inclusive_s("riley.approx_real_roots"),
        "riley.roots_found": t.info_sum("riley.approx_real_roots"),
        "intlinalg.torsion_s": t.inclusive_s("intlinalg.torsion_solutions"),
        "intlinalg.torsion_solutions": torsion,
        "intlinalg.snf_s": t.inclusive_s("intlinalg.smith_normal_form"),
        "intlinalg.det_s": t.inclusive_s("intlinalg.det"),
        "intlinalg.det_calls": t.count("intlinalg.det"),
        "metabelian.enumerate_self_s": t.self_s("metabelian.enumerate_metabelian"),
        "metabelian.classes": classes,
        "metabelian.class_yield": _ratio(classes, torsion),
        "metabelian.verify_s": t.inclusive_s("metabelian.verify_class"),
        "apoly.analyze_s": t.inclusive_s("apoly.analyze"),
        "apoly.sqf_warning_s": t.inclusive_s("apoly.squarefree_in_l_warning"),
        "apoly.profile_s": t.inclusive_s("apoly.factor_profile"),
        "apoly.profile_calls_per_poly": _ratio(*prof_all),
        "apoly.profile_calls_per_tagged": _ratio(*prof_tag),
        "apoly.profile_calls_per_untagged": _ratio(*prof_untag),
        "apoly.eval_s": t.inclusive_s("apoly.eval_at_sqrt_minus_one"),
        "knotdata.load_s": t.inclusive_s("knotdata.load_knots", "knotdata.load_apolys"),
        "knotdata.records": t.info_sum("knotdata.load_knots", "knotdata.load_apolys"),
        "knotdata.words_s": t.inclusive_s(*words),
        "knotdata.word_letters": t.info_sum(*words),
        "cli.self_s": t.self_s(CLI_SPAN),
        "cli.stdout_bytes": stdout_bytes,
    }


def layer_metrics(traced_passes, untraced_walls) -> dict:
    """Median of each layer metric over the traced passes, plus the tracing
    overhead: traced over untraced median pass time, minus one."""
    per_pass = [pass_layer_metrics(p["spans"], p["stdout_bytes"]) for p in traced_passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    out["trace.overhead"] = traced_wall / statistics.median(untraced_walls) - 1
    return out
