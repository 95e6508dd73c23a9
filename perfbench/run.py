"""knotmeta benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a knotmeta checkout; it imports the package from
./src. Inputs are generated from the seed into .perfbench/ before timing
starts. Each pass runs in a fresh worker interpreter (perfbench/worker.py)
that calls knotmeta's click entry point in process, one CLI invocation after
the other; one warm-up pass runs first, then passes repeat while the next
one still fits in --seconds. Outputs of the first timed pass are checked by oracles that do
not use knotmeta's code, and every later pass must reproduce them byte for
byte.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, whose passes
alternate with untraced ones to give the tracing overhead. Details (input
summary, every sample, output digests, failures) go to
.perfbench/<workload>-<seed>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
# Worker passes stop here, hung or not, so that a run ends within minutes.
DEADLINE_S = 150

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import knotmeta.cli\n"
    "print(time.perf_counter() - t)\n"
)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load": "closed loop, one process and one thread at a time",
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    # Bytecode is written next to the sources on the first import and used
    # by every timed one, whatever the caller's environment says: compiling
    # on each import would add to setup_s and peak_rss_mb.
    for var in ("KNOTMETA_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    return env


def import_time(src: Path, env: dict) -> float:
    """Fresh-interpreter import time of knotmeta and its CLI group."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def run_pass(plan_path: Path, env: dict, deadline: float):
    """One worker pass; None if it crashed or was still running at the
    deadline (a perf_counter value)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def second_slowest(samples) -> float:
    """The slowest sample but one: it tracks the host's slow state, which
    nearly every run meets, and ignores a single outlier."""
    ordered = sorted(samples)
    return ordered[-2] if len(ordered) > 1 else ordered[0]


def measure(workload, seed, seconds, trace, size="full", mutate=None) -> dict:
    """One run. `mutate`, if given, edits the checked outputs before the
    oracles see them; the benchmark's tests use it to corrupt one output."""
    deadline = perf_counter() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "knotmeta" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/knotmeta not found; run from a knotmeta checkout")
    fixtures = src / "knotmeta" / "data"
    work = root / ".perfbench" / f"{workload}-{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "first").mkdir(parents=True)

    t0 = perf_counter()
    invocations, inputs, summary = workloads.build(workload, seed, size, work, fixtures)
    gen_s = perf_counter() - t0

    env = _worker_env()
    import_time(src, env)  # compiles the bytecode; discarded
    setup = []

    def plan(name, trace_on, keep):
        path = work / f"plan-{name}.json"
        path.write_text(json.dumps({
            "src": str(src),
            "invocations": invocations,
            "trace": trace_on,
            "keep_dir": str(work / "first") if keep else None,
        }))
        return path

    plan_plain = plan("plain", False, False)
    plan_first = plan("first", False, True)
    plan_traced = plan("traced", True, False)
    warm = run_pass(plan_plain, env, deadline)  # discarded

    # Passes run while the next one, at the median pass length so far, still
    # ends within the run; a traced run needs one pass of each kind.
    passes, lengths = [], []
    crashed = warm is None
    t_start = perf_counter()
    while not crashed:
        both_kinds = not trace or len({p["traced"] for p in passes}) == 2
        if passes and both_kinds and (
            perf_counter() - t_start + statistics.median(lengths) > seconds
        ):
            break
        # import probes spread evenly over the run
        if perf_counter() - t_start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(import_time(src, env))
        traced = bool(trace) and len(passes) % 2 == 1
        t_pass = perf_counter()
        res = run_pass(
            plan_first if not passes else plan_traced if traced else plan_plain,
            env, deadline,
        )
        if res is None:
            crashed = True
            break
        lengths.append(perf_counter() - t_pass)
        res["traced"] = traced
        passes.append(res)

    n_calls = len(invocations)
    if passes:
        outs = [(work / "first" / f"call{i}.out").read_text(encoding="utf-8")
                for i in range(n_calls)]
        codes = [c["code"] for c in passes[0]["calls"]]
        if mutate:
            outs = mutate(outs)
        digests = [c["sha256"] for c in passes[0]["calls"]]
        from oracles import CHECKS

        problems = CHECKS[workload](inputs, outs, codes)
    else:
        problems, digests = [["no pass completed"]] * n_calls, [None] * n_calls

    attempted = failed = 0
    for p in passes:
        for i, call in enumerate(p["calls"]):
            attempted += 1
            failed += bool(problems[i]) or call["code"] != 0 or call["sha256"] != digests[i]
    if crashed:
        # the pass that crashed or hung: every invocation in it failed
        attempted += n_calls
        failed += n_calls

    plain = [p for p in passes if not p["traced"]]
    calls_ms = [c["ms"] for p in plain for c in p["calls"]]
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "machine": machine_record(),
        "inputs": summary,
        "gen_s": gen_s,
        "setup_samples_s": setup,
        "pass_walls_s": [p["wall_s"] for p in plain],
        "traced_pass_walls_s": [p["wall_s"] for p in passes if p["traced"]],
        "call_samples_ms": calls_ms,
        "stdout_sha256": digests,
        "problems": problems,
        "first_pass_stderr": [c["stderr"] for c in passes[0]["calls"]] if passes else [],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
    }
    if plain:
        # Timings are the second-slowest of the run; see "Steadiness" in
        # perfbench/README.md.
        result["metrics"] = {
            "setup_s": second_slowest(setup),
            "wall_s": second_slowest(result["pass_walls_s"]),
            "call_tail_ms": second_slowest(calls_ms),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        result["medians"] = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(result["pass_walls_s"]),
            "call_p50_ms": statistics.median(calls_ms),
        }
    traced_passes = [p for p in passes if p["traced"]]
    if trace and traced_passes and plain:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(traced_passes, result["pass_walls_s"])
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    r = measure(args.workload, args.seed, args.seconds, args.trace)
    if "metrics" not in r or (args.trace and "layers" not in r):
        sys.stderr.write(f"error: no pass completed; see {r['problems']}\n")
        return 1
    n_pass, n_call = len(r["pass_walls_s"]), len(r["call_samples_ms"])
    print(f"workload {r['workload']} seed {r['seed']}: inputs {json.dumps(r['inputs'])}")
    print(f"input generation {r['gen_s']:.3f} s (not a metric)")
    # names and units come from BENCHMARK.json, so the result line holds
    # exactly the metrics it lists
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    values = r["layers"] if args.trace else r["metrics"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        print(f"traced passes {len(r['traced_pass_walls_s'])}, untraced {n_pass}")
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    else:
        samples = {
            "setup_s": len(r["setup_samples_s"]),
            "wall_s": n_pass,
            "call_tail_ms": n_call,
            "peak_rss_mb": n_pass,
        }
        for k, m in metrics.items():
            how = " (median)" if k == "peak_rss_mb" else " (second-slowest)"
            print(f"{k} = {m['value']:.6g} {m['unit']}{how} over {samples[k]} samples")
        med = r["medians"]
        print(f"medians, not gated: import {med['setup_s']:.6g} s, pass {med['wall_s']:.6g} s, "
              f"call_p50_ms {med['call_p50_ms']:.6g} ms")
    print(f"fail_ratio = {r['fail_ratio']:.6g} ({r['failed']} of {r['attempted']} invocations)")
    for i, probs in enumerate(r["problems"]):
        for msg in probs[:5]:
            print(f"FAIL call {i}: {msg}")
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
