"""Run one pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json

PLAN holds the source directory, the argv lists of the pass, whether to
trace, and where (if anywhere) to keep each invocation's stdout. Each argv
goes through knotmeta's click entry point in this process, one after the
other. The result is one JSON object on stdout: per-call latency, exit code
and stdout digest, the pass time, this process's peak RSS and, when
tracing, the spans.

A fresh interpreter per pass keeps state a pass leaves in the process (a
memo, a warmed cache) out of the next pass, as it would be for a user who
runs the CLI once per answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="knotmeta", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call, not a failed pass
            err.write(traceback.format_exc())
            code = "exception"
    return code, out.getvalue(), err.getvalue()


def main_pass(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from knotmeta.cli import main

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    keep = Path(plan["keep_dir"]) if plan.get("keep_dir") else None
    t_pass = perf_counter()
    for item, argv in enumerate(plan["invocations"]):
        t0 = perf_counter()
        if tracer:
            code, out, err = tracer.invoke(item, lambda a=argv: _call(main, a))
        else:
            code, out, err = _call(main, argv)
        t1 = perf_counter()
        data = out.encode("utf-8")
        calls.append(
            {
                "ms": (t1 - t0) * 1e3,
                "code": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "stderr": err[-2000:],
            }
        )
        if keep:
            (keep / f"call{item}.out").write_bytes(data)
    wall = perf_counter() - t_pass
    return {
        "wall_s": wall,
        "calls": calls,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else None,
        "stdout_bytes": sum(c["bytes"] for c in calls),
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        result = main_pass(json.load(fh))
    sys.stdout.write(json.dumps(result) + "\n")
