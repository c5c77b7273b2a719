"""Child process of the benchmark: a cold-start set-up or one job.

    python3 worker.py setup   < spec.json   prints "ready" once set-up is done
    python3 worker.py job     < spec.json   prints one JSON result line

Both modes import chainlab from the checkout's ``src`` directory, never from
an installed copy.  ``job`` calls ``chainlab.cli.main(argv)`` once, in-process,
capturing the report, and reports the call's time, the report bytes and the
process's peak resident memory before and after the call.  With ``trace`` set
in the spec the call runs under the span recorder of tracer.py, and the
recorder's totals are reported too.  Each job gets a process of its own, so no
job runs in a process that an earlier job or round has warmed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_chainlab():
    sys.path.insert(0, str(SRC))
    import chainlab

    if Path(chainlab.__file__).resolve().parent != SRC / "chainlab":
        raise RuntimeError(f"imported chainlab from {chainlab.__file__}, not {SRC}")
    return chainlab


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(spec):
    """Import chainlab and build and validate everything the workload names."""
    chainlab = import_chainlab()
    for kind, name in spec["setup"]:
        if kind == "preset":
            chainlab.algebra_preset(name)
        elif kind == "ext":
            chainlab.ExtensionData(chainlab.extension_preset(name))
        elif kind == "file":
            chainlab.parse_algebra_file(name)
        else:
            raise ValueError(f"unknown set-up item {kind}")
    if spec.get("warm"):
        # Load what the job processes load too, so a warm-up start leaves
        # bytecode for every module a timed process imports.
        import chainlab.cli  # noqa: F401
        import tracer  # noqa: F401
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def run_job(main, argv):
    """(seconds, report or None, error or None) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a raising job is a failed job, never a crashed run
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, None, f"exit status {code}: {err.getvalue().strip()[:300]}"
    return seconds, out.getvalue(), None


def job(spec):
    import_chainlab()
    from chainlab.cli import main

    result = {"import_rss_mb": peak_rss_mb()}
    if not spec.get("trace"):
        sec, report, error = run_job(main, spec["argv"])
    else:
        import tracer as tr

        t = tr.Tracer()
        restore = tr.instrument(t)
        t.start_job(spec["label"])
        try:
            sec, report, error = run_job(main, spec["argv"])
        finally:
            restore()
        result["tracer"] = t.totals()
        with open(spec["spans_path"], "a", encoding="utf-8") as fh:
            for span in t.spans:
                fh.write(json.dumps(span) + "\n")
    result.update({"seconds": sec, "report": report, "error": error,
                   "peak_rss_mb": peak_rss_mb()})
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    mode = sys.argv[1]
    spec = json.load(sys.stdin)
    {"setup": setup, "job": job}[mode](spec)
