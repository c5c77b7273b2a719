"""chainlab benchmark: four workloads of real CLI jobs, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics of BENCHMARK.json: ``setup_s`` is the median over several
cold starts of a fresh interpreter that imports chainlab and builds every
algebra and extension the workload names; ``wall_s`` is the job list's time,
as the sum over jobs of each job's median time over the rounds that fit in
``--seconds``, every job in a fresh worker process; ``peak_rss_mb`` is the
largest peak resident memory of a job's process (median over rounds).  Both
times are scaled to the reference machine speed of calibrate.py.  With
``--trace 1`` it runs each job once untraced and once under the span
recorder of tracer.py, each in a fresh process, and reports the per-layer
metrics.
Every report is checked (see workloads.py); the last line of output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import WORKLOADS, invariant_view, jobs_for  # noqa: E402

COLD_STARTS = 16         # measured cold starts per run, after one warm-up
WORKER_TIMEOUT = 170     # seconds


def child_env(pycache):
    """Environment of every child process of a run.  Identical str hashing,
    and a bytecode cache of the run's own: children never read the
    ``__pycache__`` directories next to the sources, which other tools fill or
    leave empty, and only the warm-up start compiles anything."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cold_start(spec_text, env):
    """Seconds from spawning an interpreter until it reports set-up done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "setup"], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(spec_text)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        err = proc.stderr.read()
        proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def run_job_process(payload, env):
    """One job in a fresh worker process; the worker's result dict."""
    proc = subprocess.run([sys.executable, str(WORKER), "job"], cwd=ROOT, env=env,
                          input=json.dumps(payload), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Record:
    """What a run saw: per-job times, reports and memory, and cold-start
    times.  The calibration kernel runs after every job and cold start; each
    time is kept with the mean of the kernel times just before and just after
    it, and reported as time * REFERENCE_S / that mean."""

    def __init__(self, n):
        self.times = [[] for _ in range(n)]
        self.reports = [[] for _ in range(n)]
        self.rss = [[] for _ in range(n)]
        self.import_rss = []
        self.errors = []
        self.cold = []
        self.kernels = []
        self._kernel = kernel_seconds()

    def _paired_kernel(self):
        after = kernel_seconds()
        self.kernels.append(after)
        pair, self._kernel = (self._kernel + after) / 2, after
        return pair

    def add(self, k, res, timed=True, prefix=""):
        """A job's result; timed=False keeps its time and memory out."""
        if timed:
            self.times[k].append((res["seconds"], self._paired_kernel()))
            self.rss[k].append(res["peak_rss_mb"])
            self.import_rss.append(res["import_rss_mb"])
        self.reports[k].append(res["report"])
        if res["error"]:
            self.errors.append([k, prefix + res["error"]])

    def cold_starts(self, spec_text, env, n):
        for _ in range(n):
            sec = cold_start(spec_text, env)
            self.cold.append((sec, self._paired_kernel()))

    def job_seconds(self, k):
        """Median of job k's times at the reference speed."""
        return scaled_median(self.times[k])


def scaled_median(samples):
    return statistics.median(t / c for t, c in samples) * REFERENCE_S


def timed_rounds(rec, jobs, seconds, env):
    """Run the job list in order, round after round, until `seconds` have
    passed, each job in a fresh process.  The first round is always complete;
    after it, a job is started only if its last cost still fits before the
    deadline."""
    cost = [0.0] * len(jobs)
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        ran = False
        for k, job in enumerate(jobs):
            if not first and time.perf_counter() + cost[k] > deadline:
                continue
            t0 = time.perf_counter()
            rec.add(k, run_job_process({"argv": job["argv"]}, env))
            cost[k] = time.perf_counter() - t0
            ran = True
        first = False
        if not ran:
            return


def check_reports(jobs, reports, errors, expected):
    """(attempted, failures) over every execution of every job."""
    attempted = 0
    failures = [f"{jobs[k]['label']}: {msg}" for k, msg in errors]
    for job, runs in zip(jobs, reports):
        ref = expected.get(job["reference"])
        for n, text in enumerate(runs):
            attempted += 1
            if text is None:
                continue  # already counted through errors
            if ref is None:
                failures.append(f"{job['label']}: no expected report for '{job['reference']}'")
            elif job["check"] == "exact" and text != ref:
                failures.append(f"{job['label']}: report differs from the recorded one (round {n})")
            elif job["check"] == "invariant" and (
                    invariant_view(json.loads(text)) != invariant_view(json.loads(ref))):
                failures.append(f"{job['label']}: invariant fields differ from the reference "
                                f"'{job['reference']}' (round {n})")
            elif text != runs[0]:
                failures.append(f"{job['label']}: report bytes differ between rounds (round {n})")
    return attempted, failures


def measure(jobs, spec_text, seconds, env, bench):
    """End-to-end metrics: cold starts around the timed rounds."""
    # Half the cold starts run before the timed rounds and half after, so
    # slow drifts in machine load reach both halves of the sample.
    rec = Record(len(jobs))
    rec.cold_starts(spec_text, env, COLD_STARTS // 2)
    timed_rounds(rec, jobs, seconds, env)
    rec.cold_starts(spec_text, env, COLD_STARTS - COLD_STARTS // 2)
    raw = {"wall_s": sum(statistics.median(t for t, _ in ts) for ts in rec.times),
           "setup_s": statistics.median(t for t, _ in rec.cold)}
    values = {
        "wall_s": sum(rec.job_seconds(k) for k in range(len(jobs))),
        "setup_s": scaled_median(rec.cold),
        "peak_rss_mb": max(statistics.median(r) for r in rec.rss),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["end_to_end"]}
    lines = [f"  calibration kernel median {statistics.median(rec.kernels):.4f} s over "
             f"{len(rec.kernels)} runs (reference {REFERENCE_S} s)",
             "  unscaled: " + json.dumps(raw),
             f"  peak resident memory after importing chainlab, before the job: median "
             f"{statistics.median(rec.import_rss):.2f} MB",
             "  cold starts at reference speed (s): "
             + " ".join(f"{t / c * REFERENCE_S:.4f}" for t, c in rec.cold)]
    lines += [f"  {name} = {m['value']:.4f} {m['unit']}" for name, m in metrics.items()]
    return rec, metrics, lines


def measure_traced(jobs, env, bench, spans_path):
    """Per-layer metrics from one untraced and one traced run of each job,
    back to back, each in a fresh process."""
    spans_path.write_text("", encoding="utf-8")
    rec = Record(len(jobs))
    traced_times, parts = [], []
    for k, job in enumerate(jobs):
        rec.add(k, run_job_process({"argv": job["argv"]}, env))
        res = run_job_process({"argv": job["argv"], "trace": True, "label": job["label"],
                               "spans_path": str(spans_path)}, env)
        rec.add(k, res, timed=False, prefix="traced: ")
        traced_times.append(res["seconds"])
        parts.append(res["tracer"])
    t = tr.merge_totals(parts)
    untraced = sum(ts[0][0] for ts in rec.times)
    names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_ratio"]
    values = dict(tr.layer_metrics(t, names),
                  **{"trace.overhead_ratio": sum(traced_times) / untraced})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer"]}
    lines = [f"  traced {sum(traced_times):.3f} s against untraced {untraced:.3f} s; "
             f"{sum(p['span_count'] for p in parts)} spans in {spans_path}",
             "  self-time ranking (name, s, share): " + json.dumps(tr.self_time_ranking(t)),
             "  sparse.matmul self time by caller: " + json.dumps(tr.callers_of(t, "sparse.matmul")),
             "  bicomplex [builds, distinct] by job: " + json.dumps(t.bicomplex_by_job)]
    return rec, metrics, lines


def run_workload(workload, seed, seconds, trace, bench):
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    lines = [f"workload {workload} seed {seed}: {why[workload]}"]
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        jobs, setup = jobs_for(workload, seed, Path(work))
        env = child_env(Path(work) / "pycache")
        spec_text = json.dumps({"setup": setup})
        # Warm-up start: fills the page cache and the run's bytecode cache.
        cold_start(json.dumps({"setup": setup, "warm": True}), env)
        if trace:
            rec, metrics, more = measure_traced(jobs, env, bench,
                                                out_dir / f"spans-{workload}-seed{seed}.jsonl")
        else:
            rec, metrics, more = measure(jobs, spec_text, seconds, env, bench)
    lines += [f"  {rec.job_seconds(k):9.4f} s at reference speed, median of "
              f"{len(rec.times[k])}  {job['label']}" for k, job in enumerate(jobs)]
    lines += more
    attempted, failures = check_reports(jobs, rec.reports, rec.errors, expected)
    lines += [f"  FAILED {f}" for f in failures]
    lines.append(f"  fail_rate = {len(failures) / attempted:.4f} "
                 f"({len(failures)} of {attempted} job runs)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chainlab" / "cli.py").is_file():
        print(f"perfbench: no chainlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so a job and
        # the calibration kernel timed before it run on the same core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, seconds, bool(args.trace), bench)
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
