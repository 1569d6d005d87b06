"""georev benchmark: verified constructions per second, with per-layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a georev checkout; ``--workload all`` runs every
workload untraced and traced.  The workloads are in ``workloads.py``; each
job is one georev construction plus its own verification.  For each run this
script

1. records the host-speed probe (a fixed pure-Python plus numpy loop);
2. times four extra set-ups, each in a fresh interpreter;
3. runs the workload in a fresh interpreter (``worker.py``), which sets up
   once more and then runs the jobs one at a time;
4. records the probe again, then prints every metric by name and unit and,
   as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
   and ``metrics`` (the end-to-end metrics untraced, the per-layer metrics
   with ``--trace 1``).

A run repeats one seeded pass of jobs for as long as ``--seconds`` allows;
the repeats are for timing.  ``attempted`` and ``failed`` count the pass's
distinct job inputs, so they depend on the seed alone and not on how many
passes the host's speed allowed.  ``correct`` is false when a job reports
``pass`` although an invariant checked here fails, when a CLI exit code
disagrees with its ``pass`` flag, when a repeat of a job gives another
verdict or summary than its first run, or when a traced job's summary
differs byte for byte from the untraced one.  Jobs that fail loudly are
counted in ``failed``, not as incorrect.

The probe is a diagnostic, not a normaliser: it shows host-speed drift next
to the results.  BLAS and OpenMP threads are capped at 1.  The full record of
each run (jobs, probes, versions, host) and the traced run's spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("geodesic_sweep", "tiling_sweep", "flow_csf", "audit_caps")
SETUP_SAMPLES = 5  # set-ups per run, the worker's own included
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "verified_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def host_probe(repeats=3):
    """Median ms of a fixed pure-Python plus numpy loop."""
    import numpy as np

    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        a = np.linspace(0.0, 1.0, 100_000)
        for _ in range(300):
            a = np.sqrt(a * a + 1.0) - 0.5
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def host_info():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "platform": platform.platform()}


def tail_percentile(values):
    """(percentile, value, jobs beyond it) for the highest percentile with at
    least ten jobs beyond it, by nearest rank; None below 20 jobs."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return None


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, deadline, result, extra=()):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result),
           "--workdir", str(OUT / "jobs"), *extra]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def run_one(args, deadline):
    """One workload run: probes, set-up samples, the worker; returns the record."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe_before = host_probe()
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        r = _worker(args, deadline, OUT / f"{stem}-setup{k}.json", ["--setup-only"])
        setups.append(r["setup_s"])
    res = _worker(args, deadline, OUT / f"{stem}-worker.json")
    setups.append(res["setup_s"])
    probe_after = host_probe()
    if Path(res["georev"]).resolve() != (ROOT / "src" / "georev").resolve():
        raise BenchError(f"benchmarked georev from {res['georev']}, not this checkout")

    jobs = res["jobs"]
    ms = [j[1] for j in jobs]
    verified = sum(1 for j in jobs if j[2])
    wrong = [j for j in jobs if j[3]]
    inconsistent = [jobs[i][0] for i in res.get("inconsistent_jobs", ())]
    first_pass = jobs[:len(jobs) // res["passes"]]
    failed = [j for j in first_pass if not j[2]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "versions": res["versions"],
        "probe_ms": {"before": probe_before, "after": probe_after},
        "setup_samples_s": setups,
        "passes": res["passes"],
        "wall_s": res["wall_s"],
        "jobs_run": len(jobs),
        "attempted": len(first_pass),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(first_pass),
        "tail": tail_percentile(ms),
        "end_to_end": {
            "verified_per_s": verified / res["wall_s"],
            "job_p50_ms": statistics.median(ms),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        },
        "wrong_jobs": wrong,
        "inconsistent_jobs": inconsistent,
        "failed_jobs": sorted({(j[0], j[4]) for j in failed}),
        "jobs": jobs,
    }
    if args.trace:
        record["per_layer"] = res["per_layer"]
        record["traced_wall_s"] = res["traced_wall_s"]
        record["mismatched_jobs"] = res["mismatched_jobs"]
        record["traced_jobs"] = res["traced_jobs"]
        record["spans_file"] = res["spans_file"]
    record["correct"] = (not wrong and not inconsistent
                         and not record.get("mismatched_jobs"))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_record(rec):
    e2e = rec["end_to_end"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']}  jobs {rec['jobs_run']}  "
          f"wall {rec['wall_s']:.2f} s")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<22} {_fmt(e2e[name]):>12} {unit}")
    if rec["tail"] is None:
        print(f"  {'job_tail_ms':<22} {'n/a':>12} ms   "
              f"(fewer than 20 jobs: {rec['jobs_run']})")
    else:
        p, v, beyond = rec["tail"]
        print(f"  {'job_tail_ms':<22} {_fmt(v):>12} ms   "
              f"(p{p:g}, {beyond} of {rec['jobs_run']} jobs beyond)")
    print(f"  {'fail_ratio':<22} {_fmt(rec['fail_ratio']):>12} 1    "
          f"({rec['failed']} of {rec['attempted']} job inputs failed)")
    for desc, reason in rec["failed_jobs"]:
        print(f"    failed: {desc}: {reason}")
    for desc, _, _, _, reason in rec["wrong_jobs"][:10]:
        print(f"    WRONG: {desc}: {reason}")
    for desc in rec["inconsistent_jobs"][:10]:
        print(f"    WRONG: {desc}: another verdict or summary on a repeat")
    setups = ", ".join(f"{s:.3f}" for s in rec["setup_samples_s"])
    print(f"  set-up samples s: {setups}")
    print(f"  host probe ms: before {rec['probe_ms']['before']:.1f}, "
          f"after {rec['probe_ms']['after']:.1f}")
    v, h = rec["versions"], rec["host"]
    print(f"  Python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
          f"nproc {h['nproc']}, {h['cpu']}")
    if rec["trace"]:
        print(f"  traced wall {rec['traced_wall_s']:.2f} s against untraced "
              f"{rec['wall_s']:.2f} s; summaries byte-identical: "
              f"{not rec['mismatched_jobs']}; spans in {rec['spans_file']}")
        for name, m in rec["per_layer"].items():
            print(f"  {name:<46} {_fmt(m['value']):>12} {m['unit']}")


def result_line(rec):
    if rec["trace"]:
        metrics = rec["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in rec["end_to_end"].items()}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "georev" / "__init__.py").is_file():
        print(f"error: no georev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    runs = ([(args.workload, args.trace)] if args.workload != "all"
            else [(w, t) for w in WORKLOADS for t in (0, 1)])
    lines = {}
    for name, trace in runs:
        one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
        try:
            rec = run_one(one, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_record(rec)
        lines[name, trace] = result_line(rec)
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
        return 0
    untraced = [r for (_, t), r in lines.items() if not t]
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": {f"{name}.{k}": v for (name, _), r in lines.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
