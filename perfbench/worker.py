"""One workload run in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --result FILE --workdir DIR [--setup-only]

Set-up (timed as ``setup_s``) is the import of georev, the workload's fixed
surfaces and one untimed warm-up job.  Untraced, the worker then runs whole
passes of the workload's job list, one job at a time, until starting another
pass would overshoot ``--seconds`` by more than half a pass, and notes every
job whose verdict or summary in a later pass differs from the first.  Traced,
it runs one pass untraced, then the same pass with every georev layer wrapped,
and checks that each job's summary is byte-identical between the two.  CLI
jobs write their artifacts under ``--workdir``; the result goes to
``--result`` as JSON and the traced run's spans next to it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, JobOutcome, describe  # noqa: E402


def _set_up(workload, workdir):
    import georev.cli  # noqa: F401  (imports every georev module)

    fx = workload.fixtures()
    workload.run(workload.warmup(fx), fx, workdir)
    return fx


def _run_pass(workload, jobs, fx, workdir, tracer=None):
    records = []
    for i, spec in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        t = time.perf_counter()
        try:
            out = workload.run(spec, fx, workdir)
        except Exception as exc:  # a raised exception is a failed job
            out = JobOutcome(False, f"{type(exc).__name__}: {exc}"[:160])
        records.append((time.perf_counter() - t, out))
    return records


def _job_rows(jobs, records):
    return [[describe(spec), dt * 1e3, out.ok, out.wrong, out.reason]
            for spec, (dt, out) in zip(jobs, records)]


def _inconsistent(records, pass_len):
    """Indices of jobs whose verdict or summary in a later pass differs from
    the first pass: the same input gave two answers."""
    first = records[:pass_len]
    return sorted({
        k % pass_len for k, (_, out) in enumerate(records[pass_len:], pass_len)
        if (out.ok, out.wrong, out.summary) != (first[k % pass_len][1].ok,
                                                first[k % pass_len][1].wrong,
                                                first[k % pass_len][1].summary)
    })


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    fx = _set_up(wl, args.workdir)
    setup_s = time.perf_counter() - _T0
    import georev

    result = {"setup_s": setup_s, "georev": str(Path(georev.__file__).parent)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    jobs = wl.make_pass(args.seed, fx)
    if not args.trace:
        records, pass_s = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            records += _run_pass(wl, jobs, fx, args.workdir)
            pass_s.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * float(np.mean(pass_s)) >= args.seconds:
                break
        result["wall_s"] = time.perf_counter() - start
        result["passes"] = len(pass_s)
        result["jobs"] = _job_rows(jobs * len(pass_s), records)
        result["inconsistent_jobs"] = _inconsistent(records, len(jobs))
    else:
        result.update(_traced(wl, jobs, fx, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    args.result.write_text(json.dumps(result))
    return 0


def _traced(wl, jobs, fx, args):
    import georev.glued as G
    import georev.surfaces as S
    from layers import OBSERVERS, per_layer_metrics, profile_us
    from tracer import Tracer

    t = time.perf_counter()
    plain = _run_pass(wl, jobs, fx, args.workdir)
    plain_wall = time.perf_counter() - t

    tracer = Tracer()
    tracer.observers.update(OBSERVERS)
    tracer.install()
    try:
        fx_t = wl.fixtures()  # set-up spans carry job id -1
        jobs_t = wl.make_pass(args.seed, fx_t)
        t = time.perf_counter()
        traced = _run_pass(wl, jobs_t, fx_t, args.workdir, tracer)
        traced_wall = time.perf_counter() - t
    finally:
        tracer.uninstall()

    mismatched = [
        i for i, ((_, a), (_, b)) in enumerate(zip(plain, traced))
        if a.summary != b.summary or a.ok != b.ok
    ]
    if jobs_t != jobs:
        mismatched.append(-1)
    dumbbell = S.ProfileCurve([S.dumbbell_profile()])
    glued = G.build_glued_family(G.GluedFamilyConfig(a=0.1)).profile
    extra = {
        "surfaces.profile_us.single_segment": profile_us(dumbbell),
        "surfaces.profile_us.multi_segment": profile_us(glued),
        "trace.overhead_ms": (traced_wall - plain_wall) * 1e3,
        "trace.spans": len(tracer.start),
    }
    spans_path = args.result.with_name(args.result.stem + "-spans.csv")
    tracer.write_spans(spans_path)
    return {
        "wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "passes": 1,
        "jobs": _job_rows(jobs, plain),
        "traced_jobs": _job_rows(jobs_t, traced),
        "mismatched_jobs": mismatched,
        "per_layer": per_layer_metrics(tracer, extra),
        "spans_file": spans_path.name,
    }


if __name__ == "__main__":
    sys.exit(main())
