"""edvs benchmark: one workload, one seed, one process, closed loop.

    python3 bench/run.py --workload many-small --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's own `src/` and from nowhere
else.  Inputs come from `--seed`.  Ops run back to back for `--seconds`, and
at least `MIN_OPS` times; every op's output is checked.  The last stdout line
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1` (ops then alternate untraced and traced; see tracer.py).  The
line before it holds the run's context.  On a workload with short ops, op
times are scaled to a reference host speed by a kernel timed around each op
(see calibration.py); the raw wall times are in the context.  README.md
defines every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_OPS = 3            # every right-hand side in the pool is solved at least once
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail percentile
MAX_REASONS = 5


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import edvs from this checkout's src/, refusing any other copy."""
    os.environ.pop("EDVS_THREADS", None)  # measure the library defaults
    # One BLAS thread, set before numpy loads: the wake-up latency of OpenBLAS's
    # default thread pool set the dual-operator tail (2.7x its median) and moved
    # it from run to run by more than any bound allows.  See README.md.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import edvs
    except ImportError as e:
        raise SystemExit(f"error: cannot import edvs from {SRC}: {e}")
    if not Path(edvs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: edvs resolved outside {SRC}")


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples, the one with half of the others beyond
    it, so that it never falls under the median.  Returns (value, percentile,
    sample count).
    """
    n = len(times)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    index = n - 1 - beyond
    return sorted(times)[index], 100.0 * (index + 1) / n, n


@contextlib.contextmanager
def lu_nnz_counter(sink):
    import scipy.sparse.linalg as spla
    from tracer import count_lu

    original = spla.splu
    spla.splu = count_lu(original, sink.append)
    try:
        yield
    finally:
        spla.splu = original


@dataclass
class Measurement:
    plain_times: list = field(default_factory=list)   # reported: calibrated or wall
    traced_times: list = field(default_factory=list)  # reported: calibrated or wall
    plain_wall: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)
    traced_setup_phase: dict = field(default_factory=dict)  # traced unit -> setup phase s
    iterations: dict = field(default_factory=dict)          # rhs pool index -> counts seen
    threads: set = field(default_factory=set)
    lu_nnz: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    self_check_ok: bool | None = None
    peak_rss_mb: float = 0.0

    def record(self, workload, i, inp, out, error, traced):
        from workloads import RHS_POOL, Outcome

        if error is not None:
            outcome = Outcome(False, f"raised {type(error).__name__}: {error}")
        else:
            outcome = workload.check(inp, out)
            if self.self_check_ok is None and outcome.ok:
                self.self_check_ok = workload.check_rejects_bad_output(inp, out)
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"op {i}: {outcome.reason}")
            return
        self.iterations.setdefault(i % RHS_POOL, set()).add(outcome.iterations)
        self.threads.add(outcome.threads)
        if traced:
            self.traced_setup_phase[("op", i)] = outcome.setup_phase_s
        elif outcome.setup_s is not None:
            self.setup_samples.append(outcome.setup_s)


def measure(workload, seconds, tracer, clock, calibration) -> Measurement:
    """Set up, then run ops until the deadline.

    Given a `calibration`, its kernel runs just before and just after each
    op, outside its timing and its trace, and the op's reported time is its
    wall time at the reference speed.

    Checks of the first MIN_OPS ops wait until peak memory has been read and
    the references exist, so that neither the direct reference solves nor the
    allocator's later growth over a long run land in `peak_rss_mb`.
    """
    m = Measurement()
    for r in range(workload.SETUP_REPEATS):
        with tracer.unit(("setup", r)) if tracer else contextlib.nullcontext():
            t0 = clock()
            workload.setup()
            m.setup_samples.append(clock() - t0)

    pending = []
    deadline = clock() + seconds
    i = 0
    while i < MIN_OPS or clock() < deadline:
        inp = workload.make_input(i)
        traced = tracer is not None and i % 2 == 1
        out, error = None, None
        before = calibration.sample() if calibration else None
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.unit(("op", i)))
            if i == 0:
                stack.enter_context(lu_nnz_counter(m.lu_nnz))
            t0 = clock()
            try:
                out = workload.call(inp)
            except Exception as e:  # any failure of the program is a failed op
                error = e
            elapsed = clock() - t0
        reported = elapsed
        if calibration:
            reported = calibration.normalise(elapsed, before, calibration.sample())
        if traced:
            m.traced_times.append(reported)
        else:
            m.plain_times.append(reported)
            m.plain_wall.append(elapsed)
        pending.append((i, inp, out, error, traced))
        i += 1
        if i == MIN_OPS:
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            workload.references(clock)
        if i >= MIN_OPS:
            for args in pending:
                m.record(workload, *args)
            pending.clear()
    m.attempted = i
    return m


def run(name, seed, seconds, trace):
    import numpy as np
    import scipy

    from calibration import REFERENCE_S, Calibration
    from tracer import Tracer
    from workloads import RHS_POOL, WORKLOADS

    clock = time.perf_counter
    workload = WORKLOADS[name]()
    work_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(clock) if trace else None
    try:
        workload.prepare(np.random.default_rng(seed), str(work_dir))
        calibration = Calibration(clock) if workload.CALIBRATE else None
        m = measure(workload, seconds, tracer, clock, calibration)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    iterations_repeat = all(len(v) == 1 for v in m.iterations.values())
    per_rhs = [min(v) for _, v in sorted(m.iterations.items())]
    op_s = statistics.median(m.plain_times)
    tail_s, tail_pct, tail_n = tail(m.plain_times)
    op_wall_s = statistics.median(m.plain_wall)
    nproc = len(os.sched_getaffinity(0))
    threads = sorted(t for t in m.threads if t is not None)
    context = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "threads": threads,
        "threads_exceed_nproc": any(t > nproc for t in threads),
        **workload.shape,
        "lu_nnz": sum(m.lu_nnz),
        "rhs_pool": RHS_POOL,
        "ops": m.attempted,
        "untraced_ops": len(m.plain_times),
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_samples": tail_n,
        "op_wall_s": op_wall_s,
        "op_tail_wall_s": tail(m.plain_wall)[0],
        "calibrated": workload.CALIBRATE,
        "calibration_s": statistics.median(calibration.samples) if calibration else None,
        "calibration_reference_s": REFERENCE_S,
        "setup_samples": len(m.setup_samples),
        "iterations_by_rhs": per_rhs,
        "iterations_repeat": iterations_repeat,
        "fail_ratio": m.failed / m.attempted,
        "failures": m.reasons,
        "self_check_rejects_bad_output": bool(m.self_check_ok),
    }
    if trace:
        metrics = tracer.layer_metrics(m.traced_setup_phase)
        spsolve_s = statistics.median(workload.spsolve_s) if workload.spsolve_s else 0
        metrics["scipy.spsolve_s"] = spsolve_s
        metrics["scipy.direct_ratio"] = op_wall_s / spsolve_s if spsolve_s else 0
        metrics["trace.overhead_ratio"] = statistics.median(m.traced_times) / op_s
        dump = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.dump(dump)
        context["trace_file"] = str(dump.relative_to(ROOT))
        print_trace_table(tracer)
    else:
        metrics = {
            "op_s": op_s,
            "op_tail_s": tail_s,
            "setup_s": statistics.median(m.setup_samples),
            "iterations": statistics.median(per_rhs) if per_rhs else 0,
            "peak_rss_mb": m.peak_rss_mb,
            "ok_ratio": (m.attempted - m.failed) / m.attempted,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "are not both declared in BENCHMARK.json and measured")
    for key, unit in units.items():
        print(f"  {key:32s} {metrics[key]:.6g} {unit}")
    print(f"  fail_ratio {m.failed}/{m.attempted}; op_tail_s is p{tail_pct:.1f} of {tail_n} ops")
    if context["threads_exceed_nproc"]:
        print(f"warning: resolved threads {threads} exceed nproc {nproc}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": m.failed == 0 and bool(m.self_check_ok) and iterations_repeat,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


def print_trace_table(tracer):
    """Mean self time per span over the traced ops; less the overlap they sum to the wall."""
    rows, wall, overlap, count = tracer.self_time_table("op")
    print(f"traced ops: {count}; mean self seconds per op by span")
    for span, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"  {span:32s} {seconds:.6f}")
    print(f"  {'(parallel overlap)':32s} {-overlap:.6f}")
    print(f"  {'sum':32s} {sum(rows.values()) - overlap:.6f}   op wall {wall:.6f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
