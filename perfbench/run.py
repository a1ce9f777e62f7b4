"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload privacy_sweep --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a run whose
rounds alternate between traced and untraced. --quick runs one pass at
toy size. Everything else goes to standard error and to a run record
under perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import NamedTuple  # noqa: E402

# One BLAS thread, and the harness at its default worker count: at most
# min(8, nproc) compute threads. Set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ.pop("FEDVAR_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("privacy_sweep", "rank_recovery", "panel_forecast")
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one pass at toy size")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def prepare(args, work):
    import workloads

    wl = workloads.WORKLOADS[args.workload](quick=args.quick)
    os.makedirs(work)
    wl.prepare(args.seed, work)
    return wl


# Seconds one reference_kernel() call takes on an unloaded 2.1 GHz vCPU.
REFERENCE_S = 0.025


def reference_kernel():
    """Time a fixed mix of small LAPACK calls, numpy elementwise work and
    interpreted Python, like the program's own mix but calling no fedvar
    code. Host load slows it in step with the workload."""
    import numpy as np

    m = np.linspace(-1.0, 1.0, 400).reshape(20, 20) + np.eye(20)
    t = time.perf_counter()
    for _ in range(300):
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        m = (u * np.maximum(s - 0.01, 0.0)) @ vt
        m = m / np.linalg.norm(m) * 5.0 + 0.001
        acc = 0
        for i in range(300):
            acc += i * i
    return time.perf_counter() - t


def reference_samples():
    return [reference_kernel() for _ in range(3)]


def measure_setup(args):
    """Median over fresh interpreters of the time to import fedvar and
    prepare the workload's inputs, scaled to the reference speed by the
    reference kernel timed between probes. Returns the scaled median and
    the unscaled samples."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples, refs = [], reference_samples()
    for _ in range(1 if args.quick else SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        refs += reference_samples()
    return statistics.median(samples) * REFERENCE_S / statistics.median(refs), samples


def blas_threads():
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine():
    import numpy
    import scipy
    from fedvar.harness.experiments import resolve_threads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "harness_threads": resolve_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "FEDVAR_THREADS")
        },
    }


class Round(NamedTuple):
    outcome: object
    seconds: float
    traced: bool


def run_rounds(wl, args, tracer):
    """Whole rounds until the first pass is done and --seconds have
    passed, with the reference kernel timed between rounds. Under a
    tracer every other round is traced, shifted by one in each pass so
    that every input is met both traced and untraced.

    Returns the rounds and the median of the reference times."""
    rounds, refs = [], reference_samples()
    start = time.perf_counter()
    i = 0
    while i < wl.pass_rounds or (
        not args.quick and time.perf_counter() - start < args.seconds
    ):
        traced = tracer is not None and (i + i // wl.pass_rounds) % 2 == 1
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            outcome = wl.run_round(i)
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        rounds.append(Round(outcome, elapsed, traced))
        refs += reference_samples()
        i += 1
    return rounds, statistics.median(refs)


def median_rate(rounds, traced, reference_s=REFERENCE_S):
    """Median replications per second over the traced or untraced rounds
    that did not fail, scaled from the run's reference seconds to
    REFERENCE_S."""
    rates = [r.outcome.attempted / r.seconds for r in rounds
             if r.traced == traced and not r.outcome.failed]
    if not rates:
        return float("nan")
    return statistics.median(rates) * reference_s / REFERENCE_S


def layer_metrics(tracer, rounds, reference_s):
    import spans

    reps = sum(r.outcome.attempted for r in rounds if r.traced)
    calls, self_s, counts = tracer.totals()
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = {"value": calls[layer] / reps, "unit": "count/rep"}
        metrics[f"{layer}.self_s"] = {"value": self_s[layer] / reps, "unit": "s/rep"}
    for name in spans.COUNTERS:
        metrics[name] = {"value": counts[name] / reps, "unit": "count/rep"}
    traced = median_rate(rounds, True, reference_s)
    untraced = median_rate(rounds, False, reference_s)
    metrics["trace.norm_reps_per_s"] = {"value": traced, "unit": "1/s"}
    metrics["trace.untraced_norm_reps_per_s"] = {"value": untraced, "unit": "1/s"}
    metrics["trace.overhead"] = {"value": 100.0 * (1.0 - traced / untraced), "unit": "%"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedvar", "__init__.py")):
        log(f"no fedvar source tree at {SRC}; run from a checkout of the repository")
        return 2
    sys.path[:0] = [SRC, HERE]
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")

    if args.setup_probe:
        try:
            prepare(args, work)
            print(time.perf_counter() - _T0)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(args)
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    try:
        wl = prepare(args, work)
        rounds, reference_s = run_rounds(wl, args, tracer)
        problems, accuracy = workloads.check_rounds(wl, [r.outcome for r in rounds])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.outcome.attempted for r in rounds)
    failed = sum(r.outcome.failed for r in rounds)
    if args.trace:
        metrics = layer_metrics(tracer, rounds, reference_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_reps_per_s": {
                "value": median_rate(rounds, False, reference_s), "unit": "1/s"
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "err": {"value": accuracy["err"], "unit": "1"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    fingerprints = [r.outcome.fingerprint for r in rounds[: wl.pass_rounds]]
    record = {
        "args": vars(args),
        "machine": machine(),
        "setup_samples_s": setup_samples,
        "round_seconds": [r.seconds for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "reference_s": reference_s,
        "reps_per_s": median_rate(rounds, False),
        "fingerprints": fingerprints,
        "fingerprint": hashlib.sha256("".join(map(str, fingerprints)).encode()).hexdigest(),
        "accuracy": accuracy,
        "problems": problems,
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    for p in problems:
        log(f"check failed: {p}")
    log(f"{len(rounds)} rounds, accuracy {accuracy}, record {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
