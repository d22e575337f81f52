"""Benchmark of the netnewton solvers, one workload per process.

    python3 benchmarks/run.py --workload family-newton --seed 1 --seconds 20 --trace 0

With --trace 0 a run sets up the workload, makes one untimed warm-up pass
(whose outputs it checks against bench_dual's independent bounds), then
repeats timed passes until --seconds have passed, and prints the
end-to-end metrics. With --trace 1 it alternates untraced and traced
passes instead and prints the per-layer metrics of the traced ones. The
last line of standard output is one JSON object; a record of the run goes
to .bench_records/ at the repository root.

BLAS is pinned to one thread before numpy loads: on a small machine
OpenBLAS's default of one thread per core makes the small dense products
of the splitting slower and far more variable.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_records"
# the keys of bench_workloads.WORKLOADS, which cannot load before netnewton
WORKLOAD_NAMES = ("family-newton", "family-firstorder", "scale-newton", "mixed-utility")
# set-ups per run: imports (one here, the rest in fresh interpreters) and
# input builds; setup_s adds their medians
SETUP_REPEATS = 5
MIN_TIMED_PASSES = 3
# layers that run while a workload builds its inputs
SETUP_LAYERS = ("experiment.random_network", "model.build_network")


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import netnewton; "
    "print(time.perf_counter() - t, netnewton.__file__)"
)


def _import_probes(count: int) -> list:
    """Seconds to import netnewton in `count` fresh interpreters, one after
    the other: an import can only be timed once per process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        seconds, path = out.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"import probe loaded netnewton from {path.strip()}")
        times.append(float(seconds))
    return times


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _measure(workload, inputs, seconds: float, tracer=None):
    """Untimed warm-up pass (its outputs are captured for the checks), then
    timed passes until `seconds` have passed: at least MIN_TIMED_PASSES
    untraced ones, or, with a tracer, alternately untraced and traced."""
    capture = []
    warm = workload.run_pass(inputs, capture)
    passes = [warm]
    untraced_s, traced_s = [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            passes.append(workload.run_pass(inputs))
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        (traced_s if traced else untraced_s).append(elapsed)
        if time.perf_counter() - begin < seconds:
            continue
        if tracer is None and len(untraced_s) >= MIN_TIMED_PASSES:
            break
        if tracer is not None and untraced_s and traced_s:
            break
    return passes, capture, untraced_s, traced_s


def _layer_metrics(tracer, setup_layers: dict, untraced_s: list, traced_s: list) -> dict:
    """Per-layer figures per traced pass, the set-up layers, and the
    tracing overhead (traced minus untraced median pass time)."""
    from bench_trace import COUNTERS

    n = len(traced_s)
    metrics = {}
    for layer, t in tracer.layer_times().items():
        metrics[f"{layer}.s"] = _metric(t["s"] / n, "s")
        metrics[f"{layer}.self_s"] = _metric(t["self_s"] / n, "s")
        metrics[f"{layer}.calls"] = _metric(t["calls"] / n, "count")
    for key in COUNTERS:
        metrics[key] = _metric(tracer.counters[key] / n, "count")
    iters = tracer.counters["baselines.subgradient.iters"] + tracer.counters["baselines.diagonal.iters"]
    busy = metrics["baselines.subgradient.s"]["value"] + metrics["baselines.diagonal.s"]["value"]
    metrics["baselines.us_per_iter"] = _metric(1e6 * busy * n / iters if iters else 0.0, "us")
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.s"] = _metric(setup_layers[layer]["s"], "s")
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    metrics["trace.solve_s"] = _metric(traced, "s")
    metrics["trace.untraced_solve_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics["trace.spans"] = _metric(tracer.num_spans / n, "count")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import netnewton
    except ImportError as exc:
        print(f"error: cannot import netnewton from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - t0
    if not Path(netnewton.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: netnewton was imported from {netnewton.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.build(args.seed)
        build_s.append(time.perf_counter() - t)
    import_s = [first_import_s] + _import_probes(SETUP_REPEATS - 1)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    tracer = setup_layers = None
    if args.trace:
        # one more set-up, traced, for the per-layer figures of set-up
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            inputs = workload.build(args.seed)
        finally:
            setup_tracer.uninstall()
        setup_layers = setup_tracer.layer_times()
        tracer = Tracer()

    passes, capture, untraced_s, traced_s = _measure(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    warm = passes[0]
    problems = [f"pass {i} differs from the warm-up pass"
                for i, p in enumerate(passes) if p.fingerprint != warm.fingerprint]
    threads = _threads()
    if threads is not None and threads != 1:
        problems.append(f"{threads} threads in the process; the benchmark expects 1")
    checks = {}
    if warm.failed < warm.attempted:
        # imported only now: the checker's scipy.optimize is no part of the
        # program's memory or set-up
        from bench_dual import CheckFailed

        try:
            checks = workload.verify(inputs, capture)
        except CheckFailed as exc:
            problems.append(f"check failed: {exc}")
    correct = not problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems += [err for p in passes for err in p.errors]

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "solve_s": _metric(statistics.median(untraced_s), "s"),
            "price_updates": _metric(warm.price_updates, "count"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, setup_layers, untraced_s, traced_s)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checks": checks,
        "metrics": metrics,
        "import_s": import_s,
        "build_s": build_s,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "netnewton": netnewton.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RECORDS.mkdir(exist_ok=True)
    stem = f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}-{args.workload}-s{args.seed}-t{args.trace}"
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(RECORDS / f"{stem}-spans.npz")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
