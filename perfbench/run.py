"""sprayform benchmark: seeded workloads through the CLI, checked and timed.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; sprayform is imported from its ``src/``.  The
workloads are in workloads.py and BENCHMARK.json.  One client runs the
workload's operations through ``sprayform.cli.main`` in a closed loop until
``--seconds`` have passed (at least two passes untraced, one traced), and
every outcome is checked.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of traced passes (see README.md), each traced pass preceded by an untraced
one so that the tracing overhead is measured in the same run.  The line
before it records the environment and the samples behind each metric.
"""

import os

# Fixed before numpy loads; set-up probes inherit it.  Never above nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The benchmark and its set-up probes run on one CPU, the same one on which
# hostspeed.py samples the host's speed.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
# Set-up probes: SETUP_GROUPS groups of SETUP_PER_GROUP fresh processes,
# spread over the run (see ``end_to_end``).
SETUP_GROUPS = 3
SETUP_PER_GROUP = 3
# Kernel samples taken before and after each probe, to scale it by.
PROBE_SPEED_SAMPLES = 4
# Untraced runs make at least this many passes, so that ``run_s`` of
# so3_acceptance, whose pass takes most of --seconds, is still a median of
# more than one pass.
MIN_PASSES = 2

sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from workloads import (WORKLOADS, Workload, report_failure,  # noqa: E402
                       run_operation, wall_time)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        p.error("--seed must be in [0, 2**32)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cpu": CPU,
        "commit": commit(),
        "machine": platform.machine(),
    }


def setup_seconds(workload):
    """Set-up time of one fresh process; see setup_probe.py."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + \
        [str(p) for p in workload.config_paths]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Counts:
    """Operations attempted and failed, and the accuracy of the last pass.

    ``problems`` holds failed checks of the run as a whole (work counts that
    differ between passes or from the baseline); any makes it incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.worst_tol_ratio = 0.0
        self.fitted_order_min = 0.0


def one_pass(cli, workload, counts, begin_op=None, timer=wall_time):
    """All operations of the workload once; returns their summed time.

    ``timer`` times each CLI call (see ``run_operation``).  ``begin_op``,
    if given, is called with a run-wide operation id before each CLI
    operation.
    """
    total = 0.0
    ratios, orders = [], []
    for i, op in enumerate(workload.ops):
        if begin_op is not None:
            begin_op(counts.attempted)
        elapsed, reason, accuracy = run_operation(cli, workload, i, timer)
        counts.attempted += 1
        total += elapsed
        if reason is not None:
            counts.failed += 1
            report_failure(workload, i, reason)
        elif accuracy is not None:
            (orders if op.command == "convergence" else ratios).append(accuracy)
    counts.worst_tol_ratio = max(ratios, default=0.0)
    counts.fitted_order_min = min(orders, default=0.0)
    return total


def end_to_end(cli, workload, seconds, counts, samples):
    """Timed passes with the set-up probes run between them.

    Every time is scaled to reference host speed by ``HostSpeed``, which
    samples a fixed kernel during and around each timed call: outside load
    slows this host by up to 2x, in episodes that can cover a whole run
    (see README.md, "Noise").  ``run_s`` is the median scaled pass and
    ``setup_s`` the fastest scaled probe.  Probe group k runs before the
    first pass that starts after k/3 of ``seconds``, at most one group per
    pass, and groups still due run after the last pass, so the probes
    sample three moments of the run.  The run makes at least
    ``MIN_PASSES`` passes.
    """
    speed = HostSpeed()
    setup, setup_raw, passes, passes_raw = [], [], [], []
    call_raw = []

    def timer(call):
        result, elapsed, factor = speed.around(call)
        call_raw.append(elapsed)
        return result, elapsed * factor

    def probe_until(groups):
        while len(setup) < groups * SETUP_PER_GROUP:
            probe_s, _, factor = speed.around(
                lambda: setup_seconds(workload), n=PROBE_SPEED_SAMPLES)
            setup.append(probe_s * factor)
            setup_raw.append(probe_s)

    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        probe_until(min(SETUP_GROUPS, len(passes) + 1,
                        1 + int(SETUP_GROUPS * elapsed / seconds)))
        with speed:
            passes.append(one_pass(cli, workload, counts, timer=timer))
        passes_raw.append(sum(call_raw))
        call_raw.clear()
    probe_until(SETUP_GROUPS)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples.update(setup_s=setup, setup_wall_s=setup_raw, run_s=passes,
                   run_wall_s=passes_raw,
                   speed_kernel_s=statistics.median(speed.samples))
    return {
        "setup_s": (min(setup), "s"),
        "run_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def check_work_counts(workload, seed, layers, counts):
    """Work counts must repeat in every traced pass and match the baseline.

    The count metrics (unit ``count`` or ``flop``) are deterministic for a
    given config and seed.  Every traced pass must give the same values, and
    at the baseline's seed they must equal ``baseline.json``.
    """
    from layers import unit_of

    names = [n for n in layers[0] if unit_of(n) in ("count", "flop")]
    for name in names:
        values = [pass_[name] for pass_ in layers]
        if len(set(values)) > 1:
            counts.problems.append(f"{name} differs between traced passes: "
                                   f"{values}")
    baseline = json.loads(BASELINE.read_text())
    if seed != baseline["seed"]:
        return
    for name, expected in baseline["workloads"][workload.name].items():
        got = layers[0].get(name)
        if got != expected:
            counts.problems.append(f"{name} is {got}, baseline.json at seed "
                                   f"{seed} has {expected}")


def per_layer(cli, workload, seconds, counts, samples):
    from layers import layer_metrics, unit_of
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(one_pass(cli, workload, counts))
        tracer.clear()
        with tracer:
            traced.append(one_pass(cli, workload, counts, tracer.begin_op))
        layers.append(dict(layer_metrics(tracer.spans),
                           **{"report.worst_tol_ratio": counts.worst_tol_ratio,
                              "scenarios.fitted_order_min":
                                  counts.fitted_order_min}))
        spans.append(len(tracer.spans))
        tracer.clear()
    check_work_counts(workload, workload.seed, layers, counts)
    samples.update(untraced_run_s=plain, traced_run_s=traced)
    out = {name: (statistics.median(op[name] for op in layers), unit_of(name))
           for name in layers[0]}
    out["trace.overhead_s"] = (min(traced) - min(plain), "s")
    out["trace.spans"] = (statistics.median(spans), "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sprayform" / "cli.py").is_file():
        print(f"sprayform sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sprayform import cli
    if Path(cli.__file__).resolve().parent != SRC / "sprayform":
        print(f"imported sprayform from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, workdir)
        counts = Counts()
        samples = {}
        measure = per_layer if args.trace else end_to_end
        metrics = measure(cli, workload, args.seconds, counts, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    for problem in counts.problems:
        print(f"CHECK FAILED {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "samples": samples}))
    print(json.dumps({
        "correct": counts.failed == 0 and not counts.problems,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
