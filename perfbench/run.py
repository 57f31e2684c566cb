"""Run one benchmark workload against the library in ./src and print its metrics.

    python3 perfbench/run.py --workload batch-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The run measures set-up (fresh-process imports), builds its inputs from the
seed, warms up on a tiny input, then makes a fixed number of timed passes of
the workload, as many as `--seconds` holds at the workload's nominal pass
time, so a seed always gives the same operations. Between passes it times a
fixed reference computation (reference.py), and the rate is reported per
reference time. Every pass's outputs are checked. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. A traced run makes one untraced pass and then traced
ones, derives the per-layer table from the traced passes and writes all
spans to .perfbench-work/spans-<workload>-seed<seed>.json. The exit code is
0 when every output check passed, 1 when one did not, and another nonzero
code when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads. On a shared 2-core VM, OpenBLAS's
# second thread spins while it waits for a core the host may have given
# away, and that spinning counts in the process CPU time the rates rest on;
# one thread also keeps the closed loop on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("batch-fit", "batch-aggregate", "compare-export", "model-verify")
SETUP_IMPORTS = 5
# setup_s is scaled to a machine on which one kernels reference run
# (reference.py) takes this many CPU seconds, about what the 2-core Xeon VM
# this was built on gives in its faster spells.
SETUP_REF_S = 0.012
SETUP_REF_RUNS = 8
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_ref", "items/ref", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _package_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _give_up(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package() -> None:
    """Import the library from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ultradiffusion
    except ImportError as err:
        _give_up(f"cannot import ultradiffusion from {ROOT / 'src'}: {err}")
    where = Path(ultradiffusion.__file__).resolve().parent
    if where != (ROOT / "src" / "ultradiffusion").resolve():
        _give_up(f"imported ultradiffusion from {where}, not from this checkout")


def measure_setup(reference, count: int = SETUP_IMPORTS):
    """CPU seconds (user + system) of fresh processes that import the CLI
    module, and their median scaled to a machine on which the kernels
    reference (reference.py) takes SETUP_REF_S: times SETUP_REF_S over the
    mean of the reference runs made before, between and after them.

    CPU time, not wall time: it leaves out the time the host takes the CPUs
    away. One untimed import first compiles the bytecode and fills the page
    cache, which a user pays once, not on every run. Returns the seconds of
    each import, of each reference run, and the scaled median.
    """
    cmd = [sys.executable, "-c", "import ultradiffusion.cli"]
    env = _package_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)

    def time_reference() -> None:
        for _ in range(SETUP_REF_RUNS):
            refs.append(reference.run("kernels"))

    measured, refs = [], []
    time_reference()
    for _ in range(count):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        measured.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        time_reference()
    return measured, refs, statistics.median(measured) * SETUP_REF_S / statistics.mean(refs)


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _steal_s() -> float:
    """CPU time the host took from this VM's CPUs so far (Linux /proc/stat),
    NaN where that is not available."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, workdir: Path, passes: int, reference, tracer=None):
    """Make `passes` passes, and run the workload's reference
    (reference.py) `workload.reference_runs` times before the first pass and
    after each one.

    With a tracer, the first pass is untraced (the base for the tracing
    overhead) and every later one traced, so the traced passes pool enough
    per-call samples for a 99th percentile. Returns the wall and process
    CPU seconds of each pass, the CPU seconds of each reference run, each
    pass's checked outcome, and the peak resident set right after the first
    pass, before any output check has run: the checks' own arrays never set
    that figure. refs[k] holds the reference runs made just before pass k
    and refs[k + 1] those just after it.
    """
    out = workdir / "out"
    walls, cpus, refs, outcomes = [], [], [], []
    program_peak = 0.0

    def time_reference():
        part, runs = workload.reference_part, workload.reference_runs
        refs.append([reference.run(part) for _ in range(runs)])

    time_reference()
    for k in range(passes):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        # Garbage left in reference cycles by the last pass (such as the
        # distance matrix of a space_from_tree that raised) is freed here,
        # so a pass's time does not depend on when the collector last ran.
        gc.collect()
        traced = tracer is not None and k > 0
        if traced:
            tracer.install(k)
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            raw = workload.run(out)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        finally:
            if traced:
                tracer.uninstall()
        if k == 0:
            program_peak = _peak_rss_mb()
        outcomes.append(workload.check(out, raw))
        gc.collect()
        time_reference()
    return walls, cpus, refs, outcomes, program_peak


def run_workload(args) -> int:
    load_package()
    import reference
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if workload.one_cpu:
        # Before any thread starts (set-up imports, warm-up, passes).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment(args)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # The library's own temporary files (the end-to-end self check) stay
    # inside the checkout.
    tempfile.tempdir = str(workdir)
    try:
        ref = reference.Reference()
        setup = measure_setup(ref) if not args.trace else ([], [], 0.0)
        inputs = workload.prepare(workdir, args.seed)
        warm = workdir / "warm"
        warm.mkdir()
        workload.warm_up(warm)
        base_peak = _peak_rss_mb()
        tracer, min_passes = None, 2
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            min_passes = getattr(workload, "min_traced_passes", 2)
        # The pass count depends on --seconds only, never on the clock, so
        # every run on one seed attempts (and fails) the same operations.
        passes = max(min_passes, round(args.seconds / workload.pass_s))
        stolen = _steal_s()
        walls, cpus, refs, outcomes, program_peak = run_passes(
            workload, workdir, passes, ref, tracer
        )
        stolen = _steal_s() - stolen
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(f"passes {len(walls)}, wall/cpu s: " + " ".join(f"{w:.3f}/{c:.3f}" for w, c in zip(walls, cpus)))
    print(f"host steal over both CPUs during the passes: {stolen:.2f} s")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for note in sorted({n for o in outcomes for n in o.notes}):
        print(f"  not ok: {note}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")

    if args.trace:
        traced = {k: (walls[k], cpus[k]) for k in range(1, len(walls))}
        memoryless = {s.story_id for s in getattr(workload, "batch", []) if s.memoryless}
        values = tracing.layer_metrics(
            tracer.spans, traced, walls[:1], [o.values for o in outcomes], memoryless
        )
        spec = tracing.PER_LAYER
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(
            json.dumps({"env": env, "inputs": inputs, "walls": walls, "spans": tracer.spans})
        )
        print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    else:
        # Operations per reference time: each pass's operations over its
        # process CPU time, times the mean CPU time of the reference runs
        # made just before and after it (reference.py); the run reports the
        # median over its passes. Process CPU time leaves out the time the
        # host takes the CPUs away (steal); the reference takes out the
        # slower and faster spells of the CPU the pass ran on. The mean of
        # the reference runs, not their median: the spells make their times
        # bimodal, and a median jumps from one mode to the other. Every
        # workload keeps about one core busy, so the wall rate, printed too,
        # agrees with the CPU rate when nothing is stolen.
        rates = [
            o.attempted / cpu * statistics.mean(refs[k] + refs[k + 1])
            for k, (o, cpu) in enumerate(zip(outcomes, cpus))
        ]
        all_refs = [r for gap in refs for r in gap]
        cpu_rate = attempted / sum(cpus)
        values = {
            "setup_s": setup[2],
            "items_per_ref": statistics.median(rates),
            "peak_rss_mb": program_peak,
        }
        spec = END_TO_END
        print(
            "setup imports, CPU s: " + " ".join(f"{t:.3f}" for t in setup[0])
            + f"; median {statistics.median(setup[0]):.4f} s; kernels reference runs, mean "
            f"{statistics.mean(setup[1]):.5f} s; scaled to the reference machine {setup[2]:.4f} s"
        )
        print(
            "items_per_ref of each pass: " + " ".join(f"{r:.5g}" for r in rates) + "; "
            f"{workload.reference_part} reference runs {min(all_refs):.5f}-"
            f"{max(all_refs):.5f} s, mean {statistics.mean(all_refs):.5f} s; "
            f"CPU rate {cpu_rate:.6g}/s, wall rate {attempted / sum(walls):.6g}/s"
        )
        print(
            f"peak resident MB: {base_peak:.1f} before the first pass, {program_peak:.1f} "
            f"after it (reported), {_peak_rss_mb():.1f} after every pass and check"
        )
        # Every time the metrics rest on, reference runs grouped by gap.
        print("raw " + json.dumps({
            "setup": setup[:2], "cpus": cpus, "walls": walls,
            "attempted": [o.attempted for o in outcomes], "refs": refs,
        }))
    metrics = {}
    for name, unit, better in spec:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:40s} {values[name]:>14.6g} {unit:8s} ({better} is better)")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        worst = max(worst, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
