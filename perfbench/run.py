"""asepkpz benchmark: one workload, timed passes, gated outputs, one JSON result line.

    python3 perfbench/run.py --workload {compare,audit,she,halfline} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run repeats untraced passes for S seconds and reports the
end-to-end metrics (medians over passes).  With --trace 1 it runs untraced
passes for S/2 seconds, then traced passes, and reports the per-layer
metrics.  Pass times are reported in units of a fixed reference kernel timed
between passes, because the speed of a shared machine drifts by up to 1.7x
within minutes; the raw seconds are printed too.  The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the workload's own worker threads alone set the parallelism.
# Must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("items_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
    ("ops_passed_frac", "frac"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("compare", "audit", "she", "halfline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload, then exit (times setup_s)")
    return ap.parse_args(argv)


def import_package():
    """Import asepkpz from ./src of this checkout, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "asepkpz", "__init__.py")):
        sys.exit(f"perfbench: no asepkpz sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import asepkpz
    if not os.path.abspath(asepkpz.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported asepkpz from {asepkpz.__file__}, not {src}")
    import workloads
    return workloads


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy's and scipy's copies)."""
    import ctypes

    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    out[pkg.__name__] = int(fn())
                    break
    return out


def environment(args, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": len(os.sched_getaffinity(0)), "workload_threads": workload.threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "blas_threads": blas_threads(), "machine": platform.machine()}


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that import everything and build the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def reference_seconds() -> float:
    """Wall time of a fixed kernel that uses nothing from asepkpz.

    About 70% interpreted float and dict work and 30% small dense matmuls
    (0.14 s on a 2.1 GHz Xeon core), roughly the mix of the workloads.  A
    pass's wall divided by this time taken around it cancels the machine's
    load drift, which the pass and the kernel share.
    """
    import numpy as np
    a = np.full((100, 100), 0.01)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(400_000):
        acc += (i % 7) * 0.5
        table[i & 1023] = acc
    x = a
    for _ in range(1000):
        x = a @ x
        x /= x.max()
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload, keeps the gate tally and checks repeatability."""

    def __init__(self, workloads, workload, workdir: str):
        self.workloads = workloads
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.passes = 0

    def tally(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {name}", flush=True)

    def one_pass(self, **kw):
        self.passes += 1
        out_root = os.path.join(self.workdir, f"pass{self.passes:03d}")
        gc.collect()  # each pass starts from the same collector state
        t0 = time.perf_counter()
        try:
            res = self.workload.run_pass(out_root, **kw)
        except Exception:  # a pass that raises is one failed operation, not a crash
            traceback.print_exc()
            res = self.workloads.PassResult()
            res.gate(f"pass {self.passes} raised", False)
        wall = time.perf_counter() - t0
        shutil.rmtree(out_root, ignore_errors=True)
        for name, ok in res.gates:
            self.tally(name, ok)
        return res, wall

    def timed_passes(self, seconds: float, label: str, before=None,
                     after=None) -> tuple[list[float], list]:
        """Passes for about `seconds` (at least one); hashes must repeat.

        Returns each pass's wall in reference units (see reference_seconds,
        timed before the first pass and after every pass) and its result.  A
        pass starts only if half of the previous one still fits, so a run
        overshoots `seconds` by half a pass at most on average.  `before` and
        `after` run around each pass, outside its timed region.
        """
        walls, results = [], []
        start = time.perf_counter()
        ref = reference_seconds()
        while not walls or time.perf_counter() - start + walls[-1] * ref / 2 < seconds:
            if before is not None:
                before()
            res, wall = self.one_pass()
            if after is not None:
                after()
            ref_before, ref = ref, reference_seconds()
            walls.append(wall / ((ref_before + ref) / 2))
            results.append(res)
            if self.reference is None:
                self.reference = res.hashes
            else:
                self.tally("artifacts identical to the first pass",
                           res.hashes == self.reference)
            cli = sum(ln.startswith("[PASS]") for ln in res.cli_lines)
            fails = [ln[7:] for ln in res.cli_lines if ln.startswith("[FAIL]")]
            print(f"{label} pass {len(walls)}: wall_s={wall:.4f} ref_s={ref:.4f} "
                  f"wall_ref={walls[-1]:.3f} gates="
                  f"{len(res.gates) - len(res.failed)}/{len(res.gates)}"
                  + (f" cli_checks={cli}/{len(res.cli_lines)}" if res.cli_lines else "")
                  + (f" cli_3sigma_fail={','.join(fails)}" if fails else ""), flush=True)
        return walls, results

    def thread_invariance(self) -> None:
        """--threads nproc output must be byte-identical to --threads 1 (untimed)."""
        if self.workload.threads > 1:
            res, _ = self.one_pass(threads=1)
            self.tally("threads=1 artifacts identical to threads=nproc",
                       res.hashes == self.reference)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    size = workloads.SIZES[args.size][args.workload]
    if args.setup_only:
        workloads.WORKLOADS[args.workload](size, args.seed)
        return 0

    setup_samples = [] if args.trace else time_setup(args)
    workload = workloads.WORKLOADS[args.workload](size, args.seed)
    print("env " + json.dumps(environment(args, workload)), flush=True)
    outdir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(outdir, exist_ok=True)
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workloads, workload, workdir)
    try:
        if args.trace:
            metrics = traced_run(args, runner, outdir)
        else:
            walls, results = runner.timed_passes(args.seconds, "timed")
            runner.thread_invariance()
            wall = statistics.median(walls)
            values = {
                "wall_ref": wall,
                "setup_s": statistics.median(setup_samples),
                "items_per_ref": statistics.median(r.items for r in results) / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_passed_frac": 1.0 - runner.failed / runner.attempted,
            }
            print(f"passes={len(walls)} wall_ref samples="
                  + ",".join(f"{w:.4f}" for w in walls)
                  + " setup_s samples=" + ",".join(f"{s:.4f}" for s in setup_samples),
                  flush=True)
            units = dict(END_TO_END)
            metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(outdir)  # only if empty: a traced run leaves its spans there
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


def traced_run(args, runner, outdir) -> dict:
    import tracing
    untraced, _ = runner.timed_passes(args.seconds / 2, "untraced")
    per_pass = []
    spans_path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    with tracing.Tracer(runner.workload.threads) as tracer:
        tracer.install(runner.workload.cli_kind)
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(tracer.absent), flush=True)

        def collect():
            per_pass.append(tracer.metrics())
            tracer.dump(spans_path, str(len(per_pass)))

        traced, _ = runner.timed_passes(args.seconds / 2, "traced", before=tracer.reset,
                                        after=collect)
    runner.thread_invariance()
    specs = tracing.metric_specs()
    exact = [name for name, unit, _ in specs if unit in ("count", "bytes")]
    if len(per_pass) > 1:
        runner.tally("traced counts identical across passes",
                     all(m[k] == per_pass[0][k] for m in per_pass for k in exact))
    # counts repeat exactly (gated above); times are medians over traced passes
    values = {k: per_pass[0][k] if k in exact else statistics.median(m[k] for m in per_pass)
              for k in per_pass[0]}
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}", flush=True)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}


if __name__ == "__main__":
    sys.exit(main())
