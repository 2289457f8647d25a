"""sparselms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: ``crit8-desk``, ``variants-wide`` and ``theory-battery`` (see
``workloads.py`` and ``BENCHMARK.json`` for what each one stresses).

``--trace 0`` measures end to end.  Passes of the workload run back to
back, new ones starting for ``--seconds``; ``wall_s`` is their mean pass
time.  (On the 2-vCPU x86_64 VM the benchmark was tuned on, CPU speed
changes by up to 1.6x in states lasting from seconds to minutes.  A
median over a run's passes jumps with the state; the mean moves smoothly
and was the steadier of the two.)
``setup_s`` is the median of several fresh-interpreter set-ups run
between the passes, and ``peak_rss_mb`` the peak resident memory of this
process plus its pool workers.  ``--trace 1`` runs untraced passes for half the time, then one
traced pass (at ``workers=1``, so that trial and step spans are seen), and
reports the per-layer metrics of ``spans.layer_metrics`` plus
``trace.overhead_s``.

Every pass's outputs are checked against the recorded reference; the last
line printed is one JSON object with ``correct``, ``attempted``,
``failed`` (operations: Monte Carlo points or written files) and
``metrics``.  Details, the environment and the spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT = bootstrap.ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="sparselms benchmark")
    p.add_argument("--workload", required=True,
                   choices=("crit8-desk", "variants-wide", "theory-battery"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict:
    """L2 and L3 sizes as the kernel reports them for cpu0 (``{}`` when it
    does not)."""
    sizes = {}
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache": cache_sizes(),
    }


class Counts:
    """Work counts must repeat exactly: across the passes of a run, against
    the reference, and against earlier runs of the same workload and seed
    in this checkout (kept in ``.bench_out/counts.json``)."""

    def __init__(self, key: str, reference: dict):
        self.path = OUT / "counts.json"
        self.key = key
        self.reference = reference
        self.first = None
        self.problems: list[str] = []

    def check(self, counts: dict) -> None:
        if self.first is None:
            self.first = counts
        for k, v in self.reference.items():
            if counts.get(k) != v:
                self.problems.append(f"count {k}={counts.get(k)}, "
                                     f"reference {v}")
        if counts != self.first:
            self.problems.append(f"counts {counts} differ from the first "
                                 f"pass {self.first}")

    def check_earlier_runs(self) -> None:
        seen = json.loads(self.path.read_text()) if self.path.is_file() \
            else {}
        earlier = seen.setdefault(self.key, self.first)
        if earlier != self.first:
            self.problems.append(f"counts {self.first} differ from an "
                                 f"earlier run {earlier}")
        self.path.write_text(json.dumps(seen, indent=1, sort_keys=True))


class Bench:
    """One run of one workload: its set-up state, the passes and their
    checks, and the run's tallies of attempted and failed operations."""

    def __init__(self, args):
        import workloads
        self.wl_mod = workloads
        self.wl = workloads.WORKLOADS[args.workload]()
        self.seed = workloads.workload_seed(args.seed)
        self.ref = workloads.load_reference(self.wl.name, self.seed)
        self.counts = Counts(f"{self.wl.name}/{self.seed}",
                             self.ref["counts"])
        self.pass_dir = OUT / self.wl.name / "pass"
        self.state = self.wl.setup(self.seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bits_ref = None       # first pass's observations (bit identity)
        self.last_counts: dict = {}
        self.child_rss_kib = 0

    def one_pass(self, workers: int) -> float:
        """Run, time and check one pass; returns its wall time."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        result = self.wl.run_pass(self.state, self.pass_dir, workers)
        wall = time.perf_counter() - t0
        outcome = self.wl.observe(self.state, self.pass_dir, result)
        if self.bits_ref is None:
            self.bits_ref = outcome.ops
        ref_ops = self.ref["ops"]
        for op in sorted(set(ref_ops) | set(outcome.ops)):
            bad = self.wl_mod.mismatches(outcome.ops.get(op, "missing"),
                                         ref_ops.get(op, {"unexpected": op}))
            got, first = outcome.ops.get(op), self.bits_ref.get(op)
            if (isinstance(got, dict) and isinstance(first, dict)
                    and got.get("sha256") != first.get("sha256")):
                bad.append(f"sha256 differs from the first pass "
                           f"(workers={workers})")
            self.attempted += 1
            if bad:
                self.failed += 1
                self.problems.append(f"{op} (workers={workers}): "
                                     + "; ".join(bad[:3]))
        self.counts.check(outcome.counts)
        self.last_counts = outcome.counts
        return wall

    def passes(self, seconds: float, workers: int, probes: int = 0):
        """Passes back to back, starting new ones for ``seconds``.

        ``probes`` set-up probes are spread over the same time, between
        passes, so that they see the same machine states as the passes.
        Returns the pass times and the set-up times.
        """
        walls, setups, t0 = [], [], time.perf_counter()
        while not walls or time.perf_counter() - t0 < seconds:
            walls.append(self.one_pass(workers))
            if len(walls) == 1:
                # pool workers have been joined; no probe has run yet
                self.child_rss_kib = resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss
            share = (time.perf_counter() - t0) / seconds
            while len(setups) < min(probes, math.ceil(probes * share)):
                setups.append(self.setup_time())
        while len(setups) < probes:
            setups.append(self.setup_time())
        return walls, setups

    def setup_time(self) -> float:
        """Set-up time in a fresh interpreter: from just before the probe
        is started to the moment it reports its set-up done (both read
        the system-wide monotonic clock)."""
        t0 = time.monotonic()
        p = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.wl.name,
             str(self.seed)], cwd=bootstrap.ROOT, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S, check=True)
        return float(p.stdout.split()[-1]) - t0

    def peak_rss_mib(self) -> float:
        """Peak RSS of this process plus ``workers`` times the largest peak
        of a pool worker (0 for a workload without a pool)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self.wl.workers * self.child_rss_kib) / 1024.0


def declared(kind: str) -> dict:
    """``{metric name: unit}`` of one metric list in BENCHMARK.json."""
    doc = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    import spans

    bench = Bench(args)
    wl = bench.wl
    env = environment()
    detail = {"workload": wl.name, "seed": args.seed,
              "workload_seed": bench.seed, "trace": args.trace, "env": env}
    tap_steps = wl.tap_steps(bench.state)

    # The workers=1 pass is the bit-identity reference for the pool passes
    # and the single-process baseline of simulate.parallel_speedup.
    wall_w1 = bench.one_pass(1) if wl.workers > 1 else None

    if args.trace == 0:
        walls, setups = bench.passes(args.seconds, wl.workers,
                                     probes=SETUP_PROBES)
        wall = statistics.fmean(walls)
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": bench.peak_rss_mib()}
        extra = {"tap_steps_per_s": (tap_steps / wall, "1/s")} \
            if tap_steps else {}
        detail.update(walls=walls, setups=setups)
    else:
        walls, _ = bench.passes(args.seconds / 2, wl.workers)
        with spans.Tracer() as tracer:
            traced = bench.one_pass(1)
        untraced = statistics.fmean(walls)
        values = spans.layer_metrics(
            tracer, tap_steps, bench.last_counts,
            parallel_speedup=wall_w1 / untraced if wall_w1 else 0.0,
            overhead_s=traced - (wall_w1 if wall_w1 else untraced))
        extra = {}
        tracer.save(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz")
        detail.update(walls=walls, wall_w1=wall_w1, traced_wall=traced)

    units = declared("end_to_end" if args.trace == 0 else "per_layer")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "are produced or declared, not both")
    metrics = {k: (values[k], u) for k, u in units.items()}
    shown = {**metrics, **extra,
             "failed_frac": (bench.failed / bench.attempted, "1")}

    bench.counts.check_earlier_runs()
    problems = bench.problems + bench.counts.problems
    correct = not problems
    detail.update(counts=bench.last_counts, tap_steps=tap_steps,
                  problems=problems, metrics=shown)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(detail, indent=1))

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print("env " + json.dumps(env))
    print(f"counts {json.dumps(bench.last_counts)} tap_steps={tap_steps}")
    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
