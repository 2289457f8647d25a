"""The benchmark's three workloads and the checks on their outputs.

Each workload provides

``setup(seed)``
    Everything a user does before the first timed call: build the spec or
    parse the command line and resolve the optimal attraction weight.
    ``setup_s`` times this in a fresh interpreter (see ``probe.py``).
``run_pass(state, out_dir, workers)``
    One pass of the workload, the unit ``wall_s`` times.
``observe(state, out_dir, result)``
    Reads the pass's outputs back into an :class:`Outcome`: per operation
    (one Monte Carlo point or one written file) a flat dict of observed
    values, plus the pass's work counts.

Observations are checked against a recorded reference
(``reference/<workload>.json``, written by ``record_reference.py`` at the
commit named in its ``recorded_at``):
strings must match exactly, numbers within ``REL_TOL`` relative, and NaN
matches NaN.  References exist for workload seeds 1..``REF_SEEDS``; the
``--seed`` given to the benchmark maps onto that range.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sparselms import cli, simulate, theory
from sparselms.kernels import AlgoParams, Variant

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REF_SEEDS = 32
REL_TOL = 1e-12


def workload_seed(seed: int) -> int:
    """Map any ``--seed`` onto the seeds that have a recorded reference
    (identity on 1..REF_SEEDS)."""
    return 1 + (seed - 1) % REF_SEEDS


@dataclass
class Outcome:
    """What one pass produced.

    ``ops`` maps an operation id to its observations, or to an error
    message when the operation raised.  ``counts`` holds the pass's work
    counts, which must repeat exactly from pass to pass and run to run.
    """

    ops: dict
    counts: dict


def _close(got, want) -> bool:
    if isinstance(want, str) or want is None:
        return got == want
    if not isinstance(got, (int, float)):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * abs(want)


def mismatches(obs, ref: dict) -> list[str]:
    """Keys of ``ref`` that ``obs`` misses; ``obs`` may be an error text."""
    if isinstance(obs, str):
        return [obs]
    return [f"{k}: got {obs.get(k)!r}, want {v!r}"
            for k, v in ref.items() if not _close(obs.get(k), v)]


def _quiet(fn, *args):
    """Call ``fn`` with the CLI's progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _csv_obs(path: Path, checkpoints=(), steady_col=None) -> dict:
    """Hash, size and row count of a CSV, plus selected values.

    ``checkpoints`` picks rows by index for every numeric column;
    ``steady_col`` adds the mean of that column over the final tenth of
    the rows, the window ``monte_carlo`` uses for its steady estimate.
    """
    data = path.read_bytes()
    obs = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    header, *rows = list(csv.reader(io.StringIO(data.decode())))
    obs["rows"] = len(rows)
    for col in header[1:]:
        if col.endswith("_db"):
            continue
        j = header.index(col)
        for c in checkpoints:
            obs[f"{col}@{c}"] = float(rows[c][j]) if c < len(rows) else None
    if steady_col is not None:
        j = header.index(steady_col)
        vals = np.array([float(r[j]) for r in rows])
        window = max(1, int(round(0.1 * vals.size)))
        obs[f"{steady_col}_steady"] = float(np.mean(vals[-window:]))
    return obs


def _file_results(out_dir: Path, rc: int, observe_file) -> Outcome:
    """Observe every file a CLI pass wrote; its counts come from the same
    reads.  A file that cannot be parsed fails, and a non-zero exit fails
    every file of the pass."""
    def observe(f: Path):
        try:
            return observe_file(f)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return f"unreadable: {type(e).__name__}: {e}"

    ops = {f.name: observe(f) for f in sorted(out_dir.iterdir())}
    csvs = [o for name, o in ops.items()
            if name.endswith(".csv") and isinstance(o, dict)]
    counts = {"csv_rows": sum(o["rows"] for o in csvs),
              "csv_bytes": sum(o["bytes"] for o in csvs),
              "files_written": len(ops)}
    if rc != 0:
        ops = dict.fromkeys(ops, f"exit code {rc}")
    return Outcome(ops, counts)


class Crit8Desk:
    """Monte Carlo half of acceptance criterion 8 at desk scale, through
    the API: small L, few trials, long series, so per-step Python
    overhead dominates."""

    name = "crit8-desk"
    workers = 1
    mults = (0.0, 0.3, 1.0, 3.0)
    checkpoints = (0, 1, 10, 100, 1000, 3000, 10000, 20000, 30000)
    unpinned = ()

    def setup(self, seed: int) -> dict:
        spec = simulate.ExperimentSpec(
            L=250, Q=25, mu=8e-4, alpha=10.0, kappa="OPTIMAL", snr_db=40.0,
            trials=5, iterations=30000, seed=seed)
        return {"spec": spec,
                "kappa_opt": simulate.resolve_kappa(spec),
                "st": theory.strengths(spec.alpha, Q=spec.Q,
                                       sigma_s=spec.sigma_s),
                "sig": theory.SignalModel(Px=spec.Px,
                                          Pv=simulate.noise_power(spec))}

    def tap_steps(self, state) -> int:
        spec = state["spec"]
        return len(self.mults) * spec.L * spec.trials * spec.iterations

    def run_pass(self, state: dict, out_dir: Path, workers: int) -> dict:
        spec = state["spec"]
        n = np.arange(spec.iterations + 1)
        results = {}
        for mult in self.mults:
            kappa = mult * state["kappa_opt"]
            params = AlgoParams(variant=Variant.L0LMS, mu=spec.mu,
                                kappa=kappa, alpha=spec.alpha)
            try:
                model = theory.convergence_model(
                    (spec.L, spec.Q, state["st"]), params, state["sig"])
                traj = simulate.monte_carlo(replace(spec, kappa=kappa),
                                            workers=workers)
                curve = model.msd(n)
            except Exception as e:   # a failed point is counted, not fatal
                results[f"kx{mult:g}"] = f"{type(e).__name__}: {e}"
                continue
            results[f"kx{mult:g}"] = (model, traj, curve)
        return results

    def observe(self, state: dict, out_dir: Path, results: dict) -> Outcome:
        L = state["spec"].L
        ops, tap_steps, diverged = {}, 0, 0
        for op, r in results.items():
            if isinstance(r, str):
                ops[op] = r
                continue
            model, traj, curve = r
            obs = {"n_diverged": traj.n_diverged, "msd_len": traj.msd.size,
                   "steady_estimate": traj.steady_estimate,
                   "d_inf": model.d_inf}
            for c in self.checkpoints:
                obs[f"msd@{c}"] = (float(traj.msd[c]) if c < traj.msd.size
                                   else None)
                obs[f"curve@{c}"] = float(curve[c])
            ops[op] = obs
            tap_steps += L * traj.trials * (traj.msd.size - 1)
            diverged += traj.n_diverged
        return Outcome(ops, {"tap_steps": tap_steps,
                             "diverged_trials": diverged})


class VariantsWide:
    """``sparselms experiment --config variants-wide.json --workers 2``:
    large L, many trials, short series and the process pool, with all
    four attractors and experiment-mode CSV and manifest writing."""

    name = "variants-wide"
    workers = 2
    config = HERE / "variants-wide.json"
    checkpoints = (0, 1, 10, 100, 300, 1000, 2000, 3000)
    # The recorded reference pins values to REL_TOL, not bits; bit
    # identity is checked between the passes of one run (workers=1 vs 2).
    unpinned = ("sha256", "bytes", "csv_bytes")

    def setup(self, seed: int) -> dict:
        spec = replace(cli.load_config(self.config), seed=seed)
        return {"spec": spec, "kappa_opt": simulate.resolve_kappa(spec),
                "seed": seed}

    def tap_steps(self, state) -> int:
        spec = state["spec"]
        return len(spec.variants) * spec.L * spec.trials * spec.iterations

    def run_pass(self, state: dict, out_dir: Path, workers: int) -> int:
        return _quiet(cli.main, [
            "experiment", "--config", str(self.config),
            "--seed", str(state["seed"]), "--workers", str(workers),
            "--out", str(out_dir)])

    def observe(self, state: dict, out_dir: Path, rc: int) -> Outcome:
        spec = state["spec"]

        def observe_file(f: Path) -> dict:
            if f.suffix == ".csv":
                return _csv_obs(f, self.checkpoints, steady_col="msd_sim")
            manifest = json.loads(f.read_text())
            manifest.pop("timestamp")
            canon = json.dumps(manifest, sort_keys=True).encode()
            resolved = manifest["resolved"][f"{spec.snr_db:g}dB"]
            return {"sha256": hashlib.sha256(canon).hexdigest(),
                    "files": ",".join(manifest["files"]),
                    **{k: v for k, v in resolved.items()
                       if isinstance(v, float)}}

        outcome = _file_results(out_dir, rc, observe_file)
        # a curve CSV has the n=0 row plus one row per step of every trial
        steps = outcome.counts["csv_rows"] - len(list(out_dir.glob("*.csv")))
        outcome.counts["tap_steps"] = spec.L * spec.trials * steps
        return outcome


class TheoryBattery:
    """``sparselms theory --preset expN`` for exp1..exp5 at full scale:
    closed forms and CSV emission only, no Monte Carlo."""

    name = "theory-battery"
    workers = 1
    presets = ("exp1", "exp2", "exp3", "exp4", "exp5")
    unpinned = ()

    def setup(self, seed: int) -> dict:
        parser = cli.build_parser()
        for p in self.presets:
            parser.parse_args(["theory", "--preset", p, "--seed", str(seed)])
        base = simulate.ExperimentSpec(L=1000, Q=100, mu=8e-4, alpha=10.0,
                                       kappa="OPTIMAL", snr_db=40.0,
                                       iterations=30000, seed=seed)
        return {"seed": seed, "kappa_opt": simulate.resolve_kappa(base)}

    def tap_steps(self, state) -> int:
        return 0

    def run_pass(self, state: dict, out_dir: Path, workers: int) -> int:
        rc = 0
        for p in self.presets:
            rc = max(rc, _quiet(cli.main, [
                "theory", "--preset", p, "--seed", str(state["seed"]),
                "--out", str(out_dir)]))
        return rc

    def observe(self, state: dict, out_dir: Path, rc: int) -> Outcome:
        return _file_results(out_dir, rc, _csv_obs)


WORKLOADS = {w.name: w for w in (Crit8Desk, VariantsWide, TheoryBattery)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, seed: int) -> dict:
    """``{"ops": {op: {key: value}}, "counts": {...}}`` for one seed."""
    with open(reference_path(name)) as f:
        seeds = json.load(f)["seeds"]
    return seeds["any"] if "any" in seeds else seeds[str(seed)]
