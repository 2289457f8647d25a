"""Command-line front end: presets, CSV emission, theory-vs-sim compare.

Subcommands
-----------
``theory``      closed-form values only (no Monte Carlo), same file layout
``simulate``    Monte Carlo only
``experiment``  both, plus a JSON run manifest
``compare``     per-point dB gap report between two CSV files

File conventions: ``<name>_<label>_<quantity>[_theory|_sim].csv``, where
the label is ``<snr>dB`` (``Pv<value>`` for a config with an explicit
noise power) and the ``_theory``/``_sim`` suffix marks a theory-only or
simulation-only run.  Steady-state sweep files carry ``(param,
msd_theory, msd_sim, msd_sim_ci)``, learning-curve files ``(n,
msd_theory, msd_sim)``; every MSD column except ``msd_sim_ci`` also
appears as a ``*_db`` column.  Linear values are written with 17
significant digits, dB values with 4 decimals.

Exit codes: 0 success, 1 validation error, 2 divergence detected,
3 tolerance failure in ``compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, theory
from .kernels import Variant
from .simulate import (ExperimentSpec, closed_form, default_iterations,
                       monte_carlo, noise_power, require_memory,
                       resolve_kappa)

ENV_OUTDIR = "SPARSELMS_OUTDIR"
DEFAULT_SEED = 1


class CliError(Exception):
    """Validation or runtime failure with a process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def to_db(x):
    """10*log10, mapping non-positive/NaN inputs to NaN."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, math.nan)
    ok = np.isfinite(x) & (x > 0)
    out[ok] = 10.0 * np.log10(x[ok])
    return out if out.ndim else float(out)


@contextlib.contextmanager
def _replacing(path: Path):
    """Write a temporary file beside ``path`` and move it over ``path``
    when the block completes; if the block raises, ``path`` is untouched
    and the temporary file is removed.  Readers never see a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns under ``header``: ``n`` and ``Q`` as
    integers, ``*_db`` columns with 4 decimals, the rest with 17
    significant digits."""
    def text(col, values):
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if col in ("n", "Q"):
            return [str(int(v)) for v in values]
        spec = ".4f" if col.endswith("_db") else ".17g"
        return [format(float(v), spec) for v in values]

    cells = [text(c, v) for c, v in zip(header, columns)]
    try:
        with _replacing(path) as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(zip(*cells))
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", 1)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and locate a run: the spec, the
    resolved derived parameters (noise powers, optimal attraction
    weights), the tool version, and the list of emitted CSVs.  Survives
    a JSON round trip losslessly (the string enums of the spec serialize
    as their values)."""

    version: str
    timestamp: str
    preset: str | None
    spec: ExperimentSpec
    resolved: dict
    files: tuple

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        d = json.loads(text)
        return cls(**{**d, "spec": ExperimentSpec(**d["spec"]),
                      "files": tuple(d["files"])})

    def save(self, path) -> None:
        with _replacing(Path(path)) as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def load_config(path) -> ExperimentSpec:
    """Parse a JSON config whose keys mirror ExperimentSpec fields.
    Unknown keys are errors (anti-typo); syntax errors report line and
    column."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}", 1)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(
            f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}", 1)
    if not isinstance(data, dict):
        raise CliError(f"{path}: top-level JSON value must be an object", 1)
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CliError(
            f"{path}: unknown config keys: {', '.join(unknown)} "
            f"(known keys: {', '.join(sorted(known))})", 1)
    try:
        return ExperimentSpec(**data)
    except (ValueError, TypeError) as e:
        raise CliError(f"{path}: {e}", 1)


# ---------------------------------------------------------------------------
# presets and sweep expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """What one run sweeps and writes.

    ``axis`` is the ExperimentSpec field that varies and ``values`` its
    values: a sequence, or a function of the base spec (called after
    :func:`expand` has resolved the base kappa).  ``kappa`` is the rule
    :func:`expand` applies.  ``curve`` is None for one steady-state sweep
    file, else the quantity of one learning-curve file per value
    (``curve.format(value)``).  ``reference`` adds the ZA/RZA reference
    columns of :func:`_reference_columns`.
    """

    axis: str
    values: object
    kappa: str = "given"
    curve: str | None = None
    reference: bool = False


_PRESET_BASE = dict(L=1000, Q=100, alpha=10.0, trials=100, iterations=30000,
                    seed=DEFAULT_SEED, variants=(Variant.L0LMS,))


def _exp1_kappas(spec: ExperimentSpec) -> list[float]:
    lo, hi = (1e-9, 3e-6) if spec.snr_db >= 30 else (1e-8, 3e-5)
    return sorted({float(k) for k in np.geomspace(lo, hi, 25)} | {spec.kappa})


def _exp3_sparsities(spec: ExperimentSpec) -> list[int]:
    # sparsity fractions of L: 50..1000 non-zeros at L=1000
    return sorted({min(spec.L, max(1, round(f * spec.L)))
                   for f in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)})


# name -> (mu, SNRs in dB, sweep); every preset starts from _PRESET_BASE
# with kappa "OPTIMAL", so each weight derives from the closed-form optimum.
PRESETS = {
    "exp1": (8e-4, (40.0, 20.0), Sweep("kappa", _exp1_kappas)),
    "exp2": (8e-4, (40.0,),
             Sweep("alpha", [5.6e-4 * 10.0 ** (k / 2.0) for k in range(11)],
                   "optimal", reference=True)),
    "exp3": (8e-4, (40.0,), Sweep("Q", _exp3_sparsities, "optimal")),
    "exp4": (4e-4, (40.0, 20.0),
             Sweep("kappa", (0.1, 1.0, 10.0), "multiples", "curve_kx{:g}")),
    "exp5": (4e-4, (40.0,),
             Sweep("mu", (2e-4, 4e-4), "optimal", "curve_mu{:g}")),
}
PRESET_NAMES = tuple(PRESETS)


def expand(base: ExperimentSpec, sweep: Sweep, entry: dict) -> list[tuple]:
    """Turn one sweep into ``(axis value, scalar spec)`` points.

    Each point is ``base`` with ``sweep.axis`` set to the value; its kappa
    follows the rule ``sweep.kappa``:

    ``"given"``      the base kappa, or the value when the axis is kappa;
    ``"multiples"``  the value times the base kappa;
    ``"optimal"``    the closed-form optimum at the point, recorded in
                     ``entry["kappa_opt_by_<axis>"]`` keyed by the value.

    Under the first two rules a base kappa of ``"OPTIMAL"`` is resolved
    once, on the base spec, and recorded as ``entry["kappa_opt"]``.
    """
    axis, values, kappa = sweep.axis, sweep.values, sweep.kappa
    if kappa != "optimal" and base.kappa == "OPTIMAL":
        base = replace(base, kappa=resolve_kappa(base))
        entry["kappa_opt"] = base.kappa
    if callable(values):
        values = values(base)
    points, optima = [], {}
    for v in values:
        if kappa == "multiples":
            sp = replace(base, kappa=v * base.kappa)
        else:
            sp = replace(base, **{axis: v})
        if kappa == "optimal":
            sp = replace(sp, kappa=resolve_kappa(replace(sp, kappa="OPTIMAL")))
            optima[f"{v:.17g}"] = sp.kappa
        points.append((v, sp))
    if optima:
        entry[f"kappa_opt_by_{axis}"] = optima
    return points


def _config_sweep(spec: ExperimentSpec) -> Sweep:
    """A config sweeps its one swept parameter into a steady-state file,
    or, when fully scalar, writes one learning curve per variant."""
    swept = [f for f in ("mu", "alpha", "kappa")
             if isinstance(getattr(spec, f), tuple)]
    if len(swept) > 1:
        raise CliError(f"config sweeps one parameter at a time, got "
                       f"sweeps on: {', '.join(swept)}", 1)
    if swept:
        if len(spec.variants) != 1:
            raise CliError("a swept config needs exactly one variant", 1)
        return Sweep(swept[0], getattr(spec, swept[0]),
                     "optimal" if spec.kappa == "OPTIMAL" else "given")
    return Sweep("variants", spec.variants,
                 curve="curve" if len(spec.variants) == 1
                 else "curve_{.value}")


# ---------------------------------------------------------------------------
# per-point evaluation
# ---------------------------------------------------------------------------

def _theory_steady(spec: ExperimentSpec) -> float:
    args = closed_form(spec)
    return math.nan if args is None else theory.l0_steady_msd(*args).d_inf


def _theory_curve(spec: ExperimentSpec, n: np.ndarray) -> np.ndarray:
    args = closed_form(spec)
    if args is None:
        return np.full(n.size, math.nan)
    return np.asarray(theory.convergence_model(*args).msd(n))


class _Run:
    """One theory / simulate / experiment run: evaluates points, writes
    files, and collects the file list and the divergence flag."""

    def __init__(self, mode: str, out_dir: Path, workers: int):
        self.want_theory = mode in ("theory", "experiment")
        self.want_sim = mode in ("simulate", "experiment")
        self.suffix = {"theory": "_theory", "simulate": "_sim"}.get(mode, "")
        self.out = out_dir
        self.workers = workers
        self.files: list[str] = []
        self.diverged = False

    def emit(self, stem: str, key: str, keys, columns: dict) -> None:
        """Write one CSV: the key column, the linear columns, then a
        ``_db`` column for every MSD column except ``*_ci``."""
        dbs = {f"{c}_db": to_db(v) for c, v in columns.items()
               if not c.endswith("_ci")}
        table = {key: keys, **columns, **dbs}
        fn = f"{stem}{self.suffix}.csv"
        _write_csv(self.out / fn, list(table), list(table.values()))
        self.files.append(fn)
        print(f"wrote {self.out / fn} ({len(keys)} rows)")

    def sim_steady(self, spec: ExperimentSpec) -> tuple[float, float]:
        """Monte Carlo steady estimate and its 95% CI half-width."""
        traj = monte_carlo(spec, workers=self.workers)
        if traj.diverged:
            self.diverged = True
            return math.nan, math.nan
        ci = math.nan
        if traj.trial_steady is not None and traj.trials > 1:
            ci = 1.96 * float(np.std(traj.trial_steady, ddof=1)) \
                / math.sqrt(traj.trials)
        return traj.steady_estimate, ci

    def steady_columns(self, points) -> dict:
        cols = {}
        if self.want_theory:
            cols["msd_theory"] = [_theory_steady(sp) for _, sp in points]
        if self.want_sim:
            sims = [self.sim_steady(sp) for _, sp in points]
            cols["msd_sim"] = [m for m, _ in sims]
            cols["msd_sim_ci"] = [ci for _, ci in sims]
        return cols

    def curve(self, stem: str, spec: ExperimentSpec) -> None:
        if spec.iterations is None:
            spec = replace(spec, iterations=default_iterations(
                spec.L, spec.Q, spec.mu, spec.Px))
        require_memory(spec, spec.trials if self.want_sim else 1)
        n = np.arange(spec.iterations + 1)
        cols = {}
        if self.want_theory:
            cols["msd_theory"] = _theory_curve(spec, n)
        if self.want_sim:
            traj = monte_carlo(spec, workers=self.workers)
            self.diverged |= traj.diverged
            n = n[:traj.msd.size]           # cut at a divergence
            cols = {c: v[:n.size] for c, v in cols.items()}
            cols["msd_sim"] = traj.msd
        self.emit(stem, "n", n, cols)


def _reference_columns(base: ExperimentSpec, points, run: _Run,
                       entry: dict) -> dict:
    """ZA/RZA reference columns at the sign-attractor optimum rho_opt
    (recorded in ``entry``): the ZA closed form and one ZA run, neither
    of which depends on the swept alpha, and an RZA run at every point
    with alpha as its reweighting constant."""
    rho = resolve_kappa(replace(base, variants=(Variant.ZALMS,),
                                kappa="OPTIMAL"))
    entry["rho_opt"] = rho
    cols = {}
    if run.want_theory:
        za = theory.za_steady_msd(base.L, base.Q, base.mu, rho, base.Px,
                                  noise_power(base)).d_inf_za
        cols["msd_theory_za"] = [za] * len(points)
    if run.want_sim:
        za, _ = run.sim_steady(replace(base, variants=(Variant.ZALMS,),
                                       kappa=rho, alpha=1.0))
        cols["msd_sim_za"] = [za] * len(points)
        cols["msd_sim_rza"] = [
            run.sim_steady(replace(sp, variants=(Variant.RZALMS,),
                                   kappa=rho))[0] for _, sp in points]
    return cols


def _run_sweep(run: _Run, stem: str, sweep: Sweep, base: ExperimentSpec,
               entry: dict) -> list[tuple]:
    """Expand one sweep at one noise level, write its files and return
    its points."""
    points = expand(base, sweep, entry)
    if sweep.curve is not None:
        for v, sp in points:
            run.curve(f"{stem}_{sweep.curve.format(v)}", sp)
        return points
    cols = run.steady_columns(points)
    if sweep.reference:
        cols.update(_reference_columns(base, points, run, entry))
    run.emit(f"{stem}_{sweep.axis}_sweep", sweep.axis,
             [v for v, _ in points], cols)
    return points


def _low_snr_note(snr: float) -> None:
    if snr < 30:
        print(f"note: {snr:g} dB SNR is low; closed forms are approximate "
              "there, expect a visible theory-vs-simulation gap")


def _apply_overrides(spec: ExperimentSpec, seed, trials, scale,
                     snr_convention) -> ExperimentSpec:
    if scale is not None:
        if scale <= 0:
            raise CliError("--scale must be > 0", 1)
        L = max(1, round(spec.L * scale))
        Q = min(L, round(spec.Q * scale))
        spec = replace(spec, L=L, Q=Q,
                       trials=max(1, round(spec.trials * scale)))
    if trials is not None:
        spec = replace(spec, trials=trials)
    if seed is not None:
        spec = replace(spec, seed=seed)
    if snr_convention is not None:
        spec = replace(spec, snr_convention=snr_convention)
    return spec


def run_experiment(preset_or_config: str, out_dir, mode: str = "experiment",
                   seed: int | None = None, trials: int | None = None,
                   scale: float | None = None,
                   snr_convention: str | None = None,
                   workers: int = 1):
    """Run a preset or config in the given mode; returns (manifest|None,
    exit_code).  A manifest is produced in experiment mode only."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create output directory {out}: {e}", 1)
    if not os.access(out, os.W_OK):
        raise CliError(f"output directory {out} is not writable", 1)

    if preset_or_config in PRESETS:
        preset = name = preset_or_config
        mu, snrs, sweep = PRESETS[name]
        spec = _apply_overrides(
            ExperimentSpec(mu=mu, snr_db=snrs[0], **_PRESET_BASE),
            seed, trials, scale, snr_convention)
        bases = [replace(spec, snr_db=snr, kappa="OPTIMAL") for snr in snrs]
        resolved = {"snrs": list(snrs),
                    "scale": scale if scale is not None else 1.0}
    else:
        preset = None
        spec = _apply_overrides(load_config(preset_or_config), seed, trials,
                                scale, snr_convention)
        name = Path(preset_or_config).stem
        sweep = _config_sweep(spec)
        bases = [spec]
        resolved = {"snrs": [] if spec.snr_db is None else [spec.snr_db]}

    run = _Run(mode, out, workers)
    for base in bases:
        if base.snr_db is None:
            label = f"Pv{base.Pv:g}"
        else:
            label = f"{base.snr_db:g}dB"
            _low_snr_note(base.snr_db)
        entry = resolved[label] = {
            "Pv": noise_power(base),
            "snr_convention": base.snr_convention.value}
        points = _run_sweep(run, f"{name}_{label}", sweep, base, entry)
        if "kappa_opt" in entry:
            print(f"kappa_opt({label}) = {entry['kappa_opt']:.6e}")
        # only a config's per-variant curves are keyed by variant
        l0 = dict(points).get(Variant.L0LMS)
        if run.want_theory and l0 is not None:
            rep = theory.l0_steady_msd(*closed_form(l0))
            entry.update(d_inf=rep.d_inf, d_lms=rep.d_lms,
                         kappa_opt_theory=rep.kappa_opt,
                         d_min=rep.d_min, omega=rep.omega)
            print(f"steady theory: d_inf={rep.d_inf:.6e}  "
                  f"d_lms={rep.d_lms:.6e}  kappa_opt={rep.kappa_opt:.6e}  "
                  f"d_min={rep.d_min:.6e}")

    manifest = None
    if mode == "experiment":
        manifest = RunManifest(
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
            preset=preset, spec=spec, resolved=resolved,
            files=tuple(run.files))
        mpath = out / f"{name}_manifest.json"
        manifest.save(mpath)
        print(f"wrote {mpath}")
    if run.diverged:
        print("divergence detected in at least one Monte Carlo point",
              file=sys.stderr)
        return manifest, 2
    return manifest, 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _read_points(path) -> tuple[list[str], dict]:
    """Header and ``{key: (key text, {column: text})}`` of a CSV, keyed by
    the parsed first column.  A file without data rows, blank or ragged
    rows, and non-numeric or repeated keys are validation errors."""
    try:
        with open(path, newline="") as f:
            r = csv.reader(f)
            header = next(r, None)
            if not header:
                raise CliError(f"{path}: empty CSV", 1)
            rows = list(r)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", 1)
    pts = {}
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CliError(f"{path}:{line}: {len(row)} fields, the header "
                           f"has {len(header)}", 1)
        try:
            key = float(row[0])
        except ValueError:
            raise CliError(f"{path}:{line}: {header[0]} value {row[0]!r} "
                           "is not a number", 1)
        if key in pts:
            raise CliError(f"{path}:{line}: {header[0]} value {row[0]!r} "
                           f"repeats {pts[key][0]!r}", 1)
        pts[key] = (row[0], dict(zip(header, row)))
    if not pts:
        raise CliError(f"{path}: no data rows", 1)
    return header, pts


def _value_column(header: list[str], preference: list[str], path) -> str:
    for c in preference:
        if c in header:
            return c
    raise CliError(
        f"{path}: no usable MSD column (looked for "
        f"{', '.join(preference)})", 1)


def compare(theory_csv, sim_csv, tolerance_db: float = 1.0,
            out_dir=None) -> int:
    """Per-point gap report: 10*log10(sim/theory) on a matching grid.

    The first file supplies the reference column (msd_theory, else msd,
    else msd_sim), the second the comparison column (msd_sim, else msd,
    else msd_theory) — so comparing an experiment file against itself
    reports its own theory-vs-sim gaps.  Exit 0 iff max |gap| <=
    tolerance; 3 on tolerance failure; 2 when NaN values (divergence)
    block the comparison; 1 on grid mismatch.
    """
    hdr1, pts1 = _read_points(theory_csv)
    hdr2, pts2 = _read_points(sim_csv)
    key1, key2 = hdr1[0], hdr2[0]
    if key1 != key2:
        raise CliError(f"grid mismatch: key columns differ "
                       f"({key1!r} vs {key2!r})", 1)
    only1 = [pts1[k][0] for k in sorted(set(pts1) - set(pts2))]
    only2 = [pts2[k][0] for k in sorted(set(pts2) - set(pts1))]
    if only1 or only2:
        msg = ["grid mismatch:"]
        if only1:
            msg.append(f"  missing from {sim_csv}: "
                       f"{', '.join(only1[:10])}"
                       + (" ..." if len(only1) > 10 else ""))
        if only2:
            msg.append(f"  missing from {theory_csv}: "
                       f"{', '.join(only2[:10])}"
                       + (" ..." if len(only2) > 10 else ""))
        raise CliError("\n".join(msg), 1)

    col1 = _value_column(hdr1, ["msd_theory", "msd", "msd_sim"], theory_csv)
    col2 = _value_column(hdr2, ["msd_sim", "msd", "msd_theory"], sim_csv)

    table = []
    nan_points = 0
    for k in sorted(pts1):
        text, row1 = pts1[k]
        a = float(row1[col1])
        b = float(pts2[k][1][col2])
        if math.isnan(a) or math.isnan(b):
            nan_points += 1
            gap = math.nan
        elif a <= 0 or b <= 0:
            raise CliError(
                f"non-positive MSD at {key1}={text}: {a} vs {b}", 1)
        else:
            gap = 10.0 * math.log10(b / a)
        table.append((k, text, a, b, gap))

    gaps = np.array([g for *_, g in table if not math.isnan(g)])
    print(f"comparing {col2} ({sim_csv}) against {col1} ({theory_csv}): "
          f"{len(table)} points")
    if len(table) <= 200:
        print(f"{key1:>16}  {'reference':>24}  {'value':>24}  {'gap_db':>9}")
        for _, text, a, b, g in table:
            print(f"{text:>16}  {a:>24.17g}  {b:>24.17g}  {g:>9.4f}")
    else:
        out = Path(out_dir) if out_dir else Path(".")
        gp = out / (Path(sim_csv).stem + "_vs_" + Path(theory_csv).stem
                    + "_gaps.csv")
        keys, _, refs, values, gap_col = zip(*table)
        _write_csv(gp, [key1, "msd_reference", "msd_value", "gap_db"],
                   [keys, refs, values, gap_col])
        print(f"per-point table written to {gp}")

    if nan_points:
        print(f"divergence detected: {nan_points} point(s) with NaN MSD",
              file=sys.stderr)
        return 2
    mx = float(np.max(np.abs(gaps)))
    mean = float(np.mean(gaps))
    ok = mx <= tolerance_db
    print(f"max |gap| = {mx:.4f} dB, mean gap = {mean:.4f} dB, "
          f"tolerance = {tolerance_db:g} dB -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: exit 1 (argparse's default
    exit 2 is reserved for divergence detection here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_run_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", metavar="NAME",
                     help=f"named experiment preset "
                          f"({', '.join(PRESET_NAMES)})")
    src.add_argument("--config", metavar="PATH",
                     help="JSON config with ExperimentSpec fields")
    p.add_argument("--out", metavar="DIR",
                   help=f"output directory (default ${ENV_OUTDIR} or .)")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--scale", type=float,
                   help="multiply (L, Q, trials) for desk-scale runs; "
                        "theory uses the scaled parameters too")
    p.add_argument("--snr-convention",
                   choices=[c.value for c in theory.SnrConvention],
                   help="SNR accounting convention")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel trial workers (default 1)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sparselms",
        description="Sparse-LMS laboratory: closed-form theory, seeded "
                    "Monte Carlo, preset experiments, comparisons.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    for cmd, hlp in (("theory", "evaluate closed forms only"),
                     ("simulate", "run Monte Carlo only"),
                     ("experiment", "theory + simulation + manifest")):
        sp = sub.add_parser(cmd, help=hlp)
        _add_run_args(sp)
        sp.set_defaults(mode=cmd)

    cp = sub.add_parser("compare",
                        help="per-point dB gap report between two CSVs")
    cp.add_argument("theory_csv", help="reference file (theory side)")
    cp.add_argument("sim_csv", help="comparison file (simulation side)")
    cp.add_argument("--tolerance-db", type=float, default=1.0,
                    help="max |gap| allowed in dB (default 1.0)")
    cp.add_argument("--out", metavar="DIR",
                    help="directory for the per-point gap CSV when the "
                         "table is too large for stdout")
    cp.set_defaults(mode="compare")
    return p


def _out_dir(args) -> str:
    return args.out or os.environ.get(ENV_OUTDIR) or "."


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.mode == "compare":
            return compare(args.theory_csv, args.sim_csv,
                           tolerance_db=args.tolerance_db,
                           out_dir=args.out or os.environ.get(ENV_OUTDIR))
        if args.preset and args.preset not in PRESET_NAMES:
            raise CliError(f"unknown preset {args.preset!r} (expected one "
                           f"of {', '.join(PRESET_NAMES)})", 1)
        target = args.preset if args.preset else args.config
        _, code = run_experiment(
            target, _out_dir(args), mode=args.mode, seed=args.seed,
            trials=args.trials, scale=args.scale,
            snr_convention=args.snr_convention, workers=args.workers)
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (theory.StabilityError, theory.ConsistencyError,
            theory.DegenerateSpectrumError, theory.ParameterRangeError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
