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
3 tolerance failure in ``compare``.  A simulated steady value that has
not settled (``Trajectory.settled``) gets one ``note:`` line on stderr.
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
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, theory
from .kernels import Variant
from .simulate import (ExperimentSpec, _scalar_params, closed_form,
                       iteration_count, monte_carlo, noise_power,
                       require_memory, resolve_kappa)

ENV_OUTDIR = "SPARSELMS_OUTDIR"


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
    and the temporary file is removed.  Readers never see a part.  The
    first write into a missing directory makes it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def _write_errors(path: Path):
    """An OSError in the block exits 1 as ``cannot write <path>: ...``,
    naming the target, not the temporary file beside it."""
    try:
        yield
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}", 1)


_CSV_BLOCK = 1024               # rows formatted by one ``%``
# curve-long arrays a curve's path holds at once, besides the trials: n,
# the curve and a temporary of ConvergenceModel.msd, the dB column and
# to_db's two temporaries and masks (41 bytes per step, traced)
_CURVE_SERIES = 6


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns under ``header``: ``n`` and ``Q`` as
    integers, ``*_db`` columns with 4 decimals, the rest with 17
    significant digits; rows end in CRLF, one ``%`` per block of rows.
    A column that is not an array becomes an object array, so its Python
    ints stay exact; every column yields Python numbers block by block."""
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
               for c in columns]
    lengths = [len(c) for c in columns]
    if len(columns) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of lengths {lengths} under "
                         f"{len(header)} header fields")
    row = ",".join("%d" if c in ("n", "Q") else
                   "%.4f" if c.endswith("_db") else "%.17g"
                   for c in header) + "\r\n"
    with _write_errors(path), _replacing(path) as f:
        csv.writer(f).writerow(header)
        for i in range(0, max(lengths, default=0), _CSV_BLOCK):
            rows = list(zip(*(c[i:i + _CSV_BLOCK].tolist() for c in columns)))
            f.write(row * len(rows) % tuple(chain.from_iterable(rows)))


def _output_dir(path) -> Path:
    """``path``, refused unless it can be a writable directory.  What is
    missing of it is made to find out and removed again, so a run that
    fails before its first write (:func:`_replacing`) leaves nothing."""
    out = Path(path)
    missing = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise CliError(f"output directory {out} is not writable", 1)
    except OSError as e:
        raise CliError(f"cannot create output directory {out}: {e}", 1)
    finally:
        for p in missing:                   # deepest first
            with contextlib.suppress(OSError):
                p.rmdir()
    return out


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
    values: a sequence, or a function of the base spec as :func:`expand`
    leaves it.  A base kappa of ``"OPTIMAL"`` is resolved at each point,
    or once on the base when the values are weights or variants; with
    ``relative`` the weights are multiples of that base kappa.  ``curve``
    is None for one steady-state sweep file, else the quantity of one
    learning-curve file per value (``curve.format(value)``).
    ``reference`` adds the ZA/RZA reference columns of
    :func:`_reference_columns`.
    """

    axis: str
    values: object
    relative: bool = False
    curve: str | None = None
    reference: bool = False


_PRESET_BASE = dict(L=1000, Q=100, alpha=10.0, kappa="OPTIMAL", trials=100,
                    iterations=30000, variants=(Variant.L0LMS,))


def _exp1_kappas(spec: ExperimentSpec) -> list[float]:
    lo, hi = (1e-9, 3e-6) if spec.snr_db >= 30 else (1e-8, 3e-5)
    return sorted({float(k) for k in np.geomspace(lo, hi, 25)} | {spec.kappa})


def _exp3_sparsities(spec: ExperimentSpec) -> list[int]:
    # sparsity fractions of L: 50..1000 non-zeros at L=1000
    return sorted({min(spec.L, max(1, round(f * spec.L)))
                   for f in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)})


# name -> (mu, SNRs in dB, sweep); every preset starts from _PRESET_BASE,
# whose kappa "OPTIMAL" derives each weight from the closed-form optimum.
PRESETS = {
    "exp1": (8e-4, (40.0, 20.0), Sweep("kappa", _exp1_kappas)),
    "exp2": (8e-4, (40.0,),
             Sweep("alpha", [5.6e-4 * 10.0 ** (k / 2.0) for k in range(11)],
                   reference=True)),
    "exp3": (8e-4, (40.0,), Sweep("Q", _exp3_sparsities)),
    "exp4": (4e-4, (40.0, 20.0),
             Sweep("kappa", (0.1, 1.0, 10.0), relative=True,
                   curve="curve_kx{:g}")),
    "exp5": (4e-4, (40.0,), Sweep("mu", (2e-4, 4e-4), curve="curve_mu{:g}")),
}
PRESET_NAMES = tuple(PRESETS)


def expand(base: ExperimentSpec, sweep: Sweep, entry: dict) -> list[tuple]:
    """Turn one sweep into ``(axis value, scalar spec)`` points.

    Each point is ``base`` with ``sweep.axis`` set to the value (with
    ``sweep.relative``, kappa set to the value times the base kappa).
    One weight rule: a base kappa of ``"OPTIMAL"`` is resolved at each
    point and recorded in ``entry["kappa_opt_by_<axis>"]`` keyed by the
    value, except when the values are weights (axis ``kappa``) or
    variants; then it is resolved once, on the base spec, and recorded
    as ``entry["kappa_opt"]``.  The variants clause makes every variant
    of a scalar config run at the first variant's weight.
    """
    axis, values = sweep.axis, sweep.values
    if axis in ("kappa", "variants") and base.kappa == "OPTIMAL":
        base = replace(base, kappa=resolve_kappa(base))
        entry["kappa_opt"] = base.kappa
    if callable(values):
        values = values(base)
    points, optima = [], {}
    for v in values:
        sp = replace(base, **{axis: v * base.kappa if sweep.relative else v})
        if sp.kappa == "OPTIMAL":
            sp = replace(sp, kappa=resolve_kappa(sp))
            optima[f"{v:.17g}"] = sp.kappa
        points.append((v, sp))
    if optima:
        entry[f"kappa_opt_by_{axis}"] = optima
    return points


def _config_sweep(spec: ExperimentSpec) -> Sweep:
    """A config sweeps its one swept parameter into a steady-state file,
    or, when fully scalar, writes one learning curve per variant.  A
    repeated value would repeat a key or a file, so it is refused."""
    swept = [f for f in ("mu", "alpha", "kappa")
             if isinstance(getattr(spec, f), tuple)]
    if len(swept) > 1:
        raise CliError(f"config sweeps one parameter at a time, got "
                       f"sweeps on: {', '.join(swept)}", 1)
    if swept and len(spec.variants) != 1:
        raise CliError("a swept config needs exactly one variant", 1)
    axis = swept[0] if swept else "variants"
    values = getattr(spec, axis)
    for i, v in enumerate(values):
        if v in values[:i]:
            raise CliError(f"config {axis} value {getattr(v, 'value', v)} "
                           "repeats", 1)
    curve = (None if swept else "curve" if len(values) == 1
             else "curve_{.value}")
    return Sweep(axis, values, curve=curve)


# ---------------------------------------------------------------------------
# per-point evaluation
# ---------------------------------------------------------------------------

def _theory(spec: ExperimentSpec, n: np.ndarray | None = None):
    """The closed form at a point: its steady MSD, or with ``n`` its
    learning curve at ``n``; NaN for ZA/RZA, which have none."""
    args = closed_form(spec)
    if args is None:
        return math.nan if n is None else np.full(n.size, math.nan)
    if n is None:
        return theory.l0_steady_msd(*args).d_inf
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

    def sim_steady(self, spec: ExperimentSpec, stem: str,
                   point: str) -> tuple[float, float]:
        """Monte Carlo steady estimate and its 95% CI half-width.  A run
        that has neither diverged nor settled gets a stderr note naming
        the file stem and the point."""
        traj = monte_carlo(spec, workers=self.workers)
        self.diverged |= traj.diverged
        ci = math.nan
        if traj.trials > 1 and not traj.diverged:
            ci = 1.96 * float(np.std(traj.trial_steady, ddof=1)) \
                / math.sqrt(traj.trials)
        if not (traj.diverged or traj.settled):
            print(f"note: {stem}{self.suffix} {point}: steady value has not "
                  f"settled (log10 MSD slope {traj.steady_slope:.2e}/step "
                  f"over the last {traj.steady_window} entries); raise "
                  "iterations", file=sys.stderr)
        return traj.steady_estimate, ci

    def steady_columns(self, stem: str, axis: str, points) -> dict:
        cols = {}
        if self.want_theory:
            cols["msd_theory"] = [_theory(sp) for _, sp in points]
        if self.want_sim:
            sims = [self.sim_steady(sp, stem, f"{axis}={v:g}")
                    for v, sp in points]
            cols["msd_sim"] = [m for m, _ in sims]
            cols["msd_sim_ci"] = [ci for _, ci in sims]
        return cols

    def curve(self, stem: str, spec: ExperimentSpec) -> None:
        n = np.arange(iteration_count(spec) + 1)
        cols = {}
        if self.want_theory:
            cols["msd_theory"] = _theory(spec, n)
        if self.want_sim:
            traj = monte_carlo(spec, workers=self.workers)
            self.diverged |= traj.diverged
            n = n[:traj.msd.size]           # cut at a divergence
            cols = {c: v[:n.size] for c, v in cols.items()}
            cols["msd_sim"] = traj.msd
        self.emit(stem, "n", n, cols)


def _reference_columns(base: ExperimentSpec, points, run: _Run,
                       entry: dict, stem: str) -> dict:
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
                                       kappa=rho, alpha=1.0), stem, "ZALMS")
        cols["msd_sim_za"] = [za] * len(points)
        cols["msd_sim_rza"] = [
            run.sim_steady(replace(sp, variants=(Variant.RZALMS,), kappa=rho),
                           stem, f"alpha={v:g} RZALMS")[0]
            for v, sp in points]
    return cols


def _run_sweep(run: _Run, stem: str, sweep: Sweep, base: ExperimentSpec,
               entry: dict) -> list[tuple]:
    """Expand one sweep at one noise level, write its files and return
    its points.  Every point is checked before the first is evaluated:
    its parameters and, where it is simulated or written as a curve, its
    arrays (whose step count needs a stable mu when the run is untimed)."""
    points = expand(base, sweep, entry)
    rows = ((_CURVE_SERIES if sweep.curve is not None else 0)
            + (base.trials if run.want_sim else 0))
    for _, sp in points:
        _scalar_params(sp)
        if rows:
            require_memory(sp, rows)
    if sweep.curve is not None:
        for v, sp in points:
            run.curve(f"{stem}_{sweep.curve.format(v)}", sp)
        return points
    stem = f"{stem}_{sweep.axis}_sweep"
    cols = run.steady_columns(stem, sweep.axis, points)
    if sweep.reference:
        cols.update(_reference_columns(base, points, run, entry, stem))
    run.emit(stem, sweep.axis, [v for v, _ in points], cols)
    return points


def _low_snr_note(snr: float) -> None:
    if snr < theory.LOW_SNR_DB:
        print(f"note: {snr:g} dB SNR is low; closed forms are approximate "
              "there, expect a visible theory-vs-simulation gap")


def _apply_overrides(spec: ExperimentSpec, seed, trials,
                     scale) -> ExperimentSpec:
    if scale is not None:
        sized = (spec.L * scale, spec.Q * scale, spec.trials * scale)
        if not (scale > 0 and all(map(math.isfinite, sized))):
            raise CliError("--scale must be > 0 and keep L, Q and trials "
                           "finite", 1)
        L = max(1, round(spec.L * scale))
        Q = min(L, round(spec.Q * scale))
        spec = replace(spec, L=L, Q=Q,
                       trials=max(1, round(spec.trials * scale)))
    given = dict(trials=trials, seed=seed)
    return replace(spec, **{k: v for k, v in given.items() if v is not None})


def run_experiment(preset_or_config, out_dir, mode: str = "experiment",
                   seed: int | None = None, trials: int | None = None,
                   scale: float | None = None, workers: int = 1) -> int:
    """Run a preset or config in the given mode; returns the exit code.
    A ``Path`` is always a config file; a string names a preset, or else
    a config file.  A manifest is produced in experiment mode only.  The
    output directory is checked once the run and its overrides have
    validated, and made by the first file written; an experiment
    removes its old manifest right after that check."""
    if isinstance(preset_or_config, str) and preset_or_config in PRESETS:
        preset = name = preset_or_config
        mu, snrs, sweep = PRESETS[name]
        spec = _apply_overrides(
            ExperimentSpec(mu=mu, snr_db=snrs[0], **_PRESET_BASE),
            seed, trials, scale)
        bases = [replace(spec, snr_db=snr) for snr in snrs]
        resolved = {"snrs": list(snrs),
                    "scale": scale if scale is not None else 1.0}
    else:
        preset = None
        spec = _apply_overrides(load_config(preset_or_config), seed, trials,
                                scale)
        name = Path(preset_or_config).stem
        sweep = _config_sweep(spec)
        bases = [spec]
        resolved = {"snrs": [] if spec.Pv is not None else [spec.snr_db]}

    run = _Run(mode, _output_dir(out_dir), workers)
    mpath = run.out / f"{name}_manifest.json"
    if mode == "experiment":        # it would name files this run replaces
        with _write_errors(mpath):
            mpath.unlink(missing_ok=True)
    for base in bases:
        if base.Pv is not None:             # an explicit Pv is the noise
            label = f"Pv{base.Pv:g}"
        else:
            label = f"{base.snr_db:g}dB"
            _low_snr_note(base.snr_db)
        entry = resolved[label] = {"Pv": noise_power(base)}
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

    if mode == "experiment":
        manifest = RunManifest(
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
            preset=preset, spec=spec, resolved=resolved,
            files=tuple(run.files))
        with _write_errors(mpath):
            manifest.save(mpath)
        print(f"wrote {mpath}")
    if run.diverged:
        print("divergence detected in at least one Monte Carlo point",
              file=sys.stderr)
        return 2
    return 0


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
            key = math.nan
        if not math.isfinite(key):
            raise CliError(f"{path}:{line}: {header[0]} value {row[0]!r} "
                           "is not a finite number", 1)
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
    msg = ["grid mismatch:"]
    for pts, other, other_csv in ((pts1, pts2, sim_csv),
                                  (pts2, pts1, theory_csv)):
        if only := [pts[k][0] for k in sorted(set(pts) - set(other))]:
            msg.append(f"  missing from {other_csv}: {', '.join(only[:10])}"
                       + (" ..." if len(only) > 10 else ""))
    if len(msg) > 1:
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
        gp = _output_dir(out_dir or ".") / (
            Path(sim_csv).stem + "_vs_" + Path(theory_csv).stem + "_gaps.csv")
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


# argparse types: a bad value raises ArgumentTypeError, whose message
# argparse prints as is (a ValueError would print the function's name)
def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _tolerance(text: str) -> float:
    try:
        if (value := float(text)) >= 0:     # not NaN
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")


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
    cp.add_argument("--tolerance-db", type=_tolerance, default=1.0,
                    help="max |gap| allowed in dB (default 1.0)")
    cp.add_argument("--out", metavar="DIR",
                    help="directory for the per-point gap CSV when the "
                         "table is too large for stdout")
    cp.set_defaults(mode="compare")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or os.environ.get(ENV_OUTDIR) or "."
    try:
        if args.mode == "compare":
            return compare(args.theory_csv, args.sim_csv,
                           tolerance_db=args.tolerance_db, out_dir=out)
        if args.preset and args.preset not in PRESET_NAMES:
            raise CliError(f"unknown preset {args.preset!r} (expected one "
                           f"of {', '.join(PRESET_NAMES)})", 1)
        target = args.preset if args.preset else Path(args.config)
        return run_experiment(
            target, out, mode=args.mode, seed=args.seed,
            trials=args.trials, scale=args.scale, workers=args.workers)
    except (CliError, theory.ConsistencyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "code", 1)


if __name__ == "__main__":
    sys.exit(main())
