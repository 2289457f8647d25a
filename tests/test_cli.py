"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` the way a shell invocation would:
files land in a tmp directory, exit codes and stdout/stderr are asserted
directly.  Monte Carlo work is kept tiny (short filters, few trials) so
the whole module stays fast.
"""

import csv
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgoParams,
    SignalModel,
    Variant,
    gen_system,
    l0_steady_msd,
    strengths,
)
from sparselms import cli
from sparselms.cli import CliError, RunManifest, load_config, main
from sparselms.simulate import ExperimentSpec, noise_power, resolve_kappa


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([[str(c) for c in r] for r in rows])


def write_config(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


TINY = dict(L=24, Q=3, mu=2e-3, alpha=10.0, snr_db=40.0,
            trials=2, iterations=300, seed=3, variants=["L0LMS"])


# ---------------------------------------------------------------------------
# presets, theory mode
# ---------------------------------------------------------------------------

def test_theory_preset_exp1_small_scale(tmp_path, capsys):
    rc = main(["theory", "--preset", "exp1", "--out", str(tmp_path),
               "--scale", "0.02"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kappa_opt(40dB)" in out
    assert "dB SNR is low" in out          # the 20 dB leg warns

    f40 = tmp_path / "exp1_40dB_kappa_sweep_theory.csv"
    f20 = tmp_path / "exp1_20dB_kappa_sweep_theory.csv"
    assert f40.exists() and f20.exists()

    header, rows = read_csv(f40)
    assert header == ["kappa", "msd_theory", "msd_theory_db"]
    assert len(rows) == 26                  # 25-point grid + kappa_opt
    kappas = [float(r[0]) for r in rows]
    assert kappas == sorted(kappas)

    # the scaled spec the runner used: L,Q,trials multiplied by 0.02
    spec = ExperimentSpec(snr_db=40.0, L=20, Q=2, mu=8e-4, alpha=10.0,
                          trials=2, iterations=30000, seed=1,
                          variants=(Variant.L0LMS,))
    ko = resolve_kappa(
        ExperimentSpec(**{**spec.__dict__, "kappa": "OPTIMAL",
                          "variants": spec.variants}))
    assert any(k == ko for k in kappas)

    sig = SignalModel(Px=1.0, Pv=noise_power(spec))
    st = strengths(10.0, Q=2)
    for r in rows[::7]:
        k = float(r[0])
        rep = l0_steady_msd((20, 2, st),
                            AlgoParams(variant=Variant.L0LMS, mu=8e-4,
                                       kappa=k, alpha=10.0), sig)
        assert float(r[1]) == pytest.approx(rep.d_inf, rel=1e-15)
        assert float(r[2]) == pytest.approx(10 * math.log10(rep.d_inf),
                                            abs=5.1e-5)


def test_theory_preset_exp2_emits_za_columns(tmp_path):
    rc = main(["theory", "--preset", "exp2", "--out", str(tmp_path),
               "--scale", "0.02"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exp2_40dB_alpha_sweep_theory.csv")
    assert header == ["alpha", "msd_theory", "msd_theory_za",
                      "msd_theory_db", "msd_theory_za_db"]
    assert len(rows) == 11                  # half-decade alpha ladder
    za = {r[2] for r in rows}
    assert len(za) == 1                     # ZA column ignores alpha
    assert float(za.pop()) > 0


def test_theory_preset_exp3_q_column_is_integer(tmp_path):
    rc = main(["theory", "--preset", "exp3", "--out", str(tmp_path),
               "--scale", "0.02"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exp3_40dB_Q_sweep_theory.csv")
    assert header == ["Q", "msd_theory", "msd_theory_db"]
    qs = [r[0] for r in rows]
    assert all(re.fullmatch(r"\d+", q) for q in qs)
    # sparsity fractions of L=20, deduplicated and sorted
    assert [int(q) for q in qs] == [1, 2, 4, 6, 10, 14, 20]


def test_theory_preset_exp4_curve_files(tmp_path):
    rc = main(["theory", "--preset", "exp4", "--out", str(tmp_path),
               "--scale", "0.02"])
    assert rc == 0
    names = [f"exp4_{snr}_curve_kx{m}_theory.csv"
             for snr in ("40dB", "20dB") for m in ("0.1", "1", "10")]
    for name in names:
        p = tmp_path / name
        assert p.exists(), name
        with open(p) as f:
            n_lines = sum(1 for _ in f)
        assert n_lines == 30002             # header + n = 0..30000
    header, _ = read_csv(tmp_path / names[0])
    assert header == ["n", "msd_theory", "msd_theory_db"]


def test_theory_preset_exp5_curve_files(tmp_path):
    rc = main(["theory", "--preset", "exp5", "--out", str(tmp_path),
               "--scale", "0.02"])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "exp5_40dB_curve_mu0.0002_theory.csv",
        "exp5_40dB_curve_mu0.0004_theory.csv"]
    for p in tmp_path.iterdir():
        header, rows = read_csv(p)
        assert header == ["n", "msd_theory", "msd_theory_db"]
        assert len(rows) == 30001           # n = 0..30000


@pytest.mark.slow
def test_simulate_preset_exp2_reference_columns(tmp_path):
    rc = main(["simulate", "--preset", "exp2", "--out", str(tmp_path),
               "--scale", "0.02", "--trials", "1"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exp2_40dB_alpha_sweep_sim.csv")
    assert header == ["alpha", "msd_sim", "msd_sim_ci", "msd_sim_za",
                      "msd_sim_rza", "msd_sim_db", "msd_sim_za_db",
                      "msd_sim_rza_db"]
    assert len(rows) == 11
    for r in rows:
        values = [float(r[header.index(c)]) for c in header
                  if c != "msd_sim_ci"]        # one trial: no CI
        assert all(math.isfinite(v) for v in values), r
    assert len({r[header.index("msd_sim_za")] for r in rows}) == 1


# ---------------------------------------------------------------------------
# config runs
# ---------------------------------------------------------------------------

def test_experiment_config_curve_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path / "tiny.json", **{**TINY, "kappa": "OPTIMAL"})
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "steady theory:" in out
    assert "wrote" in out

    header, rows = read_csv(tmp_path / "tiny_40dB_curve.csv")
    assert header == ["n", "msd_theory", "msd_sim",
                      "msd_theory_db", "msd_sim_db"]
    assert len(rows) == TINY["iterations"] + 1
    assert rows[0][0] == "0"                        # ints stay ints
    # theory curve starts at the expected system energy Q * sigma_s^2
    assert float(rows[0][1]) == pytest.approx(3.0, rel=1e-12)
    assert float(rows[0][3]) == pytest.approx(10 * math.log10(3.0),
                                              abs=5.1e-5)
    # linear columns are full-precision round-trips
    assert rows[5][1] == f"{float(rows[5][1]):.17g}"

    m = RunManifest.load(tmp_path / "tiny_manifest.json")
    assert m.preset is None
    assert m.files == ("tiny_40dB_curve.csv",)
    assert m.spec.L == 24 and m.spec.kappa == "OPTIMAL"
    res = m.resolved["40dB"]
    assert res["snr_convention"] == "OUTPUT_REFERRED"
    assert res["Pv"] == pytest.approx(3e-4, rel=1e-12)  # Q sigma^2 / 10^4
    for key in ("kappa_opt", "d_inf", "d_lms", "kappa_opt_theory",
                "d_min", "omega"):
        assert key in res, key
    # lossless JSON round trip
    assert RunManifest.from_json(m.to_json()) == m

    # with sigma_s = 2 the theory curve starts at Q * sigma_s^2 = 12
    cfg = write_config(tmp_path / "tiny2.json",
                       **{**TINY, "kappa": "OPTIMAL", "sigma_s": 2.0})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "tiny2_40dB_curve.csv")
    assert float(rows[0][1]) == pytest.approx(12.0, rel=1e-12)


def test_fixed_mode_theory_describes_the_drawn_system(tmp_path):
    """A fixed-system run is described by trial 0's system: the theory
    curve starts at that system's energy, where the simulation starts,
    and "OPTIMAL" is that system's optimum.  The noise power stays the
    one the simulation uses (the ensemble reference)."""
    fixed = dict(L=24, Q=3, mu=2e-3, alpha=10.0, kappa=1e-5, snr_db=40.0,
                 trials=20, iterations=3000, seed=3, system_mode="fixed")
    cfg = write_config(tmp_path / "fixed.json", **fixed)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fixed_40dB_curve.csv")
    assert header[:3] == ["n", "msd_theory", "msd_sim"]
    system = gen_system(24, 3, seed=3)
    assert system.norm_sq == pytest.approx(1.617, abs=1e-3)   # not Q = 3
    assert float(rows[0][1]) == pytest.approx(system.norm_sq, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(system.norm_sq, rel=1e-12)
    spec = ExperimentSpec(**fixed)
    m = RunManifest.load(tmp_path / "fixed_manifest.json")
    assert m.resolved["40dB"]["Pv"] == noise_power(spec) \
        == pytest.approx(3e-4, rel=1e-12)

    sig = SignalModel(Px=1.0, Pv=noise_power(spec))
    own = l0_steady_msd(system, AlgoParams(variant=Variant.L0LMS, mu=2e-3,
                                           alpha=10.0), sig)
    optimal = ExperimentSpec(**{**fixed, "kappa": "OPTIMAL"})
    assert resolve_kappa(optimal) == own.kappa_opt


def test_simulate_config_writes_only_sim_files(tmp_path):
    cfg = write_config(tmp_path / "tinysim.json", **TINY, kappa=2e-5)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "tinysim_40dB_curve_sim.csv")
    assert header == ["n", "msd_sim", "msd_sim_db"]
    assert len(rows) == TINY["iterations"] + 1
    assert float(rows[0][1]) > 0
    assert not (tmp_path / "tinysim_manifest.json").exists()
    assert not list(tmp_path.glob("*_theory*"))


def test_config_sweep_with_explicit_noise_label(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", L=24, Q=3, mu=2e-3,
                       alpha=10.0, kappa=[1e-7, 1e-6, 1e-5], Pv=1e-4,
                       trials=2, iterations=100, variants=["L0LMS"])
    out = tmp_path / "a" / "b"              # nested dirs get created
    rc = main(["theory", "--config", cfg, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "cfg_Pv0.0001_kappa_sweep_theory.csv")
    assert header == ["kappa", "msd_theory", "msd_theory_db"]
    assert [float(r[0]) for r in rows] == [1e-7, 1e-6, 1e-5]
    st = strengths(10.0, Q=3)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    for r in rows:
        rep = l0_steady_msd((24, 3, st),
                            AlgoParams(variant=Variant.L0LMS, mu=2e-3,
                                       kappa=float(r[0]), alpha=10.0), sig)
        assert float(r[1]) == pytest.approx(rep.d_inf, rel=1e-15)


@pytest.mark.parametrize("variant", ["LMS", "ZALMS"])
def test_config_sweep_theory_column_follows_variant(tmp_path, variant):
    cfg = write_config(tmp_path / "var.json", L=24, Q=3, mu=2e-3,
                       alpha=10.0, kappa=[1e-7, 1e-5, 1e-4], snr_db=40.0,
                       trials=2, iterations=100, variants=[variant])
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "var_40dB_kappa_sweep_theory.csv")
    assert header == ["kappa", "msd_theory", "msd_theory_db"]
    assert [float(r[0]) for r in rows] == [1e-7, 1e-5, 1e-4]
    if variant == "ZALMS":                  # no closed form for ZA
        assert all(r[1:] == ["nan", "nan"] for r in rows)
        return
    sig = SignalModel(Px=1.0, Pv=noise_power(
        ExperimentSpec(L=24, Q=3, mu=2e-3, snr_db=40.0)))
    lms = l0_steady_msd((24, 3, strengths(10.0, Q=3)),
                        AlgoParams(variant=Variant.L0LMS, mu=2e-3,
                                   kappa=0.0, alpha=10.0), sig)
    assert all(float(r[1]) == lms.d_inf for r in rows)


def test_config_optimal_sweep_records_each_kappa(tmp_path):
    cfg = write_config(tmp_path / "mus.json", **{**TINY, "mu": [1e-3, 2e-3],
                                                 "kappa": "OPTIMAL"})
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    m = RunManifest.load(tmp_path / "mus_manifest.json")
    optima = m.resolved["40dB"]["kappa_opt_by_mu"]
    assert list(optima) == ["0.001", "0.002"]
    for mu, ko in optima.items():
        spec = ExperimentSpec(**{**TINY, "mu": float(mu),
                                 "kappa": "OPTIMAL"})
        assert ko == resolve_kappa(spec)


def test_simulate_config_sweep_header(tmp_path):
    cfg = write_config(tmp_path / "swp.json", L=16, Q=2, mu=5e-3,
                       alpha=10.0, kappa=[0.0, 1e-6], snr_db=40.0,
                       trials=2, iterations=400, variants=["L0LMS"])
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "swp_40dB_kappa_sweep_sim.csv")
    assert header == ["kappa", "msd_sim", "msd_sim_ci", "msd_sim_db"]
    assert len(rows) == 2
    assert all(float(r[1]) > 0 for r in rows)
    assert all(math.isfinite(float(r[2])) for r in rows)


def test_overrides_scale_trials_seed_convention(tmp_path):
    cfg = write_config(tmp_path / "ovr.json", L=100, Q=10, mu=2e-3,
                       alpha=10.0, kappa=0.0, snr_db=40.0, trials=10,
                       iterations=120, seed=1, variants=["LMS"])
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path),
               "--scale", "0.2", "--trials", "3", "--seed", "7",
               "--snr-convention", "INPUT_REFERRED"])
    assert rc == 0
    m = RunManifest.load(tmp_path / "ovr_manifest.json")
    assert (m.spec.L, m.spec.Q) == (20, 2)
    assert m.spec.trials == 3               # explicit --trials wins
    assert m.spec.seed == 7
    assert m.spec.snr_convention.value == "INPUT_REFERRED"
    assert m.resolved["40dB"]["Pv"] == pytest.approx(1e-4, rel=1e-12)


def test_outdir_env_var_and_flag_priority(tmp_path, monkeypatch):
    envdir = tmp_path / "envout"
    monkeypatch.setenv("SPARSELMS_OUTDIR", str(envdir))
    cfg = write_config(tmp_path / "envy.json", **TINY, kappa=0.0)
    assert main(["theory", "--config", cfg]) == 0
    assert (envdir / "envy_40dB_curve_theory.csv").exists()

    flagdir = tmp_path / "flagout"
    assert main(["theory", "--config", cfg, "--out", str(flagdir)]) == 0
    assert (flagdir / "envy_40dB_curve_theory.csv").exists()
    assert not (envdir / "flagout").exists()


def test_divergent_simulation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "blow.json", L=16, Q=2, mu=0.5,
                       alpha=1.0, kappa=0.0, snr_db=40.0, trials=1,
                       iterations=2000, seed=1, variants=["LMS"])
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "divergence detected" in capsys.readouterr().err
    header, rows = read_csv(tmp_path / "blow_40dB_curve_sim.csv")
    assert len(rows) < 2001                 # truncated at the blow-up
    assert float(rows[-1][1]) > 1e3


# ---------------------------------------------------------------------------
# validation failures -> exit 1
# ---------------------------------------------------------------------------

def test_unknown_preset_exits_1(tmp_path, capsys):
    rc = main(["theory", "--preset", "exp9", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown preset 'exp9'" in capsys.readouterr().err


def test_preset_and_config_are_mutually_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["theory", "--preset", "exp1", "--config", "x.json"])
    assert ei.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_scale_must_be_positive(tmp_path, capsys):
    rc = main(["theory", "--preset", "exp1", "--out", str(tmp_path),
               "--scale", "0"])
    assert rc == 1
    assert "--scale must be > 0" in capsys.readouterr().err


def test_config_with_two_swept_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path / "two.json", L=16, Q=2,
                       mu=[1e-3, 2e-3], kappa=[1e-6, 1e-5],
                       snr_db=40.0, trials=1, iterations=50)
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "one parameter at a time" in err and "mu, kappa" in err


def test_swept_config_needs_one_variant(tmp_path, capsys):
    cfg = write_config(tmp_path / "mv.json", L=16, Q=2, mu=1e-3,
                       kappa=[1e-6, 1e-5], snr_db=40.0, trials=1,
                       iterations=50, variants=["LMS", "L0LMS"])
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "exactly one variant" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_exit_1(tmp_path, capsys, workers):
    cfg = write_config(tmp_path / "w.json", **TINY, kappa=0.0)
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--config", cfg, "--out", str(tmp_path),
              "--workers", workers])
    assert ei.value.code == 1
    assert "--workers: must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_file_errors(tmp_path, capsys):
    rc = main(["theory", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "L": 8,,\n}')
    rc = main(["theory", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad.json:2:" in err and "invalid JSON" in err

    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    rc = main(["theory", "--config", str(lst), "--out", str(tmp_path)])
    assert rc == 1
    assert "must be an object" in capsys.readouterr().err

    unk = tmp_path / "unk.json"
    unk.write_text('{"L": 8, "Q": 2, "mu": 1e-3, "bogus": 1}')
    rc = main(["theory", "--config", str(unk), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config keys: bogus" in err and "known keys:" in err

    inv = tmp_path / "inv.json"
    inv.write_text('{"L": 8, "Q": 20, "mu": 1e-3, "snr_db": 40}')
    rc = main(["theory", "--config", str(inv), "--out", str(tmp_path)])
    assert rc == 1
    assert "Q <= L" in capsys.readouterr().err

    model = tmp_path / "model.json"
    model.write_text('{"L": 8, "Q": 2, "mu": 1e-3, "snr_db": 40, '
                     '"input_model": "markov"}')
    rc = main(["simulate", "--config", str(model), "--out", str(tmp_path)])
    assert rc == 1
    assert "bad input_model: 'markov'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))

    for key, value, msg in (("trials", "1.5", "trials must be an integer"),
                            ("iterations", "10.5",
                             "iterations must be an integer"),
                            ("seed", "1.5", "seed must be an integer"),
                            ("L", "8.5", "L must be an integer"),
                            ("Pv", "-1e-3", "Pv must be >= 0"),
                            ("Px", "-1", "Px must be > 0"),
                            ("Px", "0", "Px must be > 0"),
                            ("sigma_s", "-1", "sigma_s must be > 0"),
                            ("snr_db", "NaN", "snr_db must be a finite"),
                            ("kappa", "NaN", "kappa must be a finite"),
                            ("kappa", "Infinity", "kappa must be a finite"),
                            ("mu", "true", "mu must be a finite"),
                            ("alpha", "true", "alpha must be a finite"),
                            ("kappa", "[true, 1e-3]", "kappa sweep must be"),
                            ("mu", "[1e-3, NaN]", "mu sweep must be")):
        # raw JSON values, so that NaN reaches the spec
        raw = {"L": "8", "Q": "2", "mu": "1e-3", "snr_db": "40",
               "trials": "1", "iterations": "10", key: value}
        (tmp_path / "scalar.json").write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in raw.items()) + "}")
        rc = main(["simulate", "--config", str(tmp_path / "scalar.json"),
                   "--out", str(tmp_path)])
        assert rc == 1, key
        assert msg in capsys.readouterr().err
    zero = tmp_path / "zero.json"
    zero.write_text('{"L": 0, "Q": 0, "mu": 1e-3, "Pv": 1e-3}')
    rc = main(["simulate", "--config", str(zero), "--out", str(tmp_path)])
    assert rc == 1
    assert "L must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_load_config_returns_spec(tmp_path):
    cfg = write_config(tmp_path / "ok.json", **TINY, kappa=1e-6)
    spec = load_config(cfg)
    assert isinstance(spec, ExperimentSpec)
    assert spec.variants == (Variant.L0LMS,)
    assert spec.kappa == 1e-6


@pytest.mark.parametrize("mode", ["simulate", "theory"])
@pytest.mark.parametrize("fields", [
    dict(iterations=1e13),                       # a curve longer than memory
    dict(trials=1e15),                           # more trials than memory
    dict(trials=1e15, kappa=[0.0, 1e-6])],       # ... at each sweep point
    ids=["long_curve", "many_trials", "many_trials_sweep"])
def test_runs_that_cannot_fit_exit_1(tmp_path, capsys, mode, fields):
    """A run whose arrays exceed physical memory is refused up front,
    before any array is allocated or any system drawn.  Theory mode
    draws no trials, so only the long curve is refused there."""
    cfg = write_config(tmp_path / "huge.json", **{**TINY, "kappa": 0.0,
                                                  **fields})
    t0 = time.perf_counter()
    rc = main([mode, "--config", cfg, "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    if mode == "theory" and "iterations" not in fields:
        assert rc == 0
        return
    assert rc == 1
    assert err.startswith("error: ") and "GiB" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_config_defects_exit_1(tmp_path, capsys):
    """An empty variant list and a noise power that overflows a float
    are validation errors, not an empty run or a traceback."""
    cfg = write_config(tmp_path / "none.json", **{**TINY, "variants": []})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "variants must name at least one variant" in capsys.readouterr().err
    cfg = write_config(tmp_path / "loud.json", **{**TINY, "kappa": 0.0,
                                                  "sigma_s": 1e200})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest*"))


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_COUNTS = st.one_of(st.integers(-2, 40), st.integers(2**62, 2**66),
                    st.floats(1e12, 1e300), st.just(10**400), _FLOATS)
_POWERS = st.one_of(_FLOATS, st.sampled_from([1e-300, 1e-160, 1e200, 1e308]),
                    st.integers(10**300, 10**310))
_SWEEPABLE = st.one_of(_FLOATS, st.lists(_FLOATS, max_size=3), st.booleans(),
                       st.just("OPTIMAL"), st.just(10**400))
_NAMES = st.sampled_from(["LMS", "L0LMS", "ZALMS", "RZALMS", "lms", "", "X"])


@given(fuzz=st.fixed_dictionaries({}, optional={
    "L": _COUNTS, "Q": _COUNTS, "mu": _SWEEPABLE, "alpha": _SWEEPABLE,
    "kappa": _SWEEPABLE, "snr_db": st.one_of(_FLOATS,
                                             st.integers(-10**4, 10**4)),
    "Pv": st.one_of(_POWERS, st.none()), "Px": _POWERS, "sigma_s": _POWERS,
    "trials": _COUNTS, "iterations": st.one_of(_COUNTS, st.none()),
    "seed": st.integers(-1, 2**66),
    "variants": st.one_of(st.lists(_NAMES, max_size=3), _NAMES,
                          st.sampled_from([3, None, {}])),
    "snr_convention": st.sampled_from(["INPUT_REFERRED", "OUTPUT_REFERRED",
                                       "x"]),
    "system_mode": st.sampled_from(["redraw", "fixed", "x"]),
    "input_model": st.sampled_from(["iid", "delay_line", "x"])}))
@settings(max_examples=300, deadline=None)
def test_config_ingestion_fuzz(tmp_path_factory, fuzz):
    """Any JSON config, here a valid one with some fields replaced,
    either loads as a spec or is a validation error (exit code 1); an
    accepted spec's noise power is finite and >= 0 or a ValueError."""
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_text(json.dumps({**TINY, **fuzz}))
    try:
        spec = load_config(path)
    except CliError as e:
        assert e.code == 1
        return
    assert isinstance(spec, ExperimentSpec)
    try:
        pv = noise_power(spec)
    except ValueError:
        return
    assert math.isfinite(pv) and pv >= 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def grid_files(tmp_path, factor=1.0, n=4, nan_at=None):
    ks = [1e-7 * 10 ** i for i in range(n)]
    a = [(k, 1e-3 * (1 + i)) for i, k in enumerate(ks)]
    b = [(k, v * factor) for (k, v) in a]
    if nan_at is not None:
        b[nan_at] = (b[nan_at][0], math.nan)
    p1 = tmp_path / "ref.csv"
    p2 = tmp_path / "val.csv"
    write_csv(p1, ["kappa", "msd_theory", "msd_theory_db"],
              [[k, v, 10 * math.log10(v)] for k, v in a])
    write_csv(p2, ["kappa", "msd_sim", "msd_sim_db"],
              [[k, v, ""] for k, v in b])
    return str(p1), str(p2)


def test_compare_identical_grids_pass(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path)
    rc = main(["compare", p1, p2])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max |gap| = 0.0000 dB" in out and "PASS" in out
    assert "msd_sim" in out and "msd_theory" in out


def test_compare_doubled_values_fail_then_pass(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path, factor=2.0)
    rc = main(["compare", p1, p2])
    assert rc == 3
    out = capsys.readouterr().out
    assert "max |gap| = 3.0103 dB" in out and "FAIL" in out

    rc = main(["compare", p1, p2, "--tolerance-db", "4"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_grid_mismatch(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    rows[1][0] = "0.5"                      # move one grid point
    write_csv(tmp_path / "val.csv", header, rows)
    rc = main(["compare", p1, p2])
    assert rc == 1
    err = capsys.readouterr().err
    assert "grid mismatch" in err
    assert "missing from" in err and "0.5" in err


def test_compare_matches_keys_by_value(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    rows[0][0] = "1.0e-7"                   # same grid point, other text
    write_csv(tmp_path / "val.csv", header, rows)
    rc = main(["compare", p1, p2])
    assert rc == 0
    assert "max |gap| = 0.0000 dB" in capsys.readouterr().out


@pytest.mark.parametrize("damage, message", [
    ("short", "fields, the header has 3"),
    ("blank", "fields, the header has 3"),
    ("repeat", "kappa value '1.0e-7' repeats '1e-07'"),
    ("empty", "val.csv: no data rows"),
])
def test_compare_rejects_malformed_rows(tmp_path, capsys, damage, message):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    if damage == "short":
        rows[1] = rows[1][:1]
    if damage == "repeat":
        rows.append(["1.0e-7"] + rows[0][1:])
    if damage == "empty":
        rows = []
    with open(p2, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for i, r in enumerate(rows):
            f.write(",".join(r) + "\n")
            if damage == "blank" and i == 1:
                f.write("\n")
    rc = main(["compare", p1, p2])
    assert rc == 1
    err = capsys.readouterr().err
    assert "val.csv:" in err and message in err


def test_compare_key_column_mismatch(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    write_csv(tmp_path / "val.csv", ["alpha"] + header[1:], rows)
    rc = main(["compare", p1, p2])
    assert rc == 1
    assert "key columns differ" in capsys.readouterr().err


def test_compare_nan_reports_divergence(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path, nan_at=2)
    rc = main(["compare", p1, p2])
    assert rc == 2
    assert "1 point(s) with NaN" in capsys.readouterr().err


def test_compare_rejects_nonpositive(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path, factor=0.0)
    rc = main(["compare", p1, p2])
    assert rc == 1
    assert "non-positive MSD" in capsys.readouterr().err


def test_compare_missing_value_column(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    write_csv(tmp_path / "val.csv", ["kappa", "foo"],
              [r[:2] for r in rows])
    rc = main(["compare", p1, p2])
    assert rc == 1
    assert "no usable MSD column" in capsys.readouterr().err


def test_compare_large_table_goes_to_csv(tmp_path, capsys):
    p1, p2 = grid_files(tmp_path, factor=1.0, n=201)
    rc = main(["compare", p1, p2, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-point table written to" in out
    header, rows = read_csv(tmp_path / "val_vs_ref_gaps.csv")
    assert header == ["kappa", "msd_reference", "msd_value", "gap_db"]
    assert len(rows) == 201
    assert all(float(r[3]) == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# odds and ends
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert re.match(r"sparselms \d+\.\d+\.\d+", capsys.readouterr().out)


def test_db_column_formatting(tmp_path):
    cfg = write_config(tmp_path / "fmt.json", **TINY, kappa=0.0)
    assert main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "fmt_40dB_curve_theory.csv")
    assert all(re.fullmatch(r"-?\d+\.\d{4}", r[2]) for r in rows[:50])


def test_writes_replace_files_whole(tmp_path, monkeypatch):
    """CSVs and manifests are written to a temporary file and renamed over
    the target: a write that fails part-way leaves the previous file
    byte-identical and no temporary file behind."""
    path = tmp_path / "a.csv"
    cli._write_csv(path, ["n", "msd"], [[0, 1], [1.0, 0.5]])
    before = path.read_bytes()
    real_writer = csv.writer

    class Torn:                 # the header goes out, then a row half-way
        def __init__(self, f):
            self.f, self.w = f, real_writer(f)

        def writerow(self, row):
            self.w.writerow(row)

        def writerows(self, rows):
            self.f.write("0,0.")
            raise OSError("disk full")

    with monkeypatch.context() as mp:
        mp.setattr(csv, "writer", Torn)
        with pytest.raises(cli.CliError, match="disk full"):
            cli._write_csv(path, ["n", "msd"], [[0, 1, 2], [2.0, 1.0, 0.5]])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    manifest = RunManifest(version="0", timestamp="", preset=None,
                           spec=ExperimentSpec(**TINY), resolved={},
                           files=("a.csv",))
    mpath = tmp_path / "m.json"
    manifest.save(mpath)
    before = mpath.read_bytes()

    def fail(src, dst):
        raise OSError("rename refused")

    with monkeypatch.context() as mp:
        mp.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            RunManifest(**{**vars(manifest), "files": ()}).save(mpath)
    assert mpath.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "m.json"]
