"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` the way a shell invocation would:
files land in a tmp directory, exit codes and stdout/stderr are asserted
directly.  Monte Carlo work is kept tiny (short filters, few trials) so
the whole module stays fast.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgoParams,
    SignalModel,
    Variant,
    gen_system,
    l0_steady_msd,
    strengths,
)
from sparselms import cli, simulate
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
    energy = float(system @ system)
    assert energy == pytest.approx(1.617, abs=1e-3)   # not Q = 3
    assert float(rows[0][1]) == pytest.approx(energy, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(energy, rel=1e-12)
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


def test_explicit_noise_power_labels_the_run(tmp_path, capsys):
    """With both snr_db and Pv the run uses Pv, so the label, the low-SNR
    note and the recorded SNRs follow Pv, not snr_db."""
    cfg = write_config(tmp_path / "both.json",
                       **{**TINY, "snr_db": 10.0, "Pv": 1e-6})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "SNR is low" not in capsys.readouterr().out
    m = RunManifest.load(tmp_path / "both_manifest.json")
    assert m.files == ("both_Pv1e-06_curve.csv",)
    assert m.resolved["snrs"] == []
    assert m.resolved["Pv1e-06"]["Pv"] == 1e-6


def test_snr_convention_key_is_refused(tmp_path, capsys):
    """An SNR is always taken against Q*sigma_s^2; a config that names
    a convention is refused as an unknown key."""
    cfg = write_config(tmp_path / "conv.json",
                       **{**TINY, "snr_convention": "INPUT_REFERRED"})
    assert main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: unknown config keys: "
                          "snr_convention (known keys: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "conv.json"]


# sha256 of the curve files of an input-referred 40 dB config (Pv =
# Px*1e-4), written before the SNR convention was removed: an explicit
# Pv of 1e-4 now says the same
INPUT_REFERRED_GOLDEN = {
    "L0LMS":
        "410d13002b4d82fe5558e7ce70ad08e7dfc7139b884efdd13a2f77ec7eb348e9",
    "RZALMS":
        "1e118a94fc6f3b150b5d714431ab91c5013c36695825a2a3878e77fdd99778f1",
}


def test_explicit_pv_reproduces_input_referred_columns(tmp_path):
    """Pv = 1e-4 writes, byte for byte, the curves an input-referred
    40 dB SNR wrote; the manifest records that noise power alone."""
    cfg = write_config(tmp_path / "pv.json", L=16, Q=2, mu=5e-3, alpha=10.0,
                       kappa="OPTIMAL", Pv=1e-4, trials=2, iterations=400,
                       seed=1, variants=["L0LMS", "RZALMS"])
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    got = {v: hashlib.sha256((out / f"pv_Pv0.0001_curve_{v}.csv")
                             .read_bytes()).hexdigest()
           for v in INPUT_REFERRED_GOLDEN}
    assert got == INPUT_REFERRED_GOLDEN
    manifest = json.loads((out / "pv_manifest.json").read_text())
    assert "snr_convention" not in manifest["spec"]
    assert set(manifest["resolved"]["Pv0.0001"]) == {
        "Pv", "kappa_opt", "d_inf", "d_lms", "kappa_opt_theory", "d_min",
        "omega"}


def test_za_optimal_at_tiny_mu_runs(tmp_path):
    """ZA/RZA "OPTIMAL" reads rho_opt without the ZA closed form, so an
    all-zero system at a mu where that form underflows runs at weight 0
    and writes its NaN theory column."""
    cfg = write_config(tmp_path / "rza.json", L=15, Q=0, mu=2.3e-113,
                       Pv=1e-4, kappa="OPTIMAL", variants=["RZALMS"],
                       iterations=10)
    assert main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "rza_Pv0.0001_curve_theory.csv")
    assert header == ["n", "msd_theory", "msd_theory_db"]
    assert len(rows) == 11
    assert all(r[1:] == ["nan", "nan"] for r in rows)


def test_l0_optimal_at_tiny_noise_power_is_a_range_refusal(tmp_path, capsys):
    """At Pv = 1e-300 the power balance's mu^2*Px*Pv underflows, so the
    optimum is refused by the float-range rule, at "OPTIMAL"."""
    cfg = write_config(tmp_path / "pv.json", L=16, Q=2, mu=1e-6, alpha=10.0,
                       Pv=1e-300, kappa="OPTIMAL")
    assert main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: resolve_kappa leaves the float range at mu=1e-06, "
        "alpha=10.0, kappa=OPTIMAL\n")


# an untimed point whose default run (ten LMS time constants, 43.4 dB of
# decay) stops short of the floor it starts 49.5-56.6 dB above
UNSETTLED = dict(L=250, Q=25, mu=8e-4, alpha=10.0, snr_db=40.0, trials=5,
                 seed=1, kappa=[0.0, 1.811e-7], variants=["L0LMS"])
# sha256 of its sweep file, as written before the note existed
UNSETTLED_GOLDEN = \
    "a1e4d9e7b85cc684405966beead26ffcfb5e64ff102dbab4eaf529c58000ff4f"


def test_unsettled_steady_points_get_a_note(tmp_path, capsys):
    """Each steady point whose final third still falls gets one stderr
    note; the file and the exit code are those of a run without it.
    Given enough iterations, the same sweep settles and prints none."""
    cfg = write_config(tmp_path / "untimed.json", **UNSETTLED)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 0
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == 2
    for note, point in zip(notes, ("kappa=0", "kappa=1.811e-07")):
        assert re.fullmatch(
            rf"note: untimed_40dB_kappa_sweep {point}: steady value has not "
            r"settled \(log10 MSD slope -[67]\.\d\de-04/step over the "
            r"last 2317 entries\); raise iterations", note), note
    csv_bytes = (tmp_path / "untimed_40dB_kappa_sweep.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == UNSETTLED_GOLDEN

    cfg = write_config(tmp_path / "timed.json", **UNSETTLED,
                       iterations=30000)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


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


def test_preset_manifest_records_its_kappa_rule(tmp_path):
    """A preset resolves kappa per point from its base's "OPTIMAL", and
    the manifest's spec records that rule, not a weight no point ran."""
    rc = main(["experiment", "--preset", "exp5", "--scale", "0.02",
               "--trials", "1", "--out", str(tmp_path)])
    assert rc == 0
    m = RunManifest.load(tmp_path / "exp5_manifest.json")
    assert m.spec.kappa == "OPTIMAL"
    assert m.resolved["40dB"]["kappa_opt_by_mu"] == {
        "0.00020000000000000001": pytest.approx(6.337527244178094e-09,
                                                rel=1e-12),
        "0.00040000000000000002": pytest.approx(1.7926272995590772e-08,
                                                rel=1e-12)}


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


def test_overrides_scale_trials_seed_convention(tmp_path, capsys):
    """--scale, --trials and --seed override the config; the SNR has one
    convention (against Q*sigma_s^2 of the scaled Q), so there is no
    flag to choose another."""
    cfg = write_config(tmp_path / "ovr.json", L=100, Q=10, mu=2e-3,
                       alpha=10.0, kappa=0.0, snr_db=40.0, trials=10,
                       iterations=120, seed=1, variants=["LMS"])
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path),
               "--scale", "0.2", "--trials", "3", "--seed", "7"])
    assert rc == 0
    m = RunManifest.load(tmp_path / "ovr_manifest.json")
    assert (m.spec.L, m.spec.Q) == (20, 2)
    assert m.spec.trials == 3               # explicit --trials wins
    assert m.spec.seed == 7
    assert m.resolved["40dB"]["Pv"] == pytest.approx(2e-4, rel=1e-12)
    with pytest.raises(SystemExit) as ei:
        main(["theory", "--config", cfg, "--snr-convention",
              "INPUT_REFERRED"])
    assert ei.value.code == 1
    assert "unrecognized arguments: --snr-convention" in \
        capsys.readouterr().err


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


def test_divergent_sweep_point_writes_nan(tmp_path, capsys):
    """A mu sweep whose second point diverges keeps the first point's
    estimate, writes NaN for the second's estimate and CI, and exits 2."""
    cfg = write_config(tmp_path / "blow.json", L=16, Q=2, mu=[2e-3, 0.5],
                       alpha=1.0, kappa=0.0, snr_db=40.0, trials=2,
                       iterations=2000, seed=1, variants=["LMS"])
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "divergence detected" in capsys.readouterr().err
    header, rows = read_csv(tmp_path / "blow_40dB_mu_sweep_sim.csv")
    assert header == ["mu", "msd_sim", "msd_sim_ci", "msd_sim_db"]
    assert all(math.isfinite(float(c)) for c in rows[0][1:])
    assert rows[1][1:] == ["nan", "nan", "nan"]


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


@pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan", "1e306"])
def test_scale_must_be_positive(tmp_path, capsys, scale):
    rc = main(["theory", "--preset", "exp1", "--out", str(tmp_path),
               "--scale", scale])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--scale must be > 0" in err and "Traceback" not in err


def test_config_named_like_a_preset_runs_the_config(tmp_path, monkeypatch,
                                                     capsys):
    """--config exp1 reads the file ./exp1, not the preset of that name."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "exp1", **{**TINY, "kappa": 1e-5})
    assert main(["theory", "--config", "exp1", "--out", "out"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "exp1_40dB_curve_theory.csv"]
    _, rows = read_csv(tmp_path / "out" / "exp1_40dB_curve_theory.csv")
    assert len(rows) == TINY["iterations"] + 1


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


@pytest.mark.parametrize("workers", ["0", "-5", "abc"])
def test_workers_below_one_exit_1(tmp_path, capsys, workers):
    cfg = write_config(tmp_path / "w.json", **TINY, kappa=0.0)
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--config", cfg, "--out", str(tmp_path),
              "--workers", workers])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "--workers: must be an integer >= 1" in err
    assert "_positive_int" not in err
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


UNSTABLE = {**TINY, "L": 8, "mu": 5.0, "kappa": 1e-6, "iterations": 100}
# without iterations: the step count of ten time constants needs a stable mu
UNTIMED = {k: v for k, v in UNSTABLE.items() if k != "iterations"}
OUTSIDE = "mu=5.0 outside the stable range (0, 0.2)"
SPARSE = {**TINY, "L": 16, "Q": 2, "mu": 1e-3, "iterations": 50}


@pytest.mark.parametrize("config, mode, fields, message", [
    ("absent", "theory", None, "cannot read config"),
    ("Q>L", "theory", {**TINY, "L": 8, "Q": 9}, "Q <= L"),
    ("memory", "simulate", {**TINY, "kappa": 0.0, "trials": 1e11},
     "of physical memory"),
    ("stability", "theory", UNSTABLE, OUTSIDE),
    ("optimal", "experiment", {**UNSTABLE, "kappa": "OPTIMAL"}, OUTSIDE),
    ("untimed-curve", "theory", UNTIMED, OUTSIDE),
    ("untimed-sweep", "theory", {**UNTIMED, "kappa": [1e-6, 2e-6]},
     OUTSIDE),
    ("untimed-sweep", "simulate", {**UNTIMED, "kappa": [1e-6, 2e-6]},
     OUTSIDE),
    ("underflow", "theory",
     {**TINY, "L": 16, "Q": 2, "mu": 1e-200, "kappa": "OPTIMAL"},
     "resolve_kappa leaves the float range at mu=1e-200, alpha=10.0, "
     "kappa=OPTIMAL"),
    ("underflow", "simulate", {**UNTIMED, "mu": 1e-309, "kappa": 0.0},
     "default_iterations leaves the float range at mu=1e-309"),
    # past the float range: 2*alpha^2, beta2^2 and the power balance's 4ac;
    # the refusal names the config's "OPTIMAL", not the kappa = 0 that
    # resolving it evaluates the steady form at
    ("huge-alpha", "theory", {**SPARSE, "alpha": 1e200, "kappa": "OPTIMAL"},
     "resolve_kappa leaves the float range at mu=0.001, alpha=1e+200, "
     "kappa=OPTIMAL"),
    ("tiny-mu", "theory", {**SPARSE, "mu": 1e-100, "kappa": "OPTIMAL"},
     "resolve_kappa leaves the float range at mu=1e-100, alpha=10.0, "
     "kappa=OPTIMAL"),
    ("tiny-mu-curve", "theory",
     {**SPARSE, "mu": 1e-120, "kappa": 0.0, "variants": ["LMS"]},
     "convergence_model leaves the float range at mu=1e-120, alpha=10.0, "
     "kappa=0.0"),
    ("all-zero", "theory", None, "undefined for an all-zero system")],
    ids=["absent", "Q>L", "memory", "stability", "optimal", "untimed-curve",
         "untimed-sweep", "untimed-sweep-sim", "underflow",
         "untimed-underflow", "huge-alpha", "tiny-mu", "tiny-mu-curve",
         "all-zero"])
def test_bad_input_leaves_no_output_directory(tmp_path, capsys, config,
                                              mode, fields, message):
    """The output directory is made by the first file written, so a run
    refused before then, by its config or by a check made while it
    runs, leaves none.  Each refusal names its cause in one line; an
    unstable mu gets the same one on every path."""
    cfg = tmp_path / "cfg.json"
    if fields is not None:
        write_config(cfg, **fields)
    source = ["--preset", "exp1", "--scale", "1e-9"] \
        if config == "all-zero" else ["--config", str(cfg)]
    fresh = tmp_path / "fresh" / "out"
    rc = main([mode, *source, "--out", str(fresh)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("fields, repeat", [
    (dict(kappa=[1e-6, 2e-6, 1e-6]), "kappa value 1e-06"),
    (dict(mu=[1e-3, 1e-3]), "mu value 0.001"),
    (dict(kappa=0.0, variants=["L0LMS", "LMS", "L0LMS"]),
     "variants value L0LMS")], ids=["kappa", "mu", "variants"])
def test_repeated_value_exits_1(tmp_path, capsys, fields, repeat):
    """A repeated sweep value would repeat a key of the sweep file, and a
    repeated variant would write its curve twice: both are refused
    before anything is written."""
    cfg = write_config(tmp_path / "rep.json", **{**TINY, **fields})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: config {repeat} repeats" in capsys.readouterr().err
    assert not out.exists()


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
    dict(trials=1e15, kappa=[0.0, 1e-6]),        # ... at each sweep point
    # ten time constants, 5e5 steps: one series fits, the curve path not
    dict(mu=1e-5, iterations=None)],
    ids=["long_curve", "many_trials", "many_trials_sweep",
         "untimed_long_curve"])
def test_runs_that_cannot_fit_exit_1(tmp_path, capsys, monkeypatch, mode,
                                     fields):
    """A run whose arrays exceed physical memory, here 16 MiB, is refused
    up front, before any array is allocated or any system drawn.  A
    curve counts every curve-long array its path holds, and the trials
    on top.  Theory mode draws no trials, so only the long curves are
    refused there."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
    monkeypatch.setattr("os.sysconf", pages.__getitem__)
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


def test_curve_group_that_cannot_fit_exits_1(tmp_path, capsys, monkeypatch):
    """A scalar four-variant config runs its curves as one group, so its
    arrays are counted together: at L=16, 2 trials and 150 000 steps one
    point fits in 16 MiB, the group of four does not.  It exits 1 before
    the engine runs, leaves no output directory, and the refusal gives
    the group's series count, four points of 2 trials and 6 curve arrays."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
    monkeypatch.setattr("os.sysconf", pages.__getitem__)
    calls = []
    engine = simulate.run_trials
    monkeypatch.setattr(simulate, "run_trials",
                        lambda *a, **k: calls.append(a) or engine(*a, **k))
    fields = dict(L=16, Q=2, mu=1e-3, alpha=10.0, kappa=1e-6, snr_db=40.0,
                  trials=2, iterations=150_000, seed=1)
    point = ExperimentSpec(**fields)
    simulate.require_memory(point, point.trials + cli._CURVE_SERIES)
    cfg = write_config(tmp_path / "four.json", **fields,
                       variants=["L0LMS", "LMS", "ZALMS", "RZALMS"])
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: 32 series of 1.5e+05 steps at L=16 need about ")
    assert calls == []
    assert not out.exists()


# a run whose later point is refused: simulating its first point took 1 s
REFUSED_LATE = dict(L=64, Q=8, mu=2e-3, alpha=10.0, kappa=1e-6, snr_db=40.0,
                    trials=50, iterations=20000, seed=1, variants=["L0LMS"])
UNTIMED_PAIR = {**{k: v for k, v in REFUSED_LATE.items()
                   if k != "iterations"}, "L": 8}


@pytest.mark.parametrize("mode", ["simulate", "experiment"])
@pytest.mark.parametrize("fields, message", [
    ({**REFUSED_LATE, "kappa": [1e-6, -1e-6]},
     "error: kappa must be finite and >= 0, got -1e-06\n"),
    ({**UNTIMED_PAIR, "mu": [1e-3, 5.0]}, f"error: {OUTSIDE}\n"),
    ({**UNTIMED_PAIR, "mu": [1e-3, 1e-9]},
     "error: 50 series of 5e+09 steps at L=8 need about ")],
    ids=["negative-kappa", "unstable-mu", "untimed-memory"])
def test_run_checks_every_point_before_it_starts(tmp_path, capsys,
                                                 monkeypatch, mode, fields,
                                                 message):
    """A sweep whose later point is refused is refused before the engine
    runs any point, with the message that point alone would give."""
    calls = []
    engine = simulate.run_trials
    monkeypatch.setattr(simulate, "run_trials",
                        lambda *a, **k: calls.append(a) or engine(*a, **k))
    cfg = write_config(tmp_path / "late.json", **fields)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_config_defects_exit_1(tmp_path, capsys):
    """An empty variant list and a noise power that overflows or
    underflows a float are validation errors, not an empty run or a
    traceback; the overflow and the underflow are refused by the
    float-range rule, at the config's own values, not as a zero Pv or
    an all-zero system the config never gave."""
    cfg = write_config(tmp_path / "none.json", **{**TINY, "variants": []})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "variants must name at least one variant" in capsys.readouterr().err
    for sigma_s in (1e154, 1e200):          # Pv = inf; sigma_s^2 overflows
        cfg = write_config(tmp_path / "loud.json", **{
            **TINY, "kappa": 0.0, "sigma_s": sigma_s})
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: from_snr leaves the float range at sigma_s={sigma_s}, "
            "snr_db=40.0\n")
    for mode in ("theory", "simulate"):     # Pv = 0; Q*sigma_s^2 = 0
        for fields, point in ((dict(snr_db=4000.0), "1.0, snr_db=4000.0"),
                              (dict(sigma_s=1e-200), "1e-200, snr_db=40.0")):
            cfg = write_config(tmp_path / "quiet.json", **{
                **SPARSE, "kappa": "OPTIMAL", **fields})
            assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err == (
                f"error: from_snr leaves the float range at sigma_s={point}\n")
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest*"))


def _log_uniform(lo: float, hi: float):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _theory_configs(draw):
    """A scalar theory config of at most 32 taps over the whole float
    range of mu, alpha, kappa and sigma_s, at SNRs whose noise power
    leaves the float range both ways or at an explicit Pv anywhere in
    it; ``iterations`` is left out at any mu, so the default curve may
    be far longer than memory."""
    L = draw(st.integers(1, 32))
    cfg = dict(L=L, Q=draw(st.integers(0, L)), mu=draw(_log_uniform(-300, -1)),
               alpha=draw(_log_uniform(-300, 300)),
               kappa=draw(st.one_of(_log_uniform(-300, 300),
                                    st.just("OPTIMAL"))),
               snr_db=draw(st.floats(-4000, 4000)),
               sigma_s=draw(_log_uniform(-300, 300)),
               variants=[draw(st.sampled_from([v.value for v in Variant]))])
    if draw(st.booleans()):             # any noise but an SNR's
        cfg["Pv"] = draw(_log_uniform(-300, 300))
    if draw(st.booleans()):
        cfg["iterations"] = draw(st.integers(1, 50))
    return cfg


@given(cfg=_theory_configs())
@example(cfg={**SPARSE, "kappa": 1e155})
@example(cfg={**SPARSE, "mu": 1e-50, "kappa": "OPTIMAL",
              "variants": ["ZALMS"]})
@settings(max_examples=200, derandomize=True, deadline=None)
def test_theory_config_exits_0_with_finite_columns_or_1(tmp_path_factory,
                                                         cfg):
    """No theory config ends in a traceback: it exits 0 with a finite
    theory column (ZA and RZA write NaN, having no curve) or exits 1 with
    one ``error:`` line of at most 200 characters.  Physical memory reads
    as 64 MiB, so no curve allocates more."""
    out = tmp_path_factory.mktemp("range")
    path = out / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 14}
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            unittest.mock.patch("os.sysconf", pages.__getitem__):
        rc = main(["theory", "--config", str(path), "--out", str(out)])
    if rc == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert len(err.getvalue().rstrip("\n")) <= 200, err.getvalue()
        return
    assert rc == 0, err.getvalue()
    if cfg["variants"][0] in ("ZALMS", "RZALMS"):
        return
    (csv_path,) = out.glob("*.csv")
    header, rows = read_csv(csv_path)
    column = header.index("msd_theory")
    assert all(math.isfinite(float(r[column])) for r in rows)


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


@pytest.mark.parametrize("tolerance", ["nan", "-1", "abc"])
def test_compare_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    """A NaN or negative tolerance would fail every comparison, and text
    is no tolerance: exit 1, with a message that names no helper."""
    p1, p2 = grid_files(tmp_path)
    with pytest.raises(SystemExit) as ei:
        main(["compare", p1, p2, "--tolerance-db", tolerance])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "--tolerance-db: must be a number >= 0" in err
    assert "Traceback" not in err and "_tolerance" not in err


@pytest.mark.parametrize("key", ["nan", "inf", "-inf", "abc"])
def test_compare_rejects_nonfinite_keys(tmp_path, capsys, key):
    """A NaN key never matches itself and an infinite one is no grid
    point: both exit 1 naming the line, like a non-numeric key."""
    p1, _ = grid_files(tmp_path)
    header, rows = read_csv(p1)
    rows[1][0] = key
    write_csv(p1, header, rows)
    assert main(["compare", p1, p1]) == 1
    err = capsys.readouterr().err
    assert f"{p1}:3: kappa value '{key}' is not a finite number" in err
    assert "Traceback" not in err


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
    ("zero-byte", "val.csv: empty CSV"),
    ("absent", "cannot read"),
])
def test_compare_rejects_malformed_rows(tmp_path, capsys, damage, message):
    p1, p2 = grid_files(tmp_path)
    header, rows = read_csv(p2)
    if damage == "short":
        rows[1] = rows[1][:1]
    if damage == "repeat":
        rows.append(["1.0e-7"] + rows[0][1:])
    if damage in ("empty", "zero-byte"):
        rows = []
    with open(p2, "w", newline="") as f:
        if damage != "zero-byte":
            f.write(",".join(header) + "\n")
        for i, r in enumerate(rows):
            f.write(",".join(r) + "\n")
            if damage == "blank" and i == 1:
                f.write("\n")
    if damage == "absent":
        (tmp_path / "val.csv").unlink()
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


def test_compare_makes_its_output_directory(tmp_path, capsys):
    p1, _ = grid_files(tmp_path, n=300)
    out = tmp_path / "new" / "dir"
    assert main(["compare", p1, p1, "--out", str(out)]) == 0
    _, rows = read_csv(out / "ref_vs_ref_gaps.csv")
    assert len(rows) == 300


def test_write_errors_name_the_target(tmp_path, capsys):
    """An output error names the file or directory asked for, not the
    temporary file written beside it, and exits 1."""
    p1, _ = grid_files(tmp_path, n=300)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["compare", p1, p1, "--out", str(afile)]) == 1
    err = capsys.readouterr().err
    assert str(afile) in err and ".tmp" not in err

    (tmp_path / "ref_vs_ref_gaps.csv").mkdir()     # the target is taken
    assert main(["compare", p1, p1, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path / 'ref_vs_ref_gaps.csv'}: " in err
    assert ".tmp" not in err and "Traceback" not in err


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
    real_replacing = cli._replacing

    class Torn:                 # the header goes out, then half the rows
        def __init__(self, f):
            self.f, self.writes = f, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 1:
                return self.f.write(text)
            self.f.write(text[:len(text) // 2])
            raise OSError("disk full")

    @contextlib.contextmanager
    def torn(target):
        with real_replacing(target) as f:
            yield Torn(f)

    with monkeypatch.context() as mp:
        mp.setattr(cli, "_replacing", torn)
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


def test_unwritable_manifest_exits_1(tmp_path, capsys):
    """A manifest path taken by a directory is an output error like an
    unwritable CSV: exit 1 with a message, no temporary file left."""
    cfg = write_config(tmp_path / "tiny.json", **TINY, kappa=0.0)
    (tmp_path / "tiny_manifest.json").mkdir()
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot write" in err and "tiny_manifest.json" in err
    assert "Traceback" not in err and ".tmp" not in err
    assert not [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")]


def test_interrupted_run_leaves_no_stale_manifest(tmp_path):
    """A run removes its old manifest before it writes: a seed-7 rerun
    stopped at its second file has replaced the first curve, and leaves
    no seed-1 manifest that would list that curve as its own."""
    cfg = write_config(tmp_path / "tiny.json", L=16, Q=2, mu=5e-3,
                       alpha=10.0, kappa="OPTIMAL", snr_db=40.0, trials=2,
                       iterations=400, seed=1,
                       variants=["L0LMS", "LMS", "ZALMS"])
    out = tmp_path / "out"
    argv = ["experiment", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    manifest = out / "tiny_manifest.json"
    curve = out / "tiny_40dB_curve_L0LMS.csv"
    assert RunManifest.load(manifest).spec.seed == 1
    seed1 = curve.read_bytes()
    real_write, calls = cli._write_csv, []

    def interrupted(path, header, columns):
        calls.append(path)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_write(path, header, columns)

    with unittest.mock.patch.object(cli, "_write_csv", interrupted), \
            pytest.raises(KeyboardInterrupt):
        main(argv + ["--seed", "7"])
    assert curve.read_bytes() != seed1
    assert not manifest.exists()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def _written_files(out):
    """The bytes of every file in ``out``, manifest timestamps blanked."""
    return {f.name: re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                           f.read_bytes())
            for f in sorted(out.iterdir())}


def test_experiment_files_do_not_depend_on_workers(tmp_path):
    """The determinism contract at the command line: a four-variant
    config writes the same bytes with ``--workers 1`` and ``--workers 2``
    (three trials, so two workers get unequal shards)."""
    cfg = write_config(tmp_path / "four.json", L=16, Q=2, mu=5e-3,
                       alpha=10.0, kappa="OPTIMAL", snr_db=40.0, trials=3,
                       iterations=400, seed=2,
                       variants=["L0LMS", "LMS", "ZALMS", "RZALMS"])
    got = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main(["experiment", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
        got.append(_written_files(out))
    assert len(got[0]) == 5 and got[0] == got[1]


def _reference_csv(header, columns):
    """The bytes of the per-cell writer ``_write_csv`` replaced: one
    ``format()`` per cell, rows through ``csv.writer``."""
    def text(col, values):
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if col in ("n", "Q"):
            return [str(int(v)) for v in values]
        spec = ".4f" if col.endswith("_db") else ".17g"
        return [format(float(v), spec) for v in values]

    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(zip(*[text(c, v) for c, v in zip(header, columns)]))
    return buf.getvalue().encode()


_CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -2.2250738585072014e-308, 1e308, -1e308, 0.5, 1e16]),
    st.integers(-2**70, 2**70))
_INTS = st.one_of(st.integers(-2**70, 2**70),
                  st.floats(-1e300, 1e300), st.sampled_from([-0.0, 2.5]))
_NAMES = st.one_of(st.sampled_from(["n", "Q", "msd", "msd_db", "kappa"]),
                   st.text(alphabet='ab_, "d', min_size=1, max_size=6))


@st.composite
def _tables(draw):
    header = draw(st.lists(_NAMES, min_size=1, max_size=5))
    rows = draw(st.integers(0, 9))
    columns = []
    for name in header:
        values = draw(st.lists(_INTS if name in ("n", "Q") else _CELLS,
                               min_size=rows, max_size=rows))
        kind = draw(st.sampled_from([list, tuple, np.asarray]))
        if kind is np.asarray and not all(isinstance(v, float)
                                          for v in values):
            kind = list         # an ndarray column holds float64 values
        columns.append(kind(values))
    return header, columns


@given(table=_tables(), block=st.integers(1, 4))
@example(table=(["n", 'say "hi", x', "msd_db"],
                [np.arange(2500), list(range(2500)),
                 np.linspace(-50.0, 20.0, 2500)]), block=cli._CSV_BLOCK)
@settings(max_examples=300, deadline=None)
def test_csv_bytes_match_per_cell_writer(tmp_path_factory, table, block):
    """``_write_csv`` formats whole blocks of rows with one ``%``; its
    bytes equal the per-cell ``format()`` + ``csv.writer`` output for
    integer, ``_db`` and linear columns, signed zeros, NaN, infinities,
    subnormals, Python ints, any column container, zero rows, rows over
    several blocks and headers that need quoting."""
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with unittest.mock.patch.object(cli, "_CSV_BLOCK", block):
        cli._write_csv(path, header, columns)
    assert path.read_bytes() == _reference_csv(header, columns)


def test_unequal_columns_raise(tmp_path):
    """Columns of unequal length, or more or fewer columns than header
    fields, raise ValueError naming the lengths, and write no file."""
    with pytest.raises(ValueError, match=r"lengths \[3, 2\]"):
        cli._write_csv(tmp_path / "a.csv", ["n", "msd"],
                       [[0, 1, 2], [1.0, 0.5]])
    with pytest.raises(ValueError, match=r"lengths \[2\] under 2"):
        cli._write_csv(tmp_path / "b.csv", ["n", "msd"], [[0, 1]])
    assert list(tmp_path.iterdir()) == []


# sha256 of the CSVs of ``theory --preset exp1..exp5 --scale 0.25``
THEORY_GOLDEN = {
    "exp1_20dB_kappa_sweep_theory.csv":
        "6cf47c7efca48254bdd733b5d477f7d693bde1f79066c2d7022e69f0c1f659d0",
    "exp1_40dB_kappa_sweep_theory.csv":
        "912ce9913e1a3c7a6307c1d60e19f3e42fbf0a1a418c297d5150b3a78cbdbf51",
    "exp2_40dB_alpha_sweep_theory.csv":
        "c7d667517a20bdbf4aaceddf493c5f88470ff8bd92bfddc8bbe9a748011aa079",
    "exp3_40dB_Q_sweep_theory.csv":
        "426a79888cb8d9f60bfba62899a57c1d83a0ee6d164d3f8b83a5764e8b725556",
    "exp4_20dB_curve_kx0.1_theory.csv":
        "67f9ffc8765811a8902ef063a0d40539ee58080a97840d672be9cc9b25aa54d2",
    "exp4_20dB_curve_kx10_theory.csv":
        "432c2783caa1b1a862105aeecde15f22b3973b428de4c00a1afd5b20dbb1c463",
    "exp4_20dB_curve_kx1_theory.csv":
        "51c122aba8ea3b56595c66d84a8253c907160aec21d17f66496c9316dd6499a8",
    "exp4_40dB_curve_kx0.1_theory.csv":
        "687c4fc8c9265ec183e1cf4c4e92849faa80dfff97f0aec80f6dd420cd736734",
    "exp4_40dB_curve_kx10_theory.csv":
        "33381824d4a58c06a65fa2d7a1a4c88b475b0df004afac5ebba7646ea7036e4b",
    "exp4_40dB_curve_kx1_theory.csv":
        "5b319d5f674e96ccb327c7b3d8479b68852341278291bf8426c93ca1fd6e09e2",
    "exp5_40dB_curve_mu0.0002_theory.csv":
        "42fce932d952fce54da4100248b16c0b5d16a9ea3993e0a4e34f1bd3692cb145",
    "exp5_40dB_curve_mu0.0004_theory.csv":
        "5b319d5f674e96ccb327c7b3d8479b68852341278291bf8426c93ca1fd6e09e2",
}


def test_theory_csvs_match_golden(tmp_path):
    """The twelve theory CSVs of exp1..exp5 at ``--scale 0.25`` are
    byte-identical to the recorded goldens (written with Python 3.11.7
    and numpy 2.4.6 on x86_64).  Another libm or numpy may move a last
    digit of a closed form; then re-record only after checking that the
    difference is in the values, not in the formatting."""
    for p in ("exp1", "exp2", "exp3", "exp4", "exp5"):
        assert main(["theory", "--preset", p, "--scale", "0.25",
                     "--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in tmp_path.iterdir()}
    assert got == THEORY_GOLDEN


# sha256 of the JSON text of each preset's expansion at ``--scale 0.25``:
# the ``[value, kappa]`` pair of every point, then the ``kappa_opt`` or
# ``kappa_opt_by_<axis>`` records the expansion fills (re-recorded when
# the entry lost its ``snr_convention`` key: the earlier texts without
# that key give these digests)
EXPANSION_GOLDEN = {
    "exp1_20dB":
        "4b80d60b20572d23879da60ff7ed8cd8359a38575b1606222cc1ad69023372a9",
    "exp1_40dB":
        "c6c85357d85898bdee253b21413fbfdab37b2e0ed61e364ae8213fa7173a643b",
    "exp2_40dB":
        "d573af414152c331e23047c152cc7104f749e88964ffdaff55d1d98b895b5881",
    "exp3_40dB":
        "e0b59d631741a207708d545c1b3254a0c84aaa728d56c324a3339e46a6e471d8",
    "exp4_20dB":
        "b9593f61d1622ac374f93b2c5eaa8569f72f7d29999f0d9039c77bd56e1424e6",
    "exp4_40dB":
        "ea3ba326081975e2e8d1a90088c0d0e2973a380673274c99e75d5a163cd71190",
    "exp5_40dB":
        "197b685796e9a1b54ebf3db4c847f4c8f11ad64adb79ff85919c5415e4285996",
}


def test_preset_expansions_match_golden(tmp_path, monkeypatch):
    """Where each preset point's weight comes from, as ``cli.expand``
    works it out on the run path of ``theory --preset``, is unchanged
    from the recorded goldens (Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
    x86_64)."""
    got, real = {}, cli.expand

    def spy(base, sweep, entry):
        points = real(base, sweep, entry)
        text = json.dumps([[v, sp.kappa] for v, sp in points] + [entry],
                          sort_keys=True)
        got[f"{base.snr_db:g}dB"] = text
        return points

    monkeypatch.setattr(cli, "expand", spy)
    digests = {}
    for p in cli.PRESET_NAMES:
        got.clear()
        assert main(["theory", "--preset", p, "--scale", "0.25",
                     "--out", str(tmp_path)]) == 0
        digests.update({f"{p}_{label}": hashlib.sha256(t.encode()).hexdigest()
                        for label, t in got.items()})
    assert digests == EXPANSION_GOLDEN


GOLDEN_CONFIGS = {
    "variants": dict(kappa="OPTIMAL",
                     variants=["L0LMS", "LMS", "ZALMS", "RZALMS"]),
    "mu_sweep": dict(mu=[2e-3, 5e-3], kappa="OPTIMAL"),
    "kappa_sweep": dict(kappa=[0.0, 1e-6, 1e-5]),
}

# sha256 of every file ``experiment --config`` writes for GOLDEN_CONFIGS,
# with the manifest's timestamp blanked (the manifests re-recorded when
# they lost their two ``snr_convention`` keys: the earlier manifests
# without those keys give these digests)
CONFIG_GOLDEN = {
    "kappa_sweep_40dB_kappa_sweep.csv":
        "f5e95cec0a0b6ef836af8bdb17b5ed39908f8e726b82e072fd83e803829ac703",
    "kappa_sweep_manifest.json":
        "8fc21d6f416ab4a8ed87350fe404958571879f36651018c17a17c6fc9350d185",
    "mu_sweep_40dB_mu_sweep.csv":
        "b79e9b8cfac7f002059dbe2050017f3903297dbe04bc8b6dabe209fc9b4c7128",
    "mu_sweep_manifest.json":
        "029f61a1b267e5e785df8fb0f265bc3b8c817777430186ced8a1e01857bc72f5",
    "variants_40dB_curve_L0LMS.csv":
        "1444520eba51c47f8acda3acaac912c0a2158f7e56e6cfc093c0069a6cf0ceb2",
    "variants_40dB_curve_LMS.csv":
        "cc6475013e7539fa5a3e36f42daffc25524afc663f40faef4f476666626c144b",
    "variants_40dB_curve_RZALMS.csv":
        "8d01ebde2ddf27b15b45ce35c65b345a68afb7246e95bcd560e8d057c9cdf984",
    "variants_40dB_curve_ZALMS.csv":
        "d957cf79f0c302a5a17d4fa64dc4de0a2af61a4cc67a812048b7dfed29d0f3b6",
    "variants_manifest.json":
        "13bd51c5593318e82469ad4d0eb1d316bd0b5f4ede9bb4e438b7fa2945c46ff9",
}


def test_config_experiments_match_golden(tmp_path):
    """Every file of a scalar four-variant ``"OPTIMAL"`` config (one
    group of four curves), an ``"OPTIMAL"`` mu sweep and a kappa sweep at
    L=16 and 400 steps is byte-identical to the recorded goldens (Python
    3.11.7, numpy 2.4.6, scipy 1.17.1, x86_64), with one worker and with
    two; the manifest is compared with its timestamp blanked."""
    base = dict(L=16, Q=2, mu=5e-3, alpha=10.0, snr_db=40.0, trials=2,
                iterations=400, seed=1, variants=["L0LMS"])
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        for name, fields in GOLDEN_CONFIGS.items():
            cfg = write_config(tmp_path / f"{name}.json",
                               **{**base, **fields})
            assert main(["experiment", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in _written_files(out).items()}
        assert got == CONFIG_GOLDEN, f"--workers {workers}"
