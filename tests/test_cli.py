import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asepkpz import cli
from asepkpz.cli import config_hash, fmt, load_config, main, sha256_file, write_csv
from asepkpz.engine import simulate_replicas, z_field
from asepkpz.kernels import solve_interval_spectrum
from asepkpz.she import build_grid, compare, sample_she_ensemble

from conftest import openblas_thread_setter, write_compare_table


def run_cli(args):
    return main(args)


def test_print_defaults(capsys):
    # the text written from cli.KEYS, pinned byte for byte
    assert run_cli(["config", "--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert "[model]" in out and "n_sites" in out and "slope_a" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dbc1f2de9281644deca82571b3d68b8615d4948f18e41dfe1ae5bf01c02908ae")


# the benchmark's compare config: 60 replicas at inverse_eps = 32, 64
_BENCH_COMPARE = ("[run]\nreplicas = 60\n[model]\nlattice = interval\nslope_a = 0.0\n"
                  "slope_b = 0.0\n[simulate]\ninitial = bernoulli_half\n[compare]\n"
                  "inverse_eps = 32, 64\nt_macro = 0.1\nx_points = 9\n")


@pytest.mark.parametrize("kind, ini, digest", [
    ("params", "", "eca03dde5185c527"), ("simulate", "", "db3264066f7113cb"),
    ("kernel", "", "c72d8abe4090bd57"), ("identities", "", "2a74c9b267c16259"),
    ("she", "", "a2dfa928104076bc"), ("compare", "", "d1e78d1dedeb29c8"),
    ("audit-all", "", "4a3abf50febaae2c"), ("compare", _BENCH_COMPARE, "0ed644772d51f8ac"),
], ids=["params", "simulate", "kernel", "identities", "she", "compare", "audit-all",
        "compare-benchmark"])
def test_run_directory_names_pinned(kind, ini, digest):
    # each kind's default config and the benchmark's configs (audit-all runs at
    # its defaults) keep their run directories at seed 7
    cfg = load_config(None)
    cfg.read_string(ini)
    assert config_hash(cfg, kind, 7) == digest


class _RecordingValues(dict):
    """Checked values that record each key read from them in self.reads."""

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)


_SMALL = "[model]\nn_sites = 8\n[identities]\nn_sites = 16\ncstar_n = 12\ncstar_tbar = 0.5\n"
_HALF_LINE = "[model]\nlattice = half_line\nepsilon = 0.125\ntruncation = 16\nslope_a = 1.0\n"


@pytest.mark.parametrize("kind, ini", [
    ("params", _SMALL), ("params", _HALF_LINE),
    ("simulate", "[run]\nreplicas = 2\n" + _SMALL),
    ("simulate", "[run]\nreplicas = 2\n" + _HALF_LINE),
    ("kernel", _SMALL), ("identities", _SMALL), ("audit-all", _SMALL),
    ("she", "[run]\nreplicas = 4\n[she]\nm = 8\n"),
    ("she", "[run]\nreplicas = 4\n[she]\nm = 8\n" + _HALF_LINE),
    ("compare", "[run]\nreplicas = 4\n[compare]\ninverse_eps = 4, 8\n"),
], ids=["params", "params_half_line", "simulate", "simulate_half_line", "kernel", "identities",
        "audit-all", "she", "she_half_line", "compare"])
def test_each_kind_reads_only_keys_it_checks(tmp_path, kind, ini):
    # a kind runs on the values _validate returns: every key it reads is a cli.KEYS
    # row it checks, the model built from [model], the spectrum built from
    # [identities] or the grid built from [she] and [model], and every section it
    # checks, [run] aside (main reads out for every kind), it reads
    cfg = load_config(None)
    cfg.read_string(ini)
    checked = {(sec, key) for sec, key, *_ in cli._rows(kind, cfg["model"]["lattice"])}
    values, problems = cli._validate(cfg, kind)
    assert problems == []
    values = _RecordingValues(values)
    values.reads = set()
    cli.KINDS[kind](values, str(tmp_path), {})
    built = {"model": {"model"}, "identities": {"identities"}, "she": {"she", "model"}}
    assert values.reads - set(built) <= checked, values.reads - set(built) - checked
    read = set().union(*(built.get(key, {key[0]}) for key in values.reads))
    assert {sec for sec, _ in checked} - {"run"} <= read


def test_float_keys_reject_nan_and_inf():
    # every float-valued cli.KEYS row, alone or after a valid time where it holds a
    # list, is rejected at nan and inf by every kind that checks it, on each lattice
    accepted = []
    for sec, key, _, cast, kinds, *_ in cli.KEYS:
        if cast not in (float, cli._parse_list):
            continue
        for lattice in ("interval", "half_line"):
            for kind in kinds.get(lattice, ()) if isinstance(kinds, dict) else kinds:
                cfg = load_config(None)
                cfg["model"]["lattice"] = lattice
                assert cli._validate(cfg, kind)[1] == [], (sec, key, lattice, kind)
                for bad in ("nan", "inf") + (("0.0, nan", "0.0, inf") if cast != float else ()):
                    cfg[sec][key] = bad
                    if not cli._validate(cfg, kind)[1]:
                        accepted.append((sec, key, bad, lattice, kind))
    assert accepted == []


def test_float_format_roundtrip():
    for x in (1 / 3, 1e-17, 123456.789, 0.1):
        assert float(fmt(x)) == x


def write_csv_per_value(path: str, header: list, rows: list) -> None:
    """The writer with one `fmt` call per value."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def test_write_csv_rows_of_other_types(tmp_path):
    # a float in a column that holds an int in the first row takes fmt, where
    # str(0.1) and "%.17g" differ; strings, bools and numpy floats keep theirs
    rows = [[1, 0.5, "a", True, np.float64(0.25)], [0.1, 0.5, "b", False, np.float64(1 / 3)],
            [2, 1 / 3, "c", True, np.float64(0.1)], [3, np.nan, "d", False, np.float64(-0.0)]]
    for body in (rows, []):
        path, ref = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(path, ["i", "x", "s", "b", "y"], body)
        write_csv_per_value(ref, ["i", "x", "s", "b", "y"], body)
        assert Path(path).read_bytes() == Path(ref).read_bytes()
    assert Path(path).read_text() == "i,x,s,b,y\n"
    write_csv(path, ["i", "x", "s", "b", "y"], rows)
    assert Path(path).read_text().splitlines()[2].startswith("0.10000000000000001,0.5,b,False,")


def test_write_csv_blocks_match_per_value_writer(tmp_path):
    # a lead is written once per block, "%" in it kept literally; a block with
    # no lead and one after it with an int lead type their own templates
    rows = cli.Blocks([(("a%s", 0.1), (range(3), [0.5, 1 / 3, np.nan])),
                       ((), ([True], ["b"], [2], [-0.0])), ((7,), ([1, 2], ["%d", "x"], [3, 4]))])
    path, ref = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(path, ["s", "t", "x", "v"], rows)
    write_csv_per_value(ref, ["s", "t", "x", "v"], rows)
    assert Path(path).read_bytes() == Path(ref).read_bytes()
    assert Path(path).read_text().splitlines()[1] == "a%s,0.10000000000000001,0,0.5"


def test_cli_csvs_match_per_value_writer(tmp_path, monkeypatch):
    # every CSV that audit-all, simulate (interval and half line), she and
    # compare write is byte-identical to the per-value writer's output
    written = {}

    def checked(path, header, rows):
        write_csv(path, header, rows)
        ref = str(tmp_path / "reference.csv")
        write_csv_per_value(ref, header, rows)
        written[path] = Path(path).read_bytes() == Path(ref).read_bytes()

    monkeypatch.setattr(cli, "write_csv", checked)
    runs = [("audit-all", "[model]\nn_sites = 16\nslope_a = 1\n[identities]\nn_sites = 16\n"
                          "cstar_n = 12\ncstar_tbar = 0.5\n"),
            ("simulate", "[run]\nreplicas = 3\n[model]\nn_sites = 12\n"
                         "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n"),
            ("simulate", "[run]\nreplicas = 2\n[model]\nlattice = half_line\nepsilon = 0.125\n"
                         "truncation = 16\nslope_a = 1.0\n"
                         "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n"),
            ("she", "[run]\nreplicas = 8\n[she]\nm = 8\n"),
            ("compare", "[run]\nreplicas = 8\n[compare]\ninverse_eps = 4, 8\n")]
    for i, (kind, ini) in enumerate(runs):
        cfg = tmp_path / f"c{i}.ini"
        cfg.write_text(ini)
        assert run_cli([kind, "--config", str(cfg), "--seed", "7",
                        "--out", str(tmp_path / f"r{i}")]) in (0, 1)
    assert {"expansion_audit.csv", "spectrum.csv", "kernel.csv", "trajectory_eta_r000.csv",
            "trajectory_heights_r001.csv", "scaled_field_mean.csv", "she_moments.csv",
            "compare.csv"} <= {os.path.basename(p) for p in written}
    assert all(written.values()), [k for k, ok in written.items() if not ok]


def test_config_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nreplicas = 0\n")
    assert run_cli(["params", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
    missing = run_cli(["params", "--config", str(tmp_path / "nope.ini")])
    assert missing == 2
    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[model]\nn_sites = 16\nslope_a = -2.0\n")
    assert run_cli(["params", "--config", str(bad2), "--out", str(tmp_path / "r2")]) == 2


@pytest.mark.parametrize("kind, ini, key", [
    ("compare", "[compare]\ninverse_eps = 0\n", "compare.inverse_eps"),
    ("compare", "[compare]\ninverse_eps =\n", "compare.inverse_eps"),
    # one size twice: the same ensemble sampled twice, and its var trend against itself
    ("compare", "[run]\nreplicas = 8\n[compare]\ninverse_eps = 16, 16\n", "compare.inverse_eps"),
    ("identities", "[identities]\nn_sites = 1\n", "identities.n_sites"),
    ("compare", "[run]\nreplicas = 1\n[compare]\ninverse_eps = 4, 8\n", "run.replicas"),
    ("she", "[run]\nreplicas = 1\n[she]\nm = 8\n", "run.replicas"),
    ("compare", "[run]\nreplicas = 8\n[compare]\ninverse_eps = 4, 8\nx_points = 0\n",
     "compare.x_points"),
    ("params", "[model]\nn_sites = 0\n", "model: n_sites"),
    ("simulate", "[model]\nn_sites = 0\n", "model: n_sites"),
    ("compare", "[model]\nn_sites = 0\n", "model: n_sites"),
    ("audit-all", "[model]\nn_sites = 0\n", "model: n_sites"),
    ("identities", "[identities]\ncstar_n = 1\n", "identities.cstar_n"),
    ("identities", "[identities]\ncstar_tbar = -1\n", "identities.cstar_tbar"),
    ("audit-all", "[identities]\ncstar_tbar = 0\n", "identities.cstar_tbar"),
    ("compare", "[run]\nreplicas = 3\n[compare]\ninverse_eps = 8, 16\n", "run.replicas"),
    ("she", "[she]\nm = 4\n", "she.m"),
    # a valid model (mu_A = 0.99 at N = 1000) whose slope is too steep for 8 cells
    ("she", "[model]\nn_sites = 1000\nslope_a = 10.0\n[she]\nm = 8\n", "she.m"),
    ("she", "[she]\noutput_times =\n", "she.output_times"),
    ("she", "[she]\noutput_times = -0.05, 0.1\n", "she.output_times"),
    ("she", "[she]\noutput_times = 0.1, 0.05\n", "she.output_times"),
    ("kernel", "[kernel]\ntimes = -1.0\n", "kernel.times"),
    # past 1e6: the image depth the kernel kind derives grows like sqrt(t)
    ("kernel", "[kernel]\ntimes = 1.0, 1e300\n", "kernel.times"),
    ("audit-all", "[kernel]\ntimes = 1000001.0\n", "kernel.times"),
    # a key that no cli.KEYS row names, such as the image depth, is not dropped unseen
    ("kernel", "[kernel]\ndepth = 6\n", "kernel.depth"),
    ("params", "[model]\nn_site = 16\n", "model.n_site"),
    # the weakly asymmetric half line: epsilon in (0, 1], where exp(sqrt(epsilon)) is finite
    ("params", "[model]\nlattice = half_line\nepsilon = nan\n", "model: epsilon"),
    ("params", "[model]\nlattice = half_line\nepsilon = 0\n", "model: epsilon"),
    ("params", "[model]\nlattice = half_line\nepsilon = 1e9\n", "model: epsilon"),
    ("identities", "[identities]\nslope_a = 200.0\n", "identities.slope_a"),
    ("audit-all", "[identities]\nslope_a = 0.0\nslope_b = 0.0\n", "identities.slope_a"),
    # mu = 1 - 1e-16 at both walls: lambda_0 < 1e-13, no spectral gap for F
    ("identities", "[identities]\nslope_a = 1e-14\nslope_b = 1e-14\n", "identities.slope_a"),
    # sample times past the default horizon_macro = 0.1, or before 0
    ("simulate", "[simulate]\nsample_times = 0.0, 0.2\n", "simulate.sample_times"),
    ("simulate", "[simulate]\nsample_times = -0.05, 0.1\n", "simulate.sample_times"),
    ("simulate", "[simulate]\ninitial = flat\n", "simulate.initial"),
    ("compare", "[compare]\nt_macro = -0.1\n", "compare.t_macro"),
    # not a finite time: each once made a run directory, then hung, failed or passed
    ("compare", "[run]\nreplicas = 4\n[compare]\ninverse_eps = 4, 8\nt_macro = nan\n",
     "compare.t_macro"),
    ("simulate", "[simulate]\nhorizon_macro = inf\nsample_times = 0.0\n",
     "simulate.horizon_macro"),
    ("she", "[she]\noutput_times = inf\n", "she.output_times"),
    ("identities", "[identities]\ncstar_tbar = inf\n", "identities.cstar_tbar"),
    # the seed and the thread count, from [run] or from their flags
    ("audit-all", "[run]\nseed = abc\n", "run.seed"),
    ("simulate", "[run]\nseed = -1\n", "run.seed"),
    ("audit-all", "[run]\nseed = 18446744073709551616\n", "run.seed"),
    ("params", "[run]\nthreads = abc\n", "run.threads"),
    ("params", "[run]\nthreads = 0\n", "run.threads"),
    ("compare --seed -1", "", "run.seed"),
    # [model] is valid (mu_A = 0.99 at N = 1000), but compare runs N = 8 and 16
    ("compare", "[model]\nn_sites = 1000\nslope_a = 10\n[compare]\ninverse_eps = 8, 16\n",
     "compare.inverse_eps = 8"),
    ("compare", "[model]\nslope_b = 5\n[compare]\ninverse_eps = 4, 32\n",
     "compare.inverse_eps = 4"),
], ids=["inverse_eps_zero", "inverse_eps_empty", "compare_repeated_size",
        "identities_n_sites_1", "compare_replicas_1", "she_replicas_1", "x_points_zero",
        "params_n_sites_0",
        "simulate_n_sites_0", "compare_n_sites_0", "audit_all_n_sites_0", "cstar_n_1",
        "cstar_tbar_negative", "cstar_tbar_zero", "compare_replicas_3", "she_m_4",
        "she_mu_outside", "she_output_times_empty", "she_output_times_negative",
        "she_output_times_decreasing", "kernel_time_negative", "kernel_time_1e300",
        "kernel_time_past_1e6", "kernel_depth_not_a_key", "model_typo_not_a_key",
        "half_line_epsilon_nan", "half_line_epsilon_zero",
        "half_line_epsilon_1e9", "identities_mu_negative", "identities_neumann_neumann",
        "identities_near_neumann",
        "simulate_sample_time_beyond_horizon", "simulate_sample_time_negative",
        "simulate_initial_unknown", "compare_t_macro_negative", "compare_t_macro_nan",
        "simulate_horizon_inf", "she_output_times_inf", "cstar_tbar_inf", "seed_not_integer",
        "seed_negative", "seed_beyond_u64", "threads_not_integer", "threads_zero",
        "seed_flag_negative", "compare_size_mu_negative", "compare_size_mu_b_negative"])
def test_config_errors_exit_two_before_work(tmp_path, capsys, kind, ini, key):
    # each of these once crashed with a traceback (exit 1), failed a check on
    # NaN or overflow, or passed vacuously; exit 1 is reserved for a failed check
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    out = tmp_path / "runs"
    assert run_cli([*kind.split(), "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sec, key, kind", [
    (sec, key, kind) for kind in cli._ALL
    for sec, key, default, cast, *_ in cli._rows(kind, "interval")
    if isinstance(cast(default), list)])
def test_empty_lists_exit_two_before_work(tmp_path, capsys, sec, key, kind):
    # every list-valued cli.KEYS row, set empty, stops each kind that checks it
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{sec}]\n{key} =\n")
    out = tmp_path / "runs"
    assert run_cli([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {sec}.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_image_depth_follows_the_times(tmp_path, monkeypatch):
    # the kernel kind builds the least image depth that reaches every time, 14
    # images of {0..8} at t = 200, and the image and spectral routes agree
    from asepkpz.kernels import image_depth

    depths = []
    build = cli.build_image_expansion
    monkeypatch.setattr(cli, "build_image_expansion",
                        lambda n, mu_a, mu_b, depth: depths.append(depth)
                        or build(n, mu_a, mu_b, depth))
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 8\n[kernel]\ntimes = 1.0, 200.0\n")
    out = tmp_path / "runs"
    assert run_cli(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    assert depths == [14] == [image_depth(8, 200.0)] and image_depth(8, 1.0) < 14
    (run_dir,) = out.iterdir()
    assert json.loads((run_dir / "manifest.json").read_text())["checks"]["image_vs_spectral"]
    # the bound on kernel.times admits its end, t = 1e6
    cfg = load_config(None)
    cfg.read_string("[kernel]\ntimes = 0.0, 1e6\n")
    assert cli._validate(cfg, "kernel")[1] == []


@pytest.mark.parametrize("ini", ["[simulate]\ninitial = flat\n",
                                 "[simulate]\nhorizon_macro = -1\n"],
                         ids=["initial_unknown", "horizon_negative"])
def test_simulate_section_checked_for_simulate_only(ini):
    # compare and audit-all never read [simulate]: its keys cannot stop them
    cfg = load_config(None)
    cfg.read_string(ini)
    assert cli._validate(cfg, "compare")[1] == cli._validate(cfg, "audit-all")[1] == []
    assert [p for p in cli._validate(cfg, "simulate")[1] if p.startswith("simulate.")]


def test_compare_checks_the_she_grid_walls():
    # N = 5000 admits A = 65 (mu_A = 0.987), the 64-cell SHE grid does not
    cfg = load_config(None)
    cfg.read_string("[model]\nn_sites = 5000\nslope_a = 65\n[compare]\ninverse_eps = 5000\n")
    problems = cli._validate(cfg, "compare")[1]
    assert len(problems) == 1 and problems[0].startswith("compare: model.slope_a")
    assert cli._validate(cfg, "params")[1] == []


@pytest.mark.parametrize("ini, digests", [
    ("[model]\nslope_a = 1.0\nslope_b = 0.5\n",
     ("9f26d498a4537edf7687f7d6320a5010dd10798d79d0d415bca43c8b8f1282e8",
      "52c6a6cb0f19e487422c384ba40d96360fccbaef8dee4471441da4d4c7f20d8a")),
    # the half line has no right wall: its record keeps slope_b = 0 and n_sites null
    ("[model]\nlattice = half_line\nslope_a = 1.0\nslope_b = 0.5\n",
     ("8eaf974c8eae77bbfca5c92288c38cebf648f66aad88b085b3d6e044d1c40bd2",
      "76e3f37ffeab99fab5aaf6a266e18980a4695af1a6d5f87b80e4a39f3bd3006d")),
], ids=["interval", "half_line"])
def test_params_files_pinned(tmp_path, ini, digests):
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    out = tmp_path / "runs"
    assert run_cli(["params", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    assert (sha256_file(str(run_dir / "params.json")),
            sha256_file(str(run_dir / "expansion_audit.csv"))) == digests


def test_params_kind_and_manifest(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 16\nslope_a = 1.0\nslope_b = 1.0\n")
    out = tmp_path / "runs"
    assert run_cli(["params", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = [p for p in out.iterdir()]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["checks"]["rate_relations"] is True
    assert "params.json" in manifest["files"]
    data = json.loads((run_dir / "params.json").read_text())
    assert data["scaling"]["n_sites"] == 16
    assert "lambda" in data["derived"]
    # rerun without --force refuses; with --force succeeds
    assert run_cli(["params", "--config", str(cfg), "--out", str(out)]) == 2
    assert run_cli(["params", "--config", str(cfg), "--out", str(out), "--force"]) == 0


def test_identities_kind(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[identities]\nn_sites = 32\nslope_a = 1.0\nslope_b = 1.0\n"
                   "cstar_n = 12\ncstar_tbar = 0.5\n")
    out = tmp_path / "runs"
    code = run_cli(["identities", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    (run_dir,) = [p for p in out.iterdir()]
    reports = json.loads((run_dir / "identities.json").read_text())
    assert [r["identity"] for r in reports] == ["key-identity-interval"] * 2 + ["c-star"]
    assert [(r["x"], r["xb"]) for r in reports[:2]] == [(16, 16), (16, 17)]
    for r in reports[:2]:
        assert r["abs_err_max"] <= 1e-9 and r["route_gap_max"] <= 1e-7
        assert r["green_route_gap"] <= 1e-9 and r["abs_err"] <= r["abs_err_max"]
        assert r["routes"] == ["spectral", "green", "expm"]
    # the c-star record counts its sign changes and bounds the sign-unknown cells
    assert reports[2]["roots"] == 30 and 0.0 <= reports[2]["tail_bound"] <= 1e-15
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["checks"]["key_identity_all_pairs"] is True
    assert set(manifest["metrics"]["identities"]) == {"key_identity_s", "c_star_s"}
    assert all(s > 0 for s in manifest["metrics"]["identities"].values())


def test_audit_all_bound_audits_pinned(tmp_path):
    # the half-line sums at mu_A = 1 - 1/16 run the geometric-tail path; the
    # hash is the same with OpenBLAS at one and two threads, and the two half-line
    # constants are within 6e-16 of those from 40-digit mpmath Bessel rows
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 16\nslope_a = 1\n[identities]\nn_sites = 16\n"
                   "cstar_n = 12\ncstar_tbar = 0.5\n")
    out = tmp_path / "runs"
    assert run_cli(["audit-all", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    assert sha256_file(str(run_dir / "bound_audits.json")) == (
        "ccb85dc9b6fdf38c9c824e36334f1b28e267caa71093c029731a9979b322f753")
    assert sha256_file(str(run_dir / "identities.json")) == (
        "46ccbcd200f0f201a8b9f6884cc4825a39ab90f9c9d2e1d495be657ce2c91de6")
    assert [sha256_file(str(run_dir / name))
            for name in ("kernel.csv", "spectrum.csv", "eigvecs.txt")] == [
        "5e7e95de8424fd4d75e479c384786a485022d31ff9244803bfde3909a7a635ad",
        "a6d8345cc8d3f86f41760c4b65333aa81928c3bf9427e5c9548875b3596336e5",
        "a37ea5e6b8073a997c22e97d5ca716e9244dabe7eb2fba782fd851f5d5ff2504"]


@pytest.mark.parametrize("ini, digests", [
    ("[run]\nreplicas = 3\n[model]\nn_sites = 12\n",
     ["c1c5966060acfe00d4bc1beaf830fee4fc13f9b043530d4fe42198b33fd02a8f",
      "0813df2d9d34063766ae0cd9461ee0aedd81b78a242e97b796c137e1d3eb5d6d",
      "920b54f294bb044a9916c18d43101415099358b9618eb47672a2b629a8a034f9"]),
    ("[run]\nreplicas = 2\n[model]\nlattice = half_line\nepsilon = 0.125\ntruncation = 16\n"
     "slope_a = 1.0\n",
     ["3bbcc8a7cb258a5583a605da45f746887ac1817a5c589906d02252db473fdf5b",
      "c08324b4b961ca34f2545530d9e177d37d65e3fd86e9151ea65208e547823b9c",
      "0b974b6585919b1096f7ae697ccd6fb27b39aa05c15619e1c35b33b0b9ef5180"]),
], ids=["interval", "half_line"])
def test_simulate_files_pinned(tmp_path, ini, digests):
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini + "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n")
    out = tmp_path / "runs"
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    assert [sha256_file(str(run_dir / name)) for name in (
        "trajectory_eta_r000.csv", "trajectory_heights_r001.csv",
        "scaled_field_mean.csv")] == digests


@pytest.mark.parametrize("ini", [
    "[run]\nreplicas = 3\n[model]\nn_sites = 12\n",
    "[run]\nreplicas = 5\n[model]\nlattice = half_line\nepsilon = 0.03\ntruncation = 64\n"
    "slope_a = 1.0\n",
], ids=["interval_n12", "half_line_eps_0.03"])
def test_scaled_field_mean_reads_sites(tmp_path, monkeypatch, ini):
    # scaled_field_mean.csv holds, at each sampled time and X = x eps, the replica mean
    # of Z at site x bit for bit, also where x eps / eps is not x in floating point
    trajs = []

    def recording(*args, **kwargs):
        trajs.append(simulate_replicas(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(cli, "simulate_replicas", recording)
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini + "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n")
    out = tmp_path / "runs"
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    (traj,) = trajs
    params = cli._validate(load_config(str(cfg)), "simulate")[0]["model"][0]
    lines = (run_dir / "scaled_field_mean.csv").read_text().splitlines()[1:]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    sites = traj.heights.shape[-1]
    assert table.shape == (len(traj.sample_times) * sites, 3)
    for i, t in enumerate(traj.sample_times):
        rows = table[i * sites:(i + 1) * sites]
        want = np.mean([z_field(h, t, params) for h in traj.heights[:, i]], axis=0)
        assert np.array_equal(rows[:, 1], np.arange(sites) * params.epsilon)
        assert np.array_equal(rows[:, 2], want)


@pytest.mark.parametrize("n", [1, 16, 100])
def test_eigvecs_txt_matches_savetxt(tmp_path, n):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[model]\nn_sites = {n}\nslope_a = 0.5\nslope_b = 0.25\n"
                   "[kernel]\ntimes = 0.1\n")
    out = tmp_path / "runs"
    assert run_cli(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    ref = tmp_path / "ref.txt"
    spec = solve_interval_spectrum(n, 1.0 - (1.0 / n) * 0.5, 1.0 - (1.0 / n) * 0.25)
    np.savetxt(ref, spec.eigvecs)
    assert (run_dir / "eigvecs.txt").read_bytes() == ref.read_bytes()


def test_simulate_kind_hash_stable_across_threads(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nreplicas = 12\n"
                   "[model]\nn_sites = 12\nslope_a = 0.0\nslope_b = 0.0\n"
                   "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n")
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out1),
                    "--threads", "1"]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out2),
                    "--threads", "4"]) == 0
    (d1,) = [p for p in out1.iterdir()]
    (d2,) = [p for p in out2.iterdir()]
    for name in ("trajectory_eta_r000.csv", "trajectory_heights_r003.csv",
                 "scaled_field_mean.csv"):
        assert sha256_file(str(d1 / name)) == sha256_file(str(d2 / name))
    # rings and accepted moves are the same counts at any thread count
    counts = [{k: r[k] for k in ("rings", "accepted_events")}
              for d in (d1, d2)
              for r in json.loads((d / "manifest.json").read_text())["metrics"]["sampler"]]
    assert counts[0] == counts[1] and 0 < counts[0]["accepted_events"] < counts[0]["rings"]


def test_height_consistency_fails_on_a_broken_slope(tmp_path, monkeypatch, capsys):
    # one step of 3 in the last snapshot of replica 9, past the eight dumped
    # replicas: the slope check reads every snapshot of every replica
    def broken(*args, **kwargs):
        traj = simulate_replicas(*args, **kwargs)
        h = traj.heights[9, -1]
        h[5:] += h[4] + 3 - h[5]
        return traj

    monkeypatch.setattr(cli, "simulate_replicas", broken)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nreplicas = 10\n[model]\nn_sites = 12\n"
                   "[simulate]\nhorizon_macro = 0.05\nsample_times = 0.0, 0.05\n")
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "[FAIL] height_consistency" in capsys.readouterr().out


def test_hashed_files_independent_of_blas_threads(tmp_path):
    # every hashed file of audit-all, compare, simulate and she is the same
    # with numpy's OpenBLAS at one and at two threads, set at run time
    runs = [("audit-all", ""), ("compare", "[run]\nreplicas = 4\n[compare]\ninverse_eps = 4, 8\n"),
            ("simulate", "[run]\nreplicas = 4\n"), ("she", "[run]\nreplicas = 4\n")]
    setter, before = openblas_thread_setter()
    files = {}
    try:
        for threads in (1, 2):
            setter(threads)
            for kind, ini in runs:
                cfg = tmp_path / f"{kind}.ini"
                cfg.write_text(ini)
                out = tmp_path / f"{kind}-{threads}"
                # exit 1 is a failed 3-sigma line, which 4 replicas may show
                assert run_cli([kind, "--config", str(cfg), "--seed", "7",
                                "--out", str(out)]) in (0, 1)
                (run_dir,) = out.iterdir()
                files[kind, threads] = json.loads((run_dir / "manifest.json").read_text())["files"]
    finally:
        setter(before)
    # identities.json included: the key identity runs at one BLAS thread whatever
    # the count outside it
    for kind, _ in runs:
        assert files[kind, 1] and files[kind, 1] == files[kind, 2], kind


def test_compare_kind_one_pass(tmp_path):
    # compare.csv is the shared pipeline's table, diagnostics.json the martingale
    # rows of the coarsest ensemble of the same pass, and neither depends on --threads
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nreplicas = 24\n[compare]\ninverse_eps = 8, 16\n")
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}"
        # exit 1 is a failed 3-sigma line, which a 24-replica ensemble may show
        assert run_cli(["compare", "--config", str(cfg), "--seed", "5", "--out", str(out),
                        "--threads", threads]) in (0, 1)
        (run_dir,) = out.iterdir()
        files.append([(run_dir / name).read_bytes()
                      for name in ("compare.csv", "diagnostics.json")])
    assert files[0] == files[1]
    # both files pinned byte for byte: the table's format and reduction move no digit
    assert [hashlib.sha256(b).hexdigest() for b in files[0]] == [
        "599c801496d1adebafb7f63998de3dce9bbb68d2ce790081b39c413a33059663",
        "f84b20f26825fd755990deb2c46c2f9a38c299e1413ee734e65eaf9155b4dc14"]
    # the kind writes what the pipeline returns, and copies its checks in order
    result = compare((8, 16), 0.0, 0.0, 0.1, 9, 24, 5)
    assert write_compare_table(result, tmp_path / "direct.csv").read_bytes() == files[0][0]
    assert json.loads(files[0][1]) == result["diagnostics"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert list(manifest["checks"].items()) == [(name, ok) for name, (ok, _)
                                                in result["checks"].items()]
    # only the coarsest ensemble samples the exponential integrals its rows read
    ensembles = result["ensembles"]
    assert result["diagnostics"] is ensembles[0]["martingale"]
    assert ensembles[1]["martingale"] is None
    # the manifest reports what the sampler did, outside every hashed file
    records = manifest["metrics"]["sampler"]
    assert [r["stage"] for r in records] == ["interval n=8", "interval n=16"]
    assert [r["accepted_events"] for r in records] == [e["events"] for e in ensembles]
    assert [r["rings"] for r in records] == [e["rings"] for e in ensembles]
    assert all(r["replicas"] == 24 and r["wall_s"] > 0 and r["events_per_s"] > 0
               and 0 < r["accepted_events"] < r["rings"] for r in records)
    assert manifest["metrics"]["peak_rss_mb"] > 0
    assert set(manifest["files"]) == {"compare.csv", "diagnostics.json"}


def test_compare_kind_is_free_of_the_size_order(tmp_path):
    # inverse_eps = 16, 8 writes the files and checks of 8, 16 (the table runs
    # coarsest first whatever the order), while the sampler stages keep the
    # config's order
    runs = {}
    for order in ("8, 16", "16, 8"):
        out = tmp_path / order.replace(", ", "-")
        cfg = out.with_suffix(".ini")
        cfg.write_text(f"[run]\nreplicas = 24\n[compare]\ninverse_eps = {order}\n")
        assert run_cli(["compare", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        runs[order] = ([(run_dir / name).read_bytes()
                        for name in ("compare.csv", "diagnostics.json")],
                       list(manifest["checks"].items()),
                       [r["stage"] for r in manifest["metrics"]["sampler"]])
    assert runs["8, 16"][:2] == runs["16, 8"][:2]
    assert runs["8, 16"][2] == ["interval n=8", "interval n=16"]
    assert runs["16, 8"][2] == ["interval n=16", "interval n=8"]
    # the statistics behind the checks agree too, in the same order
    assert (list(compare((16, 8), 0.0, 0.0, 0.1, 9, 24, 5)["checks"].items())
            == list(compare((8, 16), 0.0, 0.0, 0.1, 9, 24, 5)["checks"].items()))


def test_she_kind_reports_faults(tmp_path):
    # the manifest counts the faulted replicas and their rate, outside every hashed file
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nreplicas = 40\n[she]\nm = 16\noutput_times = 0.02\n")
    assert run_cli(["she", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path)]) == 0
    (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    grid = build_grid(1.0, 16, 0.0, 0.0)
    direct = sample_she_ensemble(np.ones(17), grid, 40, 9, [0.02])
    assert manifest["metrics"]["she"] == {"replicas": 40, "faulted": direct["faulted"],
                                          "fault_rate": direct["fault_rate"]}
    assert direct["faulted"] == 40 - direct["n_effective"]
    assert set(manifest["files"]) == {"she_moments.csv"}


def test_she_mean_check_fails_on_a_shifted_start(tmp_path, monkeypatch):
    # the default config passes; started 20% above the mean field's start, the
    # sampler's last-time mean leaves the Bonferroni line
    for shift, code in ((1.0, 0), (1.2, 1)):
        sample = cli.sample_she_ensemble
        monkeypatch.setattr(cli, "sample_she_ensemble",
                            lambda z0, *a, **k: sample(shift * z0, *a, **k))
        out = tmp_path / f"runs{shift}"
        assert run_cli(["she", "--seed", "9", "--out", str(out)]) == code
        (run_dir,) = out.iterdir()
        checks = json.loads((run_dir / "manifest.json").read_text())["checks"]
        assert checks == {"she_mean_bonferroni_1e-3": code == 0, "she_fault_rate": True}
        monkeypatch.undo()


def test_green_check_fails_on_a_planted_defect(tmp_path, monkeypatch):
    # u built from mu_B instead of mu_A keeps G symmetric and its corner
    # right; only the operator residual |L G - I| sees it
    from asepkpz import greens

    def u_from_mu_b(n, mu_a, mu_b):
        a, b = 1.0 - mu_a, 1.0 - mu_b
        x = np.arange(n + 1)
        return ((1.0 + b * np.minimum.outer(x, x)) * (1.0 + b * (n - np.maximum.outer(x, x)))
                / (0.5 * (a + b + a * b * n)))

    cfg = tmp_path / "c.ini"
    cfg.write_text("[identities]\nn_sites = 32\nslope_a = 1.0\nslope_b = 0.5\n"
                   "cstar_n = 12\ncstar_tbar = 0.5\n")
    for green, code in ((greens.green_matrix, 0), (u_from_mu_b, 1)):
        monkeypatch.setattr(greens, "green_matrix", green)
        out = tmp_path / f"runs{code}"
        assert run_cli(["identities", "--config", str(cfg), "--out", str(out)]) == code
        (run_dir,) = out.iterdir()
        checks = json.loads((run_dir / "manifest.json").read_text())["checks"]
        assert checks["key_identity_all_pairs"] and checks["green_closed_form"] == (code == 0)


def test_stationary_check_fails_on_a_planted_defect(monkeypatch):
    # rho (1 + 1e-9) leaves max |pi_B Q| = 4.1e-11, above the 1e-12 gate
    phase_point = cli.phase_point
    checks = {}
    cli.run_stationary(None, None, checks)
    assert checks == {"stationary_product_bernoulli": True}
    monkeypatch.setattr(cli, "phase_point", lambda p: dataclasses.replace(
        phase_point(p), rho_a=phase_point(p).rho_a * (1 + 1e-9)))
    cli.run_stationary(None, None, checks)
    assert checks == {"stationary_product_bernoulli": False}


def test_audit_all_makes_no_lapack_call(tmp_path, monkeypatch):
    # the default audit-all pass runs with every numpy.linalg LAPACK routine refused
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg LAPACK call")

    for name in ("solve", "inv", "lstsq", "pinv", "det", "slogdet", "eig", "eigh", "eigvals",
                 "eigvalsh", "svd", "svdvals", "cholesky", "qr", "matrix_rank", "cond",
                 "tensorsolve", "tensorinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run_cli(["audit-all", "--out", str(tmp_path / "runs")]) == 0


def test_failed_check_exits_one(tmp_path, monkeypatch):
    # fail-closed: any check failure makes the run exit 1 and is named in
    # the manifest
    from asepkpz import cli

    def failing_kind(values, out, checks):
        checks["always_fails"] = False

    monkeypatch.setitem(cli.KINDS, "params", failing_kind)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 8\nslope_a = 0.0\nslope_b = 0.0\n")
    out = tmp_path / "runs"
    assert run_cli(["params", "--config", str(cfg), "--out", str(out)]) == 1
    (run_dir,) = [p for p in out.iterdir()]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["checks"]["always_fails"] is False


def test_manifest_records_blas_threads(tmp_path):
    # numpy's OpenBLAS is read when the manifest is written, so a thread count
    # set at run time shows; the record is outside every hashed file
    library = cli.blas_threads().get("library")
    setter, before = openblas_thread_setter()
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 8\n")
    setter(1)
    try:
        assert run_cli(["params", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    finally:
        setter(before)
    (run_dir,) = (tmp_path / "r").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["metrics"]["blas"] == {"threads": 1, "library": library}
    assert set(manifest["files"]) == {"params.json", "expansion_audit.csv"}


def test_manifest_blas_threads_unreadable(tmp_path, monkeypatch):
    # a count that cannot be read is written as null with the reason
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 8\n")
    assert run_cli(["params", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    (run_dir,) = (tmp_path / "r").iterdir()
    blas = json.loads((run_dir / "manifest.json").read_text())["metrics"]["blas"]
    assert list(blas) == ["threads", "reason"]
    assert blas["threads"] is None and "no loaded OpenBLAS" in blas["reason"]


def test_blas_pin_missing_setter_reported(tmp_path, monkeypatch):
    # with no OpenBLAS thread setter to find, the key identity runs unpinned and
    # the manifest says so under metrics.identities; no hashed file records it
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    cfg = tmp_path / "c.ini"
    cfg.write_text("[identities]\nn_sites = 16\ncstar_n = 12\ncstar_tbar = 0.5\n")
    assert run_cli(["identities", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    (run_dir,) = (tmp_path / "r").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    record = manifest["metrics"]["identities"]
    assert set(record) == {"blas_unpinned", "key_identity_s", "c_star_s"}
    assert "no loaded OpenBLAS" in record["blas_unpinned"]
    assert set(manifest["files"]) == {"identities.json"}
    assert "blas_unpinned" not in (run_dir / "identities.json").read_text()


def test_threads_from_config_or_flag(tmp_path, monkeypatch):
    # [run] threads sets the count and --threads overrides it; the environment
    # variable that was once a third source has no effect
    monkeypatch.setenv("ASEPKPZ_THREADS", "5")
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nthreads = 3\n[model]\nn_sites = 8\nslope_a = 0.0\nslope_b = 0.0\n")
    for flag, threads in (([], 3), (["--threads", "2"], 2)):
        out = tmp_path / f"runs{threads}"
        assert run_cli(["params", "--config", str(cfg), "--out", str(out), *flag]) == 0
        (run_dir,) = out.iterdir()
        assert json.loads((run_dir / "manifest.json").read_text())["threads"] == threads


def test_config_hash_sensitivity(tmp_path):
    cfg = load_config(None)
    h1 = config_hash(cfg, "params", 1)
    h2 = config_hash(cfg, "params", 2)
    cfg["model"]["n_sites"] = "64"
    h3 = config_hash(cfg, "params", 1)
    assert len({h1, h2, h3}) == 3


_GUARD_RUN = """
import sys
from pathlib import Path

from asepkpz import cli

tmp = Path(sys.argv[1])
def run(kind, ini, codes=(0,)):
    i = len(list(tmp.glob("*.ini")))
    cfg = tmp / f"c{i}.ini"
    cfg.write_text(ini)
    code = cli.main([kind, "--config", str(cfg), "--seed", "3", "--out", str(tmp / f"r{i}")])
    assert code in codes, (kind, code)
"""

_NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""

_SAMPLING_GUARD = _GUARD_RUN + """
run("params", "[model]\\nn_sites = 16\\nslope_a = 1.0\\nslope_b = 0.5\\n")
run("simulate", "[run]\\nreplicas = 4\\n[model]\\nlattice = half_line\\nepsilon = 0.125\\n"
                "truncation = 16\\nslope_a = 1.0\\n"
                "[simulate]\\nhorizon_macro = 0.05\\nsample_times = 0.0, 0.05\\n")
run("she", "[run]\\nreplicas = 8\\n[she]\\nm = 8\\n", (0, 1))
run("compare", "[run]\\nreplicas = 24\\n[compare]\\ninverse_eps = 8, 16\\n", (0, 1))
run("compare", "[run]\\nreplicas = 24\\n[model]\\nslope_a = 1.0\\nslope_b = 0.5\\n"
               "[compare]\\ninverse_eps = 8, 16\\n", (0, 1))
""" + _NO_SCIPY

_EXACT_GUARD = _GUARD_RUN + """
ini = ("[model]\\nn_sites = 16\\nslope_a = 1.0\\n[identities]\\nn_sites = 16\\n"
       "cstar_n = 12\\ncstar_tbar = 0.5\\n")
for kind in ("kernel", "identities", "audit-all"):
    run(kind, ini)
loaded = sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random."))
assert not loaded, loaded
""" + _NO_SCIPY


def _run_guard(script: str, tmp_path) -> None:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_sampling_kinds_load_no_scipy(tmp_path):
    # params, simulate, she and compare (at zero and nonzero slopes) run on numpy
    # alone: a fresh process that ran them has loaded no scipy module
    _run_guard(_SAMPLING_GUARD, tmp_path)


def test_exact_kinds_load_no_scipy_special_or_linalg(tmp_path):
    # kernel, identities and audit-all, the dense exact generator included, load
    # no scipy module at all, so neither scipy.special nor scipy.linalg, and no
    # numpy.random module
    _run_guard(_EXACT_GUARD, tmp_path)


def test_audit_all_manifest_metrics(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 16\n[identities]\nn_sites = 16\n"
                   "cstar_n = 12\ncstar_tbar = 0.5\n")
    out = tmp_path / "runs"
    assert run_cli(["audit-all", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    stages = manifest["metrics"]["stages"]
    assert list(stages) == ["params", "kernel", "identities", "stationary"]
    assert all(s > 0 for s in stages.values())
    assert sum(manifest["metrics"]["identities"].values()) <= stages["identities"]
    assert set(manifest["metrics"]["identities"]) == {"key_identity_s", "c_star_s"}
    assert list(manifest["metrics"]["kernel"]) == ["bound_audit_s"]
    assert 0 < manifest["metrics"]["kernel"]["bound_audit_s"] <= stages["kernel"]
    assert manifest["metrics"]["peak_rss_mb"] > 0
    # numpy's OpenBLAS alone, whatever an earlier test in this process imported
    blas = manifest["metrics"]["blas"]
    assert list(blas) == ["threads", "library"] and blas["threads"] >= 1
    assert 0 < sum(stages.values()) <= manifest["wall_clock_s"]
    assert "manifest.json" not in manifest["files"]


def test_audit_all_builds_each_exact_object_once(tmp_path, monkeypatch):
    # one spectrum per stage that needs one (model, identities, c-star); one
    # Green matrix, one block exponential and one image expansion in the whole pass
    from asepkpz import greens, kernels

    counts = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        for mod in [m for k, m in list(sys.modules.items()) if k.startswith("asepkpz")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    count(greens, "f_matrix_quadrature")
    count(greens, "green_matrix")
    count(kernels, "build_image_expansion")
    count(kernels, "solve_interval_spectrum")
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nn_sites = 16\n[identities]\nn_sites = 16\n"
                   "cstar_n = 12\ncstar_tbar = 0.5\n")
    assert run_cli(["audit-all", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    assert counts == {"f_matrix_quadrature": 1, "green_matrix": 1, "build_image_expansion": 1,
                      "solve_interval_spectrum": 3}


@pytest.mark.parametrize("kind, ini, builds", [
    ("params", _SMALL, 4), ("simulate", "[run]\nreplicas = 2\n" + _SMALL, 1),
    ("kernel", _SMALL, 1), ("she", "[run]\nreplicas = 4\n[she]\nm = 8\n", 1),
    ("audit-all", _SMALL, 4),
], ids=["params", "simulate", "kernel", "she", "audit-all"])
def test_each_kind_builds_its_model_once(tmp_path, monkeypatch, kind, ini, builds):
    # _validate builds the model once and the run reads that build; params, and
    # audit-all through it, adds the three epsilons of expansion_audit
    from asepkpz import params

    calls = []
    build = params.build_params

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for mod in [m for k, m in list(sys.modules.items()) if k.startswith("asepkpz")]:
        if getattr(mod, "build_params", None) is build:
            monkeypatch.setattr(mod, "build_params", counted)
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    assert run_cli([kind, "--config", str(cfg), "--out", str(tmp_path / "runs")]) in (0, 1)
    assert len(calls) == builds, calls
