"""Batch experiment runner.

    asepkpz <kind> --config FILE [--seed U64] [--out DIR] [--force] [--threads K]

Kinds: params | simulate | kernel | identities | she | compare | audit-all,
plus `config --print-defaults`.  Configuration is a flat INI file with one
section per module; every run writes its artifacts plus a manifest (config
snapshot, versions, wall clock, per-check status, file hashes and, for
`simulate` and `compare`, the sampler's throughput) into a directory
addressed by the config hash.  Exit codes: 0 all checks passed,
1 an enabled assertion failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .engine import (Lattice, alternating_eta, bernoulli_eta, exact_generator,
                     simulate_replicas, state_etas, stationary_measure)
from .gartner import rescale
from .greens import (c_star_estimate, green_corner_closed_form, green_matrix,
                     key_identity, report_to_json, summation_by_parts_audit)
from .kernels import (interval_kernel_image, interval_kernel_spectral,
                      kernel_bound_audit, solve_interval_spectrum)
from .params import (ScalingParams, build_params, equal_density_mu, expansion_audit,
                     params_from_mu, phase_point)
from .she import (asep_she_compare, build_grid, mean_field, run_interval_ensemble,
                  sample_she_ensemble, var_gap_trend)

DEFAULTS = """\
[run]
; master seed for every stochastic component
seed = 20240901
; number of independent replicas for Monte Carlo kinds
replicas = 200
; worker threads (fallback: ASEPKPZ_THREADS); results are thread-count invariant;
; the ASEP kinds gain no speed from more threads, the option shows the invariance
threads = 1
; output root; the run lands in <out>/<config-hash>/
out = runs

[model]
; interval lattice size; epsilon = 1/n_sites exactly
n_sites = 32
; Robin slopes (mu = 1 - eps*slope)
slope_a = 0.0
slope_b = 0.0
; lattice kind: interval | half_line
lattice = interval
; half-line only: free epsilon and truncation length
epsilon = 0.03125
truncation = 128

[simulate]
; macroscopic horizon T (microscopic horizon = T / eps^2)
horizon_macro = 0.1
; macroscopic sample times, comma separated
sample_times = 0.0, 0.05, 0.1
; initial condition: bernoulli_half | alternating
initial = bernoulli_half

[kernel]
; kernel dump times (microscopic)
times = 1.0, 10.0
; image-expansion depth
depth = 6

[identities]
; lattice size for the interval identities
n_sites = 100
slope_a = 1.0
slope_b = 1.0
; c-star audit size and horizon
cstar_n = 32
cstar_tbar = 1.0

[she]
; grid cells, horizon, and output times
m = 32
horizon = 0.1
output_times = 0.05, 0.1

[compare]
; epsilon list as inverse sizes, comma separated
inverse_eps = 32, 64
t_macro = 0.1
x_points = 9
"""


class ConfigError(Exception):
    pass


def _parse_list(s: str, cast=float) -> list:
    return [cast(tok.strip()) for tok in s.split(",") if tok.strip()]


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read_string(DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        read = cfg.read(path)
        if not read:
            raise ConfigError(f"config file unreadable: {path}")
    return cfg


def config_hash(cfg: configparser.ConfigParser, kind: str, seed: int) -> str:
    buf = io.StringIO()
    cfg.write(buf)
    digest = hashlib.sha256(f"{kind}|{seed}|{buf.getvalue()}".encode()).hexdigest()
    return digest[:16]


def fmt(x) -> str:
    """Round-trip-exact float formatting for CSV artifacts."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


COMPARE_COLUMNS = ["epsilon", "T", "X", "asep_mean", "she_mean", "mean_gap",
                   "asep_var", "she_var", "var_gap", "mc_sigma"]


def write_compare_csv(path: str, rows: list[dict]) -> None:
    """compare.csv: the `asep_she_compare` rows in COMPARE_COLUMNS order."""
    write_csv(path, COMPARE_COLUMNS, [[r[c] for c in COMPARE_COLUMNS] for r in rows])


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _sampler_metrics(stage: str, replicas: int, events: int, wall_s: float) -> dict:
    """One manifest `metrics` record of an ASEP sampling stage (every
    Gillespie event is accepted)."""
    return {"stage": stage, "replicas": replicas, "accepted_events": events,
            "wall_s": wall_s, "events_per_s": events / wall_s if wall_s > 0 else 0.0}


def _model_from_config(cfg) -> tuple:
    sec = cfg["model"]
    kind = sec.get("lattice", "interval")
    if kind == "interval":
        n = sec.getint("n_sites")
        scaling = ScalingParams.interval(n, sec.getfloat("slope_a"), sec.getfloat("slope_b"))
        lattice = Lattice.interval(n)
    elif kind == "half_line":
        scaling = ScalingParams.half_line(sec.getfloat("epsilon"), sec.getfloat("slope_a"))
        lattice = Lattice.half_line(sec.getint("truncation"))
    else:
        raise ConfigError(f"unknown lattice kind {kind!r}")
    return build_params(scaling), scaling, lattice


def _validate(cfg, kind: str) -> list[str]:
    problems = []
    try:
        replicas = cfg["run"].getint("replicas")
        if replicas < 1:
            problems.append("run.replicas must be >= 1")
    except ValueError:
        problems.append("run.replicas must be an integer")
    if kind in ("params", "simulate", "compare", "audit-all", "she", "kernel"):
        try:
            _model_from_config(cfg)
        except (ValueError, ConfigError) as exc:
            problems.append(f"model: {exc}")
    if kind in ("simulate", "compare", "audit-all"):
        try:
            if cfg["simulate"].getfloat("horizon_macro") < 0:
                problems.append("simulate.horizon_macro must be >= 0")
            st = _parse_list(cfg["simulate"]["sample_times"])
            if any(b < a for a, b in zip(st, st[1:])):
                problems.append("simulate.sample_times must be nondecreasing")
        except ValueError as exc:
            problems.append(f"simulate: {exc}")
    return problems


# ---------------------------------------------------------------------------
# experiment kinds

def run_params(cfg, out, seed, threads, checks):
    params, scaling, _ = _model_from_config(cfg)
    diag = phase_point(params)
    manifest_data = {
        "scaling": scaling.to_config_dict(),
        "derived": {
            "p": params.p, "q": params.q, "alpha": params.alpha, "beta": params.beta,
            "gamma": params.gamma, "delta": params.delta, "mu_a": params.mu_a,
            "mu_b": params.mu_b, "lambda": params.lam, "nu": params.nu,
            "a_par": diag.a_par, "b_par": diag.b_par, "rho_a": diag.rho_a,
            "rho_b": diag.rho_b, "current": diag.current, "phase": diag.phase.value,
        },
    }
    with open(os.path.join(out, "params.json"), "w") as fh:
        json.dump(manifest_data, fh, indent=2)
    rows = expansion_audit([scaling.epsilon / 4 ** i for i in range(3)],
                           scaling.slope_a, scaling.slope_b)
    write_csv(os.path.join(out, "expansion_audit.csv"),
              ["quantity", "epsilon", "exact", "expansion", "residual", "ratio"],
              [[r["quantity"], r["epsilon"], r["exact"], r["expansion"],
                r["residual"], r["ratio"]] for r in rows])
    checks["rate_relations"] = (abs(params.alpha / params.p + params.gamma / params.q - 1) < 1e-14
                                and abs(params.beta / params.p + params.delta / params.q - 1) < 1e-14)


def run_simulate(cfg, out, seed, threads, checks):
    params, scaling, lattice = _model_from_config(cfg)
    eps = scaling.epsilon
    horizon_macro = cfg["simulate"].getfloat("horizon_macro")
    sample_macro = _parse_list(cfg["simulate"]["sample_times"])
    sample_micro = [t / (eps * eps) for t in sample_macro]
    horizon = horizon_macro / (eps * eps)
    replicas = cfg["run"].getint("replicas")
    initial_kind = cfg["simulate"].get("initial", "bernoulli_half")

    if initial_kind == "bernoulli_half":
        def init(rng):
            return bernoulli_eta(lattice.n_sites, rng)
    elif initial_kind == "alternating":
        def init(rng):
            return alternating_eta(lattice.n_sites)
    else:
        raise ConfigError(f"unknown initial condition {initial_kind!r}")

    t0 = time.perf_counter()
    trajs = simulate_replicas(init, params, lattice, horizon, sample_micro, replicas, seed,
                              track_exp_integrals=(-params.lam, params.nu), threads=threads)
    wall_s = time.perf_counter() - t0
    for r, tr in enumerate(trajs[: min(replicas, 8)]):  # full dumps for the first few
        rows_eta, rows_h = [], []
        for i, t in enumerate(tr.sample_times):
            for x in range(lattice.n_sites):
                rows_eta.append([t, x + 1, int(tr.etas[i][x])])
            for x in range(lattice.n_heights):
                rows_h.append([t, x, int(tr.heights[i][x])])
        write_csv(os.path.join(out, f"trajectory_eta_r{r:03d}.csv"),
                  ["time", "site", "eta"], rows_eta)
        write_csv(os.path.join(out, f"trajectory_heights_r{r:03d}.csv"),
                  ["time", "site", "h"], rows_h)
    # mean scaled field over replicas, exported on the macroscopic grid
    rows_z = []
    X = np.arange(lattice.n_heights) * eps
    for i, t_mac in enumerate(sample_macro):
        fields = np.stack([rescale(tr, params, [t_mac], X)[0].values for tr in trajs])
        rows_z.extend([[t_mac, X[j], fields.mean(axis=0)[j]] for j in range(len(X))])
    write_csv(os.path.join(out, "scaled_field_mean.csv"), ["T", "X", "value"], rows_z)
    checks["height_consistency"] = all(
        bool(np.all(np.diff(tr.heights[i]) == tr.etas[i]))
        for tr in trajs[:8] for i in range(len(tr.sample_times)))
    return {"sampler": [_sampler_metrics(f"{lattice.kind} n={lattice.n_sites}", replicas,
                                        sum(tr.event_count for tr in trajs), wall_s)]}


def run_kernel(cfg, out, seed, threads, checks):
    params, scaling, lattice = _model_from_config(cfg)
    n = lattice.n_sites
    spec = solve_interval_spectrum(n, params.mu_a, params.mu_b)
    write_csv(os.path.join(out, "spectrum.csv"), ["k", "omega", "lambda"],
              [[k, spec.omegas[k], spec.lambdas[k]] for k in range(n + 1)])
    np.savetxt(os.path.join(out, "eigvecs.txt"), spec.eigvecs)
    rows = []
    depth = cfg["kernel"].getint("depth")
    ok = True
    for t in _parse_list(cfg["kernel"]["times"]):
        ker = interval_kernel_spectral(spec, t)
        img = interval_kernel_image(n, params.mu_a, params.mu_b, t, depth=depth)
        gap = float(np.max(np.abs(ker.values - img.values)))
        ok &= gap <= 1e-8 and ker.symmetry_error() <= 1e-10 and ker.min_entry() >= -1e-12
        for x in range(n + 1):
            for y in range(n + 1):
                rows.append([t, x, y, ker.values[x, y]])
    write_csv(os.path.join(out, "kernel.csv"), ["t", "x", "y", "value"], rows)
    audits = kernel_bound_audit(scaling.epsilon, scaling.slope_a, scaling.slope_b,
                                n_interval=n)
    with open(os.path.join(out, "bound_audits.json"), "w") as fh:
        json.dump([a.as_dict() for a in audits], fh, indent=2)
    checks["image_vs_spectral"] = ok
    checks["bound_audits_stable"] = all(a.stable for a in audits)


def run_identities(cfg, out, seed, threads, checks):
    sec = cfg["identities"]
    n = sec.getint("n_sites")
    A, B = sec.getfloat("slope_a"), sec.getfloat("slope_b")
    eps = 1.0 / n
    mu_a, mu_b = 1.0 - eps * A, 1.0 - eps * B
    reports = []
    rep = key_identity("interval", n // 2, n // 2, n=n, mu_a=mu_a, mu_b=mu_b)
    reports.append(rep)
    reports.append(key_identity("interval", n // 2, n // 2 + 1, n=n, mu_a=mu_a, mu_b=mu_b))
    checks["key_identity_diagonal"] = rep["abs_err"] <= 1e-9 and rep["route_gap"] <= 1e-7
    g = green_matrix(n, mu_a, mu_b)
    checks["green_closed_form"] = abs(g.values[0, 0]
                                      - green_corner_closed_form(n, mu_a, mu_b)) <= 1e-10
    sbp = summation_by_parts_audit(32, seed=seed)
    checks["summation_by_parts"] = max(sbp.values()) <= 1e-12
    ncs = sec.getint("cstar_n")
    cs = c_star_estimate(ncs, 1.0 - A / ncs, 1.0 - B / ncs, sec.getfloat("cstar_tbar"), 1.0 / ncs)
    checks["c_star_below_one"] = cs["max"] < 1.0
    reports.append({"identity": "c-star", "params": {"n": ncs}, "value": cs["max"],
                    "expected": "< 1", "abs_err": None, "route_gap": None,
                    "tail_bound": None})
    with open(os.path.join(out, "identities.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(
            report_to_json({k: v for k, v in r.items() if k != "per_x"})
            for r in reports) + "\n]\n")


def run_she(cfg, out, seed, threads, checks):
    sec = cfg["she"]
    model = cfg["model"]
    grid = build_grid(1.0, sec.getint("m"), model.getfloat("slope_a"),
                      model.getfloat("slope_b"))
    times = _parse_list(sec["output_times"])
    z0 = np.ones(grid.m + 1)
    stats = sample_she_ensemble(z0, grid, cfg["run"].getint("replicas"), seed,
                                times, threads=threads)
    rows = []
    for i, t in enumerate(times):
        mf = mean_field(z0, grid, t)
        for j, x in enumerate(grid.x):
            rows.append([t, x, stats["mean"][i][j], stats["std_error"][i][j], mf[j]])
    write_csv(os.path.join(out, "she_moments.csv"),
              ["T", "X", "mean", "se", "mean_field"], rows)
    z = np.abs(stats["mean"][-1] - mean_field(z0, grid, times[-1])) \
        / np.maximum(stats["std_error"][-1], 1e-300)
    checks["she_mean_within_3sigma"] = bool(np.max(z) <= 3.0)
    checks["she_fault_rate"] = stats["fault_rate"] < 1e-3


def run_compare(cfg, out, seed, threads, checks):
    sec = cfg["compare"]
    inv = _parse_list(sec["inverse_eps"], int)
    T = sec.getfloat("t_macro")
    model = cfg["model"]
    A, B = model.getfloat("slope_a"), model.getfloat("slope_b")
    replicas = cfg["run"].getint("replicas")
    X = np.linspace(0.0, 1.0, sec.getint("x_points"))
    ensembles = [run_interval_ensemble(n, A, B, T, replicas, (seed, n), threads=threads)
                 for n in inv]
    rows = asep_she_compare(ensembles, T, X)
    write_compare_csv(os.path.join(out, "compare.csv"), rows)
    # martingale diagnostics of the coarsest ensemble, reduced in the same pass
    diag = max(ensembles, key=lambda e: e["eps"])["martingale"]
    with open(os.path.join(out, "diagnostics.json"), "w") as fh:
        json.dump(diag, fh, indent=2)
    checks["martingale_mean_3sigma"] = all(r["z_N"] <= 3.0 for r in diag)
    checks["martingale_gap_3sigma"] = all(r["z_gap"] <= 3.0 for r in diag)
    for r in rows:
        key = f"mean_channel_3sigma_eps_{r['epsilon']:.6g}"
        z = r["mean_gap"] / max(r["mc_sigma"], 1e-300)
        checks[key] = checks.get(key, True) and z <= 3.0
    if len(inv) >= 2:
        g_coarse, g_fine, sig = var_gap_trend(rows)
        checks["var_gap_non_increasing"] = g_fine <= g_coarse + 2.0 * sig
    return {"sampler": [_sampler_metrics(f"interval n={e['n']}", e["n_replicas"], e["events"],
                                        e["sampler_s"]) for e in ensembles]}


def run_audit_all(cfg, out, seed, threads, checks):
    run_params(cfg, out, seed, threads, checks)
    run_kernel(cfg, out, seed, threads, checks)
    run_identities(cfg, out, seed, threads, checks)
    # stationary-measure spot check on the product-Bernoulli line
    eps = 0.25
    mu_b = 1.1
    mu_a = equal_density_mu(eps, mu_b)
    p = params_from_mu(eps, mu_a, mu_b)
    Q = exact_generator(p, 5)
    pi = stationary_measure(Q)
    rho = phase_point(p).rho_a
    bern = np.prod(np.where(state_etas(5) > 0, rho, 1 - rho), axis=1)
    checks["stationary_product_bernoulli"] = float(0.5 * np.abs(pi - bern).sum()) <= 1e-10


KINDS = {
    "params": run_params,
    "simulate": run_simulate,
    "kernel": run_kernel,
    "identities": run_identities,
    "she": run_she,
    "compare": run_compare,
    "audit-all": run_audit_all,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="asepkpz", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("kind", choices=list(KINDS) + ["config"])
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--force", action="store_true")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--print-defaults", action="store_true")
    args = ap.parse_args(argv)

    if args.kind == "config":
        if args.print_defaults:
            sys.stdout.write(DEFAULTS)
            return 0
        print("use `asepkpz config --print-defaults`", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    problems = _validate(cfg, args.kind)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else cfg["run"].getint("seed")
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("ASEPKPZ_THREADS", cfg["run"].getint("threads")))
    out_root = args.out if args.out is not None else cfg["run"].get("out")
    digest = config_hash(cfg, args.kind, seed)
    out = os.path.join(out_root, digest)
    if os.path.exists(out) and not args.force:
        print(f"run directory {out} exists (same config hash); use --force to redo",
              file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)

    checks: dict[str, bool] = {}
    t0 = time.time()
    status = "complete"
    try:
        metrics = KINDS[args.kind](cfg, out, seed, threads, checks)
    except (ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = "incomplete"
        _write_manifest(cfg, args.kind, seed, threads, out, checks, t0, status, None)
        return 2
    _write_manifest(cfg, args.kind, seed, threads, out, checks, t0, status, metrics)
    failed = [k for k, ok in checks.items() if not ok]
    for k, ok in sorted(checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {k}")
    if failed:
        return 1
    return 0


def _write_manifest(cfg, kind, seed, threads, out, checks, t0, status, metrics):
    buf = io.StringIO()
    cfg.write(buf)
    inventory = {}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        inventory[name] = sha256_file(os.path.join(out, name))
    manifest = {
        "tool_version": __version__,
        "kind": kind,
        "seed": seed,
        "threads": threads,
        "status": status,
        "wall_clock_s": time.time() - t0,
        "config": buf.getvalue(),
        "checks": {k: bool(v) for k, v in checks.items()},
        "files": inventory,
        "metrics": metrics or {},
    }
    tmp = os.path.join(out, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(tmp, os.path.join(out, "manifest.json"))


if __name__ == "__main__":
    sys.exit(main())
