"""Batch experiment runner.

    asepkpz <kind> --config FILE [--seed U64] [--out DIR] [--force] [--threads K]

Kinds: params | simulate | kernel | identities | she | compare | audit-all,
plus `config --print-defaults`.  Configuration is a flat INI file with one
section per module; every run writes its artifacts plus a manifest (config
snapshot, versions, wall clock, per-check status, file hashes, peak RSS,
BLAS thread count, for `simulate` and `compare` the sampler's rings,
accepted moves and throughput, for `she` its faulted replicas, for
`audit-all` the wall time of each stage) into a directory addressed by the
config hash.
Exit codes: 0 all checks passed, 1 an enabled assertion failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .engine import (Lattice, alternating_eta, bernoulli_eta, exact_generator,
                     simulate_replicas, state_etas, z_field)
from .greens import (c_star_estimate, green_corner_closed_form, has_spectral_gap,
                     key_identity, summation_by_parts_audit)
from .kernels import (build_image_expansion, image_depth, interval_kernel_image,
                      interval_kernel_spectral, kernel_bound_audit, robin_laplacian_matrix,
                      solve_interval_spectrum)
from .params import (build_params, equal_density_mu, expansion_audit, params_from_mu,
                     phase_point)
from .she import (COMPARE_COLUMNS, COMPARE_GRID_CELLS, VAR_MIN_REPLICAS, build_grid, compare,
                  mean_field, sample_she_ensemble, second_moment)

# [simulate] initial -> the start of a replica of n sites drawn from its stream
_INITIAL = {"bernoulli_half": bernoulli_eta, "alternating": lambda n, rng: alternating_eta(n)}


def _parse_list(s: str, cast=float) -> list:
    return [cast(tok.strip()) for tok in s.split(",") if tok.strip()]


_ALL = ("params", "simulate", "kernel", "identities", "she", "compare", "audit-all")
_MODEL = tuple(k for k in _ALL if k != "identities")


def _finite_time(t: float) -> bool:
    return math.isfinite(t) and t >= 0


# One row per config key: (section, key, default as written, type, the kinds that
# check it, its bound as a predicate on the parsed value or None, the rule reported
# when the bound fails, {value} being the value, and in [run] also when the value
# does not parse (elsewhere that reports "section: error"), its comment).  A [model]
# key that one lattice alone reads names its kinds per lattice.  DEFAULTS is written
# from the rows; `_validate` parses and bounds the rows of the kind it checks, and the
# kind runs on the values it returns.  A bound states what a value must be, so NaN
# fails it, every time must be finite and every list must hold a value.
KEYS = [
    ("run", "seed", "20240901", int, _ALL, lambda v: 0 <= v < 2 ** 64,
     "run.seed must be an integer in [0, 2^64)",
     "master seed for every stochastic component, an integer in [0, 2^64)"),
    # the minimum depends on the kind (`_validate`)
    ("run", "replicas", "200", int, _ALL, None, "run.replicas must be an integer",
     "number of independent replicas for Monte Carlo kinds"),
    ("run", "threads", "1", int, _ALL, lambda v: v >= 1, "run.threads must be an integer >= 1",
     "worker threads, >= 1; results are thread-count invariant;\n"
     "the ASEP kinds gain no speed from more threads, the option shows the invariance"),
    ("run", "out", "runs", str, _ALL, None, None,
     "output root; the run lands in <out>/<config-hash>/"),
    ("model", "n_sites", "32", int, {"interval": _MODEL}, lambda n: n >= 1,
     "model: n_sites must be >= 1", "interval lattice size; epsilon = 1/n_sites exactly"),
    ("model", "slope_a", "0.0", float, _MODEL, None, None, "Robin slopes (mu = 1 - eps*slope)"),
    # she and compare read both slopes for their SHE grids on either lattice
    ("model", "slope_b", "0.0", float, {"interval": _MODEL, "half_line": ("she", "compare")},
     None, None, ""),
    ("model", "lattice", "interval", str, _MODEL, lambda v: v in ("interval", "half_line"),
     "model: unknown lattice kind {value!r}", "lattice kind: interval | half_line"),
    ("model", "epsilon", "0.03125", float, {"half_line": _MODEL}, lambda e: 0 < e <= 1,
     "model: epsilon must be in (0, 1]", "half-line only: free epsilon and truncation length"),
    ("model", "truncation", "128", int, {"half_line": _MODEL}, None, None, ""),
    ("simulate", "horizon_macro", "0.1", float, ("simulate",), _finite_time,
     "simulate.horizon_macro must be >= 0",
     "macroscopic horizon T (microscopic horizon = T / eps^2)"),
    ("simulate", "sample_times", "0.0, 0.05, 0.1", _parse_list, ("simulate",),
     lambda ts: ts and all(b >= a for a, b in zip(ts, ts[1:])),
     "simulate.sample_times must list times, nondecreasing",
     "macroscopic sample times, comma separated"),
    ("simulate", "initial", "bernoulli_half", str, ("simulate",), lambda v: v in _INITIAL,
     "simulate.initial must be one of " + ", ".join(_INITIAL),
     "initial condition: bernoulli_half | alternating"),
    # run_kernel's image depth grows like sqrt(t): 1e6 caps it at 16300 + 5 (N+1) rows
    ("kernel", "times", "1.0, 10.0", _parse_list, ("kernel", "audit-all"),
     lambda ts: ts and all(0 <= t <= 1e6 for t in ts), "kernel.times must list times in [0, 1e6]",
     "kernel dump times (microscopic)"),
    # the key identity is read at sites n/2 and n/2 + 1 of the N x N matrix F
    ("identities", "n_sites", "100", int, ("identities", "audit-all"), lambda n: n >= 3,
     "identities.n_sites must be >= 3", "lattice size for the interval identities"),
    ("identities", "slope_a", "1.0", float, ("identities", "audit-all"), None, None, ""),
    ("identities", "slope_b", "1.0", float, ("identities", "audit-all"), None, None, ""),
    # c-star is a maximum over the bulk sites 1..n-1 up to time tbar
    ("identities", "cstar_n", "32", int, ("identities", "audit-all"), lambda n: n >= 2,
     "identities.cstar_n must be >= 2: c-star needs a bulk site",
     "c-star audit size and horizon"),
    ("identities", "cstar_tbar", "1.0", float, ("identities", "audit-all"),
     lambda t: math.isfinite(t) and t > 0, "identities.cstar_tbar must be > 0", ""),
    # build_grid bounds the cells and the walls (`_validate`)
    ("she", "m", "32", int, ("she",), None, None,
     "grid cells (mu = 1 - slope/m at each wall) and output times"),
    ("she", "output_times", "0.05, 0.1", _parse_list, ("she",),
     lambda ts: ts and all(map(_finite_time, ts)) and all(b >= a for a, b in zip(ts, ts[1:])),
     "she.output_times must list times >= 0, nondecreasing", ""),
    ("compare", "inverse_eps", "32, 64", lambda s: _parse_list(s, int), ("compare",),
     lambda inv: inv and min(inv) >= 1 and len(set(inv)) == len(inv),
     "compare.inverse_eps must list one or more distinct sizes >= 1",
     "epsilon list as inverse sizes, comma separated"),
    ("compare", "t_macro", "0.1", float, ("compare",), _finite_time,
     "compare.t_macro must be >= 0", ""),
    ("compare", "x_points", "9", int, ("compare",), lambda x: x >= 1,
     "compare.x_points must be >= 1", ""),
]

DEFAULTS = "\n".join(
    f"[{section}]\n" + "".join("".join(f"; {line}\n" for line in comment.splitlines())
                               + f"{key} = {default}\n"
                               for sec, key, default, *_, comment in KEYS if sec == section)
    for section in dict.fromkeys(row[0] for row in KEYS))


def _rows(kind: str, lattice: str) -> list:
    """The KEYS rows that `kind` checks on `lattice`."""
    return [row for row in KEYS
            if kind in (row[4].get(lattice, ()) if isinstance(row[4], dict) else row[4])]


class ConfigError(Exception):
    pass


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


class Blocks:
    """Rows for `write_csv` as blocks (lead, columns): the rows (*lead, *rest),
    rest running down columns, equal-length sequences of one value type each
    (a numpy column's `.tolist()`, a range).  Iterates as those rows."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def __iter__(self):
        return ((*lead, *rest) for lead, columns in self.blocks for rest in zip(*columns))


def _fill(line: str, columns) -> str:
    """The `%` template line once per row, filled down columns in one `%`."""
    return (line * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def write_csv(path: str, header: list[str], rows) -> None:
    """Writes rows, a `Blocks` or a list of rows, in one call.  Each block's
    lead is formatted once by `fmt`, and its body comes from `_fill` of one
    template typed by its first row: "%.17g" for a float, "%s" for anything
    else.  A row list is the lead-free blocks of its runs of rows with the same
    value types.  The bytes equal those of `fmt` on each value."""
    blocks = rows.blocks if isinstance(rows, Blocks) else [
        ((), list(zip(*run))) for _, run in itertools.groupby(rows, lambda r: list(map(type, r)))]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + "".join(
            _fill("".join(fmt(v) + "," for v in lead).replace("%", "%%") + ",".join(
                "%.17g" if isinstance(c[0], float) else "%s" for c in columns) + "\n", columns)
            for lead, columns in blocks))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# the thread-count getter and setter, {} = get | set, under the names of the
# scipy-openblas wheels and of a plain OpenBLAS, 64-bit interface first
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.lru_cache(maxsize=None)
def _openblas(libdir: str) -> dict:
    """The OpenBLAS that numpy loaded from libdir (it runs the dense products), as
    {"library": file, "get": fn, "set": fn or None}, or {"reason": ...} where
    none is loaded; looked up once per process."""
    import ctypes
    import glob
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:   # RTLD_NOLOAD: the copy already loaded, never a fresh one
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
        except OSError:
            continue
        fns = {}
        for op, argtypes, restype in (("get", [], ctypes.c_int), ("set", [ctypes.c_int], None)):
            fn = next((getattr(lib, sym.format(op)) for sym in _OPENBLAS_SYMBOLS
                       if hasattr(lib, sym.format(op))), None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
            fns[op] = fn
        if fns["get"] is not None:
            return {"library": os.path.basename(path), **fns}
    return {"reason": f"no loaded OpenBLAS under {libdir}"}


def numpy_openblas() -> dict:
    """`_openblas` of the numpy imported now."""
    return _openblas(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"))


def blas_threads() -> dict:
    """The thread count of the OpenBLAS that numpy loaded, read now (it can
    change at run time), as {"threads", "library"}; threads is None with the
    reason where the count could not be read."""
    blas = numpy_openblas()
    if "reason" in blas:
        return {"threads": None, "reason": blas["reason"]}
    return {"threads": blas["get"](), "library": blas["library"]}


@contextlib.contextmanager
def one_blas_thread(record: dict):
    """Runs the block with numpy's OpenBLAS at one thread and restores the count
    after it.  Where no thread setter is found the block runs unpinned, and
    record["blas_unpinned"] says why."""
    blas = numpy_openblas()
    setter = blas.get("set")
    if setter is None:
        record["blas_unpinned"] = blas.get("reason") or f"{blas['library']}: no thread setter"
        yield
        return
    before = blas["get"]()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _sampler_metrics(stage: str, replicas: int, rings: int, events: int,
                     wall_s: float) -> dict:
    """One manifest `metrics` record of an ASEP sampling stage: the clock
    rings the sampler proposed and the moves it accepted."""
    return {"stage": stage, "replicas": replicas, "rings": rings, "accepted_events": events,
            "wall_s": wall_s, "events_per_s": events / wall_s if wall_s > 0 else 0.0}


def _model_from_config(v: dict) -> tuple:
    """(params, lattice, scaling) of the [model] values v[model, key] that
    passed their bounds; scaling is the params.json record of (epsilon,
    n_sites, slope_a, slope_b).  On the interval epsilon = 1/N; the half line
    has n_sites None and slope_b 0, whatever [model] says."""
    if v["model", "lattice"] == "interval":
        n = v["model", "n_sites"]
        eps, slope_b, lattice = 1.0 / n, v["model", "slope_b"], Lattice.interval(n)
    else:
        n, slope_b = None, 0.0
        eps, lattice = v["model", "epsilon"], Lattice.half_line(v["model", "truncation"])
    scaling = {"epsilon": eps, "n_sites": n, "slope_a": v["model", "slope_a"],
               "slope_b": slope_b}
    return build_params(eps, scaling["slope_a"], slope_b), lattice, scaling


def _identities_mus(v: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    """(mu_A, mu_B) of the key identity, 1 - (1/n) slope at n_sites, and of
    c-star, 1 - slope/cstar_n, from the [identities] values v[identities, key]."""
    n, ncs = v["identities", "n_sites"], v["identities", "cstar_n"]
    slopes = (v["identities", "slope_a"], v["identities", "slope_b"])
    return tuple(1.0 - (1.0 / n) * a for a in slopes), tuple(1.0 - a / ncs for a in slopes)


def _validate(cfg, kind: str, flags: dict | None = None) -> tuple[dict, list[str]]:
    """(values, problems): values[section, key] for each KEYS row that `kind` checks, parsed
    from cfg or taken from flags[section, key] where that is not None, and held to its bound;
    then the checks that span keys, on the values that passed, with the run's one build of the
    model (values["model"]), of the key identity's spectrum (values["identities"]) and of the
    she kind's SHE grid (values["she"]).  A key in cfg that no KEYS row names is a problem.
    The kinds run on values and never read cfg."""
    problems = [f"{sec}.{key} is not a config key" for sec in cfg.sections() for key in cfg[sec]
                if not any(row[:2] == (sec, key) for row in KEYS)]
    v, failed = {}, set()
    for sec, key, _, cast, _, ok, rule, _ in _rows(kind, cfg["model"]["lattice"]):
        value = (flags or {}).get((sec, key))
        try:
            value = cast(cfg[sec][key]) if value is None else value
        except ValueError as exc:
            problems.append(rule if sec == "run" else f"{sec}: {exc}")
            failed.add(sec)
            continue
        if ok is None or ok(value):
            v[sec, key] = value
        else:
            problems.append(rule.format(value=value))
            failed.add(sec)
    need, why = {"compare": (VAR_MIN_REPLICAS, "the variance error needs two batches of two"),
                 "she": (2, "a standard error needs two")}.get(kind, (1, None))
    if v.get(("run", "replicas"), need) < need:
        problems.append(f"run.replicas must be >= {need}" + (f" for {kind}: {why}" if why else ""))
    if kind in _MODEL and "model" not in failed:
        try:
            v["model"] = _model_from_config(v)
        except ValueError as exc:
            problems.append(f"model: {exc}")
    st, horizon = v.get(("simulate", "sample_times")), v.get(("simulate", "horizon_macro"))
    if st and horizon is not None and not 0.0 <= st[0] <= st[-1] <= horizon:
        problems.append("simulate.sample_times must lie in [0, horizon_macro]")
    slopes = [v.get(("model", s)) for s in ("slope_a", "slope_b")]
    if kind == "compare" and None not in slopes:
        # the models compare runs: one per size, and the SHE grid's walls
        for n in v.get(("compare", "inverse_eps"), ()):
            try:
                build_params(1.0 / n, *slopes)
            except ValueError as exc:
                problems.append(f"compare.inverse_eps = {n}: {exc}")
        try:
            build_grid(1.0, COMPARE_GRID_CELLS, *slopes)
        except ValueError as exc:
            problems.append(f"compare: model.slope_a, slope_b: {exc}")
    if ("she", "m") in v and None not in slopes:
        try:
            v["she"] = build_grid(1.0, v["she", "m"], *slopes)
        except ValueError as exc:
            problems.append(f"she.m: {exc}")
    if all(("identities", k) in v for k in ("n_sites", "cstar_n", "slope_a", "slope_b")):
        key, cstar = _identities_mus(v)
        if all(0.0 <= mu <= 1.0 for mu in key + cstar):
            with one_blas_thread({}):  # its norms at one thread, as the key identity's products
                v["identities"] = solve_interval_spectrum(v["identities", "n_sites"], *key)
        if "identities" not in v or not has_spectral_gap(v["identities"]):
            problems.append("identities.slope_a, slope_b must leave mu = 1 - slope/n in "
                            "[0, 1] and F a spectral gap (lambda_0 >= 1e-13)")
    return v, problems


# ---------------------------------------------------------------------------
# experiment kinds

def run_params(values, out, checks):
    params, _, scaling = values["model"]
    diag = phase_point(params)
    manifest_data = {
        "scaling": scaling,
        "derived": {
            "p": params.p, "q": params.q, "alpha": params.alpha, "beta": params.beta,
            "gamma": params.gamma, "delta": params.delta, "mu_a": params.mu_a,
            "mu_b": params.mu_b, "lambda": params.lam, "nu": params.nu,
            "a_par": diag.a_par, "b_par": diag.b_par, "rho_a": diag.rho_a,
            "rho_b": diag.rho_b, "current": diag.current, "phase": diag.phase.value,
        },
    }
    with open(os.path.join(out, "params.json"), "w") as fh:
        fh.write(json.dumps(manifest_data, indent=2))
    rows = expansion_audit([params.epsilon / 4 ** i for i in range(3)],
                           scaling["slope_a"], scaling["slope_b"])
    write_csv(os.path.join(out, "expansion_audit.csv"),
              ["quantity", "epsilon", "exact", "expansion", "residual", "ratio"],
              [[r["quantity"], r["epsilon"], r["exact"], r["expansion"],
                r["residual"], r["ratio"]] for r in rows])
    checks["rate_relations"] = (abs(params.alpha / params.p + params.gamma / params.q - 1) < 1e-14
                                and abs(params.beta / params.p + params.delta / params.q - 1) < 1e-14)


def run_simulate(values, out, checks):
    params, lattice, _ = values["model"]
    eps = params.epsilon
    sample_macro = values["simulate", "sample_times"]
    sample_micro = [t / (eps * eps) for t in sample_macro]
    horizon = values["simulate", "horizon_macro"] / (eps * eps)
    replicas = values["run", "replicas"]
    start = _INITIAL[values["simulate", "initial"]]

    t0 = time.perf_counter()
    traj = simulate_replicas(lambda rng: start(lattice.n_sites, rng), params, lattice, horizon,
                             sample_micro, replicas, values["run", "seed"],
                             threads=values["run", "threads"])
    wall_s = time.perf_counter() - t0
    slopes = np.diff(traj.heights, axis=-1)
    times, sites = traj.sample_times.tolist(), range(lattice.n_heights)
    for r in range(min(replicas, 8)):  # full dumps for the first few, a block per time
        write_csv(os.path.join(out, f"trajectory_eta_r{r:03d}.csv"), ["time", "site", "eta"],
                  Blocks(((t,), (sites[1:], eta)) for t, eta in zip(times, slopes[r].tolist())))
        write_csv(os.path.join(out, f"trajectory_heights_r{r:03d}.csv"), ["time", "site", "h"],
                  Blocks(((t,), (sites, h)) for t, h in zip(times, traj.heights[r].tolist())))
    # mean of Z over replicas at each site x and sampled time, exported at X = x eps
    X = np.arange(lattice.n_heights) * eps
    mean = z_field(traj.heights, traj.sample_times[:, None], params).mean(axis=0)
    write_csv(os.path.join(out, "scaled_field_mean.csv"), ["T", "X", "value"],
              Blocks(((t_mac,), (X.tolist(), m)) for t_mac, m in zip(sample_macro, mean.tolist())))
    # every snapshot of every replica is a height function: slopes +-1
    checks["height_consistency"] = bool(np.all(np.abs(slopes) == 1))
    return {"sampler": [_sampler_metrics(f"{lattice.kind} n={lattice.n_sites}", replicas,
                                        int(traj.ring_count.sum()), int(traj.event_count.sum()),
                                        wall_s)]}


def run_kernel(values, out, checks):
    params, lattice, _ = values["model"]
    n = lattice.n_sites
    spec = solve_interval_spectrum(n, params.mu_a, params.mu_b)
    write_csv(os.path.join(out, "spectrum.csv"), ["k", "omega", "lambda"],
              Blocks([((), (range(n + 1), spec.omegas.tolist(), spec.lambdas.tolist()))]))
    with open(os.path.join(out, "eigvecs.txt"), "w") as fh:  # np.savetxt's bytes
        fh.write(_fill(" ".join(["%.18e"] * (n + 1)) + "\n", spec.eigvecs.T.tolist()))
    xy = [c.tolist() for c in np.divmod(np.arange((n + 1) ** 2), n + 1)]
    blocks = []
    times = values["kernel", "times"]
    expansion = build_image_expansion(n, params.mu_a, params.mu_b, image_depth(n, max(times)))
    ok = True
    for t in times:
        ker = interval_kernel_spectral(spec, t)
        gap = float(np.max(np.abs(ker - interval_kernel_image(expansion, t))))
        ok &= (gap <= 1e-8 and float(np.max(np.abs(ker - ker.T))) <= 1e-10
               and ker.min() >= -1e-12)
        blocks.append(((t,), (*xy, ker.ravel().tolist())))
    write_csv(os.path.join(out, "kernel.csv"), ["t", "x", "y", "value"], Blocks(blocks))
    t0 = time.perf_counter()
    audits = kernel_bound_audit(spec, params.epsilon)
    bound_audit_s = time.perf_counter() - t0
    with open(os.path.join(out, "bound_audits.json"), "w") as fh:
        fh.write(json.dumps([a.as_dict() for a in audits], indent=2))
    checks["image_vs_spectral"] = ok
    checks["bound_audits_stable"] = all(a.stable for a in audits)
    return {"kernel": {"bound_audit_s": bound_audit_s}}


def run_identities(values, out, checks):
    n = values["identities", "n_sites"]
    (mu_a, mu_b), cstar_mus = _identities_mus(values)
    # the key identity's dense products at one BLAS thread, so identities.json
    # does not move with the thread count
    seconds = {}
    t0 = time.perf_counter()
    with one_blas_thread(seconds):
        ki = key_identity(values["identities"])
    seconds["key_identity_s"] = time.perf_counter() - t0
    reports = []
    for x, xb in ((n // 2, n // 2), (n // 2, n // 2 + 1)):
        value, value_quad = float(ki["F"][x, xb]), float(ki["F_quadrature"][x, xb])
        expected = (1.0 - ki["c"]) if x == xb else -ki["c"]
        reports.append({"identity": "key-identity-interval", "x": x, "xb": xb,
                        "params": {"n": n, "mu_a": mu_a, "mu_b": mu_b},
                        "value": value, "value_quadrature": value_quad,
                        "expected": expected, "abs_err": abs(value - expected),
                        "route_gap": abs(value - value_quad),
                        **{k: ki[k] for k in ("tail_bound", "c", "abs_err_max", "route_gap_max",
                                              "green_route_gap", "routes")}})
    checks["key_identity_all_pairs"] = (ki["abs_err_max"] <= 1e-9
                                        and ki["route_gap_max"] <= 1e-7)
    # the closed form against the operator it inverts, and its corner
    G = ki["green"]
    checks["green_closed_form"] = (
        float(np.max(np.abs(robin_laplacian_matrix(n, mu_a, mu_b) @ G - np.eye(n + 1)))) <= 1e-10
        and abs(G[0, 0] - green_corner_closed_form(n, mu_a, mu_b)) <= 1e-12 * G[0, 0])
    sbp = summation_by_parts_audit(32, seed=values["run", "seed"])
    checks["summation_by_parts"] = max(sbp.values()) <= 1e-12
    ncs = values["identities", "cstar_n"]
    t0 = time.perf_counter()
    cs = c_star_estimate(ncs, *cstar_mus, values["identities", "cstar_tbar"], 1.0 / ncs)
    seconds["c_star_s"] = time.perf_counter() - t0
    checks["c_star_below_one"] = cs["max"] < 1.0
    reports.append({"identity": "c-star", "params": {"n": ncs}, "value": cs["max"],
                    "expected": "< 1", "abs_err": None, "route_gap": None,
                    "tail_bound": cs["tail_bound"], "roots": cs["roots"]})
    with open(os.path.join(out, "identities.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, indent=2) for r in reports) + "\n]\n")
    return {"identities": seconds}


def run_she(values, out, checks):
    grid = values["she"]
    times = values["she", "output_times"]
    z0 = np.ones(grid.m + 1)
    replicas = values["run", "replicas"]
    stats = sample_she_ensemble(z0, grid, replicas, values["run", "seed"], times,
                                threads=values["run", "threads"])
    mfs = [mean_field(z0, grid, t) for t in times]
    write_csv(os.path.join(out, "she_moments.csv"), ["T", "X", "mean", "se", "mean_field"],
              Blocks(((t,), (grid.x.tolist(), stats["mean"][i].tolist(),
                             stats["std_error"][i].tolist(), mfs[i].tolist()))
                     for i, t in enumerate(times)))
    # the last time's sample mean against the mean field, each point in units of
    # its exact standard error (from the scheme's own two-point function), all
    # points at the Bonferroni line of a family-wise false-alarm rate of 1e-3
    sigma = np.sqrt((np.diag(second_moment(np.outer(z0, z0), grid, times[-1]))
                     - mfs[-1] ** 2) / stats["n_effective"])
    z = np.abs(stats["mean"][-1] - mfs[-1]) / np.maximum(sigma, 1e-300)
    from statistics import NormalDist  # only here: keeps the other kinds' imports flat
    line = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(z)))
    checks["she_mean_bonferroni_1e-3"] = bool(np.max(z) <= line)
    checks["she_fault_rate"] = stats["fault_rate"] < 1e-3
    return {"she": {"replicas": replicas, "faulted": stats["faulted"],
                    "fault_rate": stats["fault_rate"]}}


def run_compare(values, out, checks):
    result = compare(values["compare", "inverse_eps"], values["model", "slope_a"],
                     values["model", "slope_b"], values["compare", "t_macro"],
                     values["compare", "x_points"], values["run", "replicas"],
                     values["run", "seed"], threads=values["run", "threads"])
    write_csv(os.path.join(out, "compare.csv"), COMPARE_COLUMNS, Blocks(result["table"]))
    with open(os.path.join(out, "diagnostics.json"), "w") as fh:
        fh.write(json.dumps(result["diagnostics"], indent=2))
    checks.update({name: ok for name, (ok, _) in result["checks"].items()})
    return {"sampler": [_sampler_metrics(f"interval n={e['n']}", e["n_replicas"], e["rings"],
                                        e["events"], e["sampler_s"]) for e in result["ensembles"]]}


def run_stationary(values, out, checks):
    """Stationary-measure spot check on the product-Bernoulli line: the
    product-Bernoulli(rho) measure pi_B of N = 5 sites is stationary for the
    exact generator Q, max |pi_B Q| <= 1e-12."""
    eps = 0.25
    mu_b = 1.1
    mu_a = equal_density_mu(eps, mu_b)
    p = params_from_mu(eps, mu_a, mu_b)
    rho = phase_point(p).rho_a
    bern = np.prod(np.where(state_etas(5) > 0, rho, 1 - rho), axis=1)
    residual = float(np.max(np.abs(bern @ exact_generator(p, 5))))
    checks["stationary_product_bernoulli"] = residual <= 1e-12


def run_audit_all(values, out, checks):
    metrics, stages = {}, {}
    for name, stage in (("params", run_params), ("kernel", run_kernel),
                        ("identities", run_identities), ("stationary", run_stationary)):
        t0 = time.perf_counter()
        metrics.update(stage(values, out, checks) or {})
        stages[name] = time.perf_counter() - t0
    return {**metrics, "stages": stages}


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
    values, problems = _validate(cfg, args.kind, {("run", "seed"): args.seed,
                                                  ("run", "threads"): args.threads,
                                                  ("run", "out"): args.out})
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    seed, threads = values["run", "seed"], values["run", "threads"]
    out = os.path.join(values["run", "out"], config_hash(cfg, args.kind, seed))
    if os.path.exists(out) and not args.force:
        print(f"run directory {out} exists (same config hash); use --force to redo",
              file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)

    checks: dict[str, bool] = {}
    t0 = time.perf_counter()
    try:
        metrics, status = KINDS[args.kind](values, out, checks), "complete"
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        metrics, status = None, "incomplete"
    _write_manifest(cfg, args.kind, seed, threads, out, checks, t0, status, metrics)
    if status == "incomplete":
        return 2
    for k, ok in sorted(checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {k}")
    return 0 if all(checks.values()) else 1


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
        "wall_clock_s": time.perf_counter() - t0,
        "config": buf.getvalue(),
        "checks": {k: bool(v) for k, v in checks.items()},
        "files": inventory,
        # ru_maxrss is the process high-water mark in KiB (Linux); the BLAS thread
        # count is the one numpy's OpenBLAS reports when the manifest is written
        "metrics": {**(metrics or {}),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "blas": blas_threads()},
    }
    tmp = os.path.join(out, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(manifest, indent=2))
    os.replace(tmp, os.path.join(out, "manifest.json"))


if __name__ == "__main__":
    sys.exit(main())
