"""The benchmark workloads, driven through asepkpz's public entry points.

Constructing a workload builds its inputs from the benchmark seed (the
one-time set-up), and `run_pass` performs one complete computation plus its
correctness gates.
A gate is one checked output (a table row, an identity, a comparison); it
fails on an exception, a config-error exit, a non-finite value or a missed
tolerance; the runner counts an exception in a pass as one failed
operation.  The CLI's own 3-sigma lines on `compare` are recorded, not gated:
a different random stream flips one about 5% of the time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from asepkpz import cli, she

# Sizes: "full" is the benchmark, "tiny" the smoke test.  A full pass takes
# 2-5 s on a 2-core x86 box, so a 55 s run holds 10-20 passes.
SIZES = {
    "full": {
        "compare": {"replicas": 60, "inverse_eps": (32, 64)},
        "audit": {"identities_n": None},            # None: the default config, n = 100
        "she": {"m": 128, "horizon": 0.02, "replicas": 160},
        "halfline": {"replicas": 60, "epsilon": 1 / 32, "truncation": 128,
                     "snapshots": 20},
    },
    "tiny": {
        "compare": {"replicas": 24, "inverse_eps": (8, 16)},
        "audit": {"identities_n": 16},
        "she": {"m": 16, "horizon": 0.01, "replicas": 24},
        "halfline": {"replicas": 4, "epsilon": 1 / 8, "truncation": 24,
                     "snapshots": 4},
    },
}

SIGMA_GATE = 5.0       # statistical gates: |estimate - exact| <= 5 standard errors
SHE_FAULT_LIMIT = 1e-3  # the sampler's documented positivity-fault budget


class PassResult:
    """Outputs of one pass: artifact hashes, gates, work items, CLI lines."""

    def __init__(self):
        self.hashes: dict[str, str] = {}
        self.gates: list[tuple[str, bool]] = []
        self.items = 0
        self.cli_lines: list[str] = []
        self.manifest_checks: dict[str, bool] = {}

    def gate(self, name: str, ok) -> None:
        self.gates.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.gates if not ok]


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _run_cli(res: PassResult, kind: str, config: str | None, seed: int, out_root: str,
             threads: int, allowed_rc=(0,)) -> str | None:
    """Run one CLI kind in-process; gate its exit code and return the run directory."""
    os.makedirs(out_root)
    argv = [kind, "--seed", str(seed), "--out", out_root, "--threads", str(threads)]
    if config is not None:
        path = os.path.join(out_root, "bench.ini")
        with open(path, "w") as fh:
            fh.write(config)
        argv += ["--config", path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    res.cli_lines = [ln for ln in buf.getvalue().splitlines() if ln.startswith("[")]
    res.gate(f"{kind}: exit code {rc}", rc in allowed_rc)
    runs = [d for d in os.listdir(out_root) if os.path.isdir(os.path.join(out_root, d))]
    if len(runs) != 1:
        res.gate(f"{kind}: one run directory", False)
        return None
    run_dir = os.path.join(out_root, runs[0])
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    res.gate(f"{kind}: manifest complete", manifest.get("status") == "complete")
    res.hashes = dict(manifest.get("files", {}))
    res.manifest_checks = manifest.get("checks", {})
    return run_dir


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Compare:
    """CLI `compare`: ASEP interval ensembles against the SHE oracles."""

    name = "compare"
    cli_kind = "compare"
    threads = 1

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.replicas = size["replicas"]
        self.inverse_eps = size["inverse_eps"]
        self.config = (
            "[run]\n"
            f"replicas = {self.replicas}\n"
            "[model]\nlattice = interval\nslope_a = 0.0\nslope_b = 0.0\n"
            "[simulate]\ninitial = bernoulli_half\n"
            "[compare]\n"
            f"inverse_eps = {', '.join(str(n) for n in self.inverse_eps)}\n"
            "t_macro = 0.1\nx_points = 9\n")

    def run_pass(self, out_root: str) -> PassResult:
        res = PassResult()
        # exit 1 means a CLI 3-sigma line failed; those are recorded, not gated
        run_dir = _run_cli(res, self.cli_kind, self.config, self.seed, out_root,
                           self.threads, allowed_rc=(0, 1))
        if run_dir is None:
            return res
        for i, row in enumerate(_read_csv(os.path.join(run_dir, "compare.csv"))):
            vals = [float(row[k]) for k in ("asep_mean", "she_mean", "asep_var",
                                            "she_var", "mc_sigma")]
            a_mean, k_mean, _, _, sigma = vals
            res.gate(f"compare row {i} (eps={row['epsilon']}, X={row['X']})",
                     _finite(*vals) and abs(a_mean - k_mean) <= SIGMA_GATE * sigma)
        with open(os.path.join(run_dir, "diagnostics.json")) as fh:
            for r in json.load(fh):
                res.gate(f"martingale {r['phi']}",
                         _finite(r["z_N"], r["z_gap"])
                         and r["z_N"] <= SIGMA_GATE and r["z_gap"] <= SIGMA_GATE)
        res.items = self.replicas * (len(self.inverse_eps) + 1)  # + diagnostics re-run
        return res


class Audit:
    """CLI `audit-all`: exact identities at their stated tolerances."""

    name = "audit"
    cli_kind = "audit-all"
    threads = 1

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        n = size["identities_n"]
        self.config = None if n is None else f"[identities]\nn_sites = {n}\n"

    def run_pass(self, out_root: str) -> PassResult:
        res = PassResult()
        run_dir = _run_cli(res, self.cli_kind, self.config, self.seed, out_root,
                           self.threads)
        if run_dir is None:
            return res
        # the CLI's own checks: key identity 1e-9 (route gap 1e-7), Green corner
        # 1e-10, summation by parts 1e-12, c* < 1, image vs spectral 1e-8,
        # stationary measure 1e-10, rate relations, bound audits
        for name, ok in sorted(res.manifest_checks.items()):
            res.gate(f"audit check {name}", ok)
        with open(os.path.join(run_dir, "identities.json")) as fh:
            for r in json.load(fh):
                if r["identity"] == "c-star":
                    res.gate("c-star record", _finite(r["value"]) and r["value"] < 1.0)
                else:
                    res.gate(f"{r['identity']} ({r['x']},{r['xb']}) record",
                             _finite(r["abs_err"], r["route_gap"])
                             and r["abs_err"] <= 1e-9 and r["route_gap"] <= 1e-7)
        res.items = len(res.gates)
        return res


class She:
    """Public SHE API on a fine grid: sampler ensemble and both moment oracles."""

    name = "she"
    cli_kind = None
    threads = 1

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.replicas = size["replicas"]
        self.horizon = size["horizon"]
        self.times = [self.horizon / 2, self.horizon]
        self.grid = she.build_grid(1.0, size["m"], 0.0, 0.0)
        self.z0_mean = she.lognormal_mean(self.grid.x)
        self.m2_0 = she.lognormal_second_moment(self.grid.x)

    def run_pass(self, out_root: str) -> PassResult:
        res = PassResult()
        stats = she.sample_she_ensemble(she.lognormal_sampler(self.grid), self.grid,
                                        self.replicas, self.seed, self.times)
        means = [she.mean_field(self.z0_mean, self.grid, t) for t in self.times]
        m2 = she.second_moment(self.m2_0, self.grid, self.horizon)
        for i, t in enumerate(self.times):
            z = np.abs(stats["mean"][i] - means[i]) / stats["std_error"][i]
            res.gate(f"she mean within {SIGMA_GATE:g} SE at T={t:g}",
                     np.all(np.isfinite(z)) and np.max(z) <= SIGMA_GATE)
        res.gate("she fault rate", stats["fault_rate"] < SHE_FAULT_LIMIT)
        scale = float(np.max(np.abs(m2)))
        var = np.diag(m2) - means[-1] ** 2
        res.gate("second moment finite", np.all(np.isfinite(m2)))
        res.gate("second moment symmetric", np.max(np.abs(m2 - m2.T)) <= 1e-12 * scale)
        res.gate("second moment variance >= 0", np.min(var) >= -1e-12 * scale)
        for key in ("mean", "second_moment", "std_error"):
            res.hashes[key] = hashlib.sha256(np.ascontiguousarray(stats[key])).hexdigest()
        res.hashes["mean_field"] = hashlib.sha256(np.stack(means)).hexdigest()
        res.hashes["second_moment_oracle"] = hashlib.sha256(m2).hexdigest()
        res.items = self.replicas
        return res


class Halfline:
    """CLI `simulate` on the truncated half line with many snapshots and a thread pool."""

    name = "halfline"
    cli_kind = "simulate"

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.threads = len(os.sched_getaffinity(0))  # nproc
        self.replicas = size["replicas"]
        k = size["snapshots"]
        times = ", ".join(repr(round(0.1 * i / k, 12)) for i in range(k + 1))
        self.n_times = k + 1
        self.n_heights = size["truncation"] + 1
        self.config = (
            "[run]\n"
            f"replicas = {self.replicas}\n"
            "[model]\nlattice = half_line\nslope_a = 0.0\n"
            f"epsilon = {size['epsilon']!r}\ntruncation = {size['truncation']}\n"
            "[simulate]\nhorizon_macro = 0.1\ninitial = bernoulli_half\n"
            f"sample_times = {times}\n")

    def run_pass(self, out_root: str, threads: int | None = None) -> PassResult:
        res = PassResult()
        run_dir = _run_cli(res, self.cli_kind, self.config, self.seed, out_root,
                           self.threads if threads is None else threads)
        if run_dir is None:
            return res
        res.gate("height_consistency", res.manifest_checks.get("height_consistency"))
        rows = _read_csv(os.path.join(run_dir, "scaled_field_mean.csv"))
        res.gate("scaled field rows", len(rows) == self.n_times * self.n_heights)
        for row in rows:
            value = float(row["value"])
            res.gate(f"scaled field T={row['T']} X={row['X']}",
                     math.isfinite(value) and value > 0.0)
        for r in range(min(self.replicas, 8)):
            for kind, n in (("eta", self.n_heights - 1), ("heights", self.n_heights)):
                path = os.path.join(run_dir, f"trajectory_{kind}_r{r:03d}.csv")
                with open(path) as fh:
                    lines = sum(1 for _ in fh)
                res.gate(f"trajectory_{kind}_r{r:03d} rows", lines == 1 + self.n_times * n)
        res.items = self.replicas
        return res


WORKLOADS = {w.name: w for w in (Compare, Audit, She, Halfline)}
