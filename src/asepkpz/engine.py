"""Event-driven simulation of open ASEP on an interval and a truncated half line.

Dynamics: a particle at x jumps right at rate p (left at rate q) when the
target is empty; at the left boundary a particle is created at rate alpha
(annihilated at rate gamma), at the right boundary created at rate delta
(annihilated at rate beta).  Occupations are centered, eta in {-1, +1}.
The height function h(0) counts twice the net number of particles removed
at site 1; h(x) = h(0) + sum_{y<=x} eta(y).  Boundary events move only the
endpoint height values, interior jumps move only the bond's left height.

The sampler is a single-clock Gillespie loop: exponential wait with the
total rate, categorical pick proportional to channel rates, with the total
maintained incrementally and refreshed periodically against float drift.
Each replica consumes its own counter-based random stream (numpy Philox
keyed by (master seed, replica index)), so ensembles are reproducible under
any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams

__all__ = [
    "Lattice",
    "Configuration",
    "HeightField",
    "Trajectory",
    "EventRates",
    "event_rates",
    "halfline_truncation_length",
    "simulate",
    "exact_generator",
    "stationary_measure",
    "mean_current",
    "bernoulli_eta",
    "alternating_eta",
    "read_height_file",
    "write_height_file",
    "replica_rng",
    "run_replicas",
]

_REFRESH_EVERY = 4096
_CHUNK = 8192


@dataclass(frozen=True)
class Lattice:
    """Interval {1..N} with two reservoirs, or truncated half line {1..L}
    with a left reservoir and a closed right edge."""

    kind: str                  # "interval" | "half_line"
    n_sites: int

    def __post_init__(self):
        if self.kind not in ("interval", "half_line"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.n_sites < 1:
            raise ValueError("lattice needs at least one site")

    @property
    def has_right_reservoir(self) -> bool:
        return self.kind == "interval"

    @property
    def n_heights(self) -> int:
        return self.n_sites + 1

    @classmethod
    def interval(cls, n: int) -> "Lattice":
        return cls("interval", n)

    @classmethod
    def half_line(cls, length: int) -> "Lattice":
        return cls("half_line", length)


def halfline_truncation_length(x_max: int, horizon: float, delta: float = 1e-3) -> int:
    """Truncation length L >= x_max + 4 sqrt(horizon) log(1/delta).

    Heuristic policy keeping the closed right edge's influence on the
    observation window [0, x_max] below the Monte Carlo noise floor delta;
    validated empirically by the doubling test.
    """
    return int(math.ceil(x_max + 4.0 * math.sqrt(max(horizon, 1.0)) * math.log(1.0 / delta)))


@dataclass(frozen=True)
class Configuration:
    """Centered occupations eta(1..N) stored as an int8 array of +-1."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.int8)
        if not np.all(np.abs(eta) == 1):
            raise ValueError("every site must hold exactly one of {-1, +1}")
        object.__setattr__(self, "eta", eta)

    @property
    def n_sites(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class HeightField:
    """Heights h(0..N) with slopes +-1 and the boundary counter h(0)."""

    h: np.ndarray
    h0_counter: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.int64)
        object.__setattr__(self, "h", h)
        if int(h[0]) != self.h0_counter:
            raise ValueError("h(0) must equal the boundary counter")
        if len(h) > 1 and not np.all(np.abs(np.diff(h)) == 1):
            raise ValueError("height increments must be +-1")

    @classmethod
    def from_eta(cls, eta: np.ndarray, h0_counter: int = 0) -> "HeightField":
        h = np.concatenate([[h0_counter], h0_counter + np.cumsum(eta, dtype=np.int64)])
        return cls(h=h, h0_counter=h0_counter)

    def to_eta(self) -> np.ndarray:
        return np.diff(self.h).astype(np.int8)


@dataclass
class Trajectory:
    """Snapshots of one replica at the requested sample times.

    etas[i], heights[i] are the state at sample_times[i] (right-continuous).
    When exponential height integrals are tracked, z_int[i][x] equals
    int_0^{t_i} exp(theta h_s(x) + rho s) ds exactly (event-resolved) and
    z2_int the same with (2 theta, 2 rho).
    """

    sample_times: np.ndarray
    etas: list
    h0s: list
    heights: list
    seed: object
    event_count: int
    lattice: Lattice
    exp_integral_constants: tuple | None = None
    z_int: list | None = None
    z2_int: list | None = None

    def height_field(self, i: int) -> HeightField:
        return HeightField(h=self.heights[i], h0_counter=int(self.h0s[i]))


@dataclass(frozen=True)
class EventRates:
    """Per-event rates, one entry per possible transition.

    right[x-1] / left[x-1] are the jump rates across bond (x, x+1) for
    x = 1..N-1; creation/annihilation entries are scalars (right ones are
    None on the half line).
    """

    right: np.ndarray
    left: np.ndarray
    create_left: float
    annihilate_left: float
    create_right: float | None
    annihilate_right: float | None

    @property
    def total(self) -> float:
        t = float(self.right.sum() + self.left.sum()) + self.create_left + self.annihilate_left
        if self.create_right is not None:
            t += self.create_right + self.annihilate_right
        return t


def event_rates(config: Configuration, params: ModelParams, lattice: Lattice) -> EventRates:
    """All event rates for a configuration.

    c^R = (p/4)(1+eta(x))(1-eta(x+1)), c^L = (q/4)(1-eta(x))(1+eta(x+1));
    r_A^+ = (alpha/2)(1-eta(1)), r_A^- = (gamma/2)(1+eta(1));
    r_B^+ = (delta/2)(1-eta(N)), r_B^- = (beta/2)(1+eta(N)).
    """
    eta = config.eta.astype(np.float64)
    if len(eta) != lattice.n_sites:
        raise ValueError("configuration size does not match lattice")
    right = params.p / 4.0 * (1.0 + eta[:-1]) * (1.0 - eta[1:])
    left = params.q / 4.0 * (1.0 - eta[:-1]) * (1.0 + eta[1:])
    create_left = params.alpha / 2.0 * (1.0 - eta[0])
    annihilate_left = params.gamma / 2.0 * (1.0 + eta[0])
    if lattice.has_right_reservoir:
        create_right = params.delta / 2.0 * (1.0 - eta[-1])
        annihilate_right = params.beta / 2.0 * (1.0 + eta[-1])
    else:
        create_right = annihilate_right = None
    return EventRates(right=right, left=left, create_left=create_left,
                      annihilate_left=annihilate_left, create_right=create_right,
                      annihilate_right=annihilate_right)


def replica_rng(master_seed, replica_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (master seed, replica index)."""
    if isinstance(master_seed, (tuple, list)):
        key = (*[int(v) for v in master_seed], int(replica_index))
    else:
        key = (int(master_seed), int(replica_index))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class _Uniforms:
    """Chunked uniform supply from one generator (deterministic order)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.random(_CHUNK)
        self.i = 0

    def next(self) -> float:
        if self.i >= len(self.buf):
            self.buf = self.rng.random(_CHUNK)
            self.i = 0
        u = self.buf[self.i]
        self.i += 1
        return u


def _bond_rate(eta, b, p, q):
    a, c = eta[b], eta[b + 1]
    if a == 1 and c == -1:
        return p
    if a == -1 and c == 1:
        return q
    return 0.0


def simulate(initial: Configuration, params: ModelParams, lattice: Lattice,
             horizon: float, sample_times, seed,
             track_exp_integrals: tuple[float, float] | None = None,
             debug_checks: bool = False) -> Trajectory:
    """Statistically exact continuous-time sample of the open ASEP.

    sample_times must be nondecreasing and within [0, horizon].  When
    track_exp_integrals = (theta, rho) is given, the per-site integrals
    int_0^t exp(theta h_s(x) + rho s) ds are accumulated exactly between
    events (closed-form in time, lazily flushed per height index) and
    snapshotted with the configuration; the squared-exponent versions with
    (2 theta, 2 rho) come along for quadratic functionals.
    """
    if lattice.n_sites < 1:
        raise ValueError("empty lattice")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) and (np.any(np.diff(sample_times) < 0)
                              or sample_times[0] < 0 or sample_times[-1] > horizon):
        raise ValueError("sample_times must be nondecreasing inside [0, horizon]")
    n = lattice.n_sites
    p, q = params.p, params.q
    alpha, beta, gamma, delta = params.alpha, params.beta, params.gamma, params.delta
    eta = [int(v) for v in initial.eta]
    if len(eta) != n:
        raise ValueError("configuration size does not match lattice")
    h = [0] * (n + 1)
    acc = 0
    for x in range(1, n + 1):
        acc += eta[x - 1]
        h[x] = acc
    interval = lattice.has_right_reservoir

    n_bonds = n - 1
    chan = [0.0] * (n_bonds + (2 if interval else 1))
    LEFT = n_bonds
    RIGHT = n_bonds + 1
    for b in range(n_bonds):
        chan[b] = _bond_rate(eta, b, p, q)
    chan[LEFT] = alpha if eta[0] == -1 else gamma
    if interval:
        chan[RIGHT] = delta if eta[n - 1] == -1 else beta
    total = sum(chan)

    track = track_exp_integrals is not None
    if track:
        theta, rho = track_exp_integrals
        S1 = [0.0] * (n + 1)
        S2 = [0.0] * (n + 1)
        t_last = [0.0] * (n + 1)
        exp_ = math.exp

        def time_factor(r, a, b):
            # int_a^b e^{r s} ds, stable for small r*(b-a)
            if r == 0.0:
                return b - a
            return exp_(r * a) * math.expm1(r * (b - a)) / r

        def flush(x, t_now):
            t0 = t_last[x]
            if t_now > t0:
                S1[x] += exp_(theta * h[x]) * time_factor(rho, t0, t_now)
                S2[x] += exp_(2.0 * theta * h[x]) * time_factor(2.0 * rho, t0, t_now)
                t_last[x] = t_now

    uni = _Uniforms(replica_rng(seed, 0) if not isinstance(seed, np.random.Generator) else seed)

    out_etas, out_h0s, out_heights = [], [], []
    out_S1, out_S2 = [], []

    def snapshot(t_now):
        out_etas.append(np.array(eta, dtype=np.int8))
        out_h0s.append(h[0])
        out_heights.append(np.array(h, dtype=np.int64))
        if track:
            for x in range(n + 1):
                flush(x, t_now)
            out_S1.append(np.array(S1))
            out_S2.append(np.array(S2))

    t = 0.0
    events = 0
    next_sample = 0
    n_samples = len(sample_times)

    def verify_local():
        for x in range(n):
            assert h[x + 1] - h[x] == eta[x], "height/occupation mismatch"

    while True:
        if total <= 0.0:
            t_next = math.inf
        else:
            u = uni.next()
            t_next = t + (-math.log(1.0 - u)) / total
        while next_sample < n_samples and sample_times[next_sample] <= min(t_next, horizon):
            snapshot(sample_times[next_sample])
            next_sample += 1
        if t_next > horizon:
            break
        t = t_next
        # categorical pick
        r = uni.next() * total
        idx = -1
        run = 0.0
        for i_, w in enumerate(chan):
            run += w
            if r < run:
                idx = i_
                break
        if idx < 0:  # float drift: take the last active channel and refresh
            idx = max(i_ for i_, w in enumerate(chan) if w > 0.0)

        if idx < n_bonds:
            b = idx
            x = b + 1           # height index that moves
            if track:
                flush(x, t)
            if eta[b] == 1:     # right jump
                eta[b], eta[b + 1] = -1, 1
                h[x] -= 2
            else:               # left jump
                eta[b], eta[b + 1] = 1, -1
                h[x] += 2
            touched = [b - 1, b, b + 1]
            for bb in touched:
                if 0 <= bb < n_bonds:
                    total -= chan[bb]
                    chan[bb] = _bond_rate(eta, bb, p, q)
                    total += chan[bb]
            if b == 0:
                total -= chan[LEFT]
                chan[LEFT] = alpha if eta[0] == -1 else gamma
                total += chan[LEFT]
            if interval and b == n_bonds - 1:
                total -= chan[RIGHT]
                chan[RIGHT] = delta if eta[n - 1] == -1 else beta
                total += chan[RIGHT]
        elif idx == LEFT:
            if track:
                flush(0, t)
            if eta[0] == -1:    # creation
                eta[0] = 1
                h[0] -= 2
            else:               # annihilation
                eta[0] = -1
                h[0] += 2
            total -= chan[LEFT]
            chan[LEFT] = alpha if eta[0] == -1 else gamma
            total += chan[LEFT]
            if n_bonds > 0:
                total -= chan[0]
                chan[0] = _bond_rate(eta, 0, p, q)
                total += chan[0]
            if interval and n == 1:
                total -= chan[RIGHT]
                chan[RIGHT] = delta if eta[0] == -1 else beta
                total += chan[RIGHT]
        else:
            if track:
                flush(n, t)
            if eta[n - 1] == -1:  # creation at N raises h(N)
                eta[n - 1] = 1
                h[n] += 2
            else:
                eta[n - 1] = -1
                h[n] -= 2
            total -= chan[RIGHT]
            chan[RIGHT] = delta if eta[n - 1] == -1 else beta
            total += chan[RIGHT]
            if n_bonds > 0:
                total -= chan[n_bonds - 1]
                chan[n_bonds - 1] = _bond_rate(eta, n_bonds - 1, p, q)
                total += chan[n_bonds - 1]
            if n == 1:
                total -= chan[LEFT]
                chan[LEFT] = alpha if eta[0] == -1 else gamma
                total += chan[LEFT]

        events += 1
        if debug_checks:
            verify_local()
        if events % _REFRESH_EVERY == 0:
            total = sum(chan)

    while next_sample < n_samples:
        snapshot(sample_times[next_sample])
        next_sample += 1
    traj = Trajectory(sample_times=sample_times, etas=out_etas, h0s=out_h0s,
                      heights=out_heights, seed=seed, event_count=events,
                      lattice=lattice,
                      exp_integral_constants=track_exp_integrals,
                      z_int=out_S1 if track else None,
                      z2_int=out_S2 if track else None)
    return traj


# ---------------------------------------------------------------------------
# exact generator oracles

def exact_generator(params: ModelParams, n: int, lattice: Lattice | None = None):
    """Sparse CTMC generator over {-1,+1}^N (state bits: bit x <-> site x+1 occupied)."""
    from scipy import sparse
    if n > 12:
        raise ValueError("exact generator limited to N <= 12")
    lattice = lattice if lattice is not None else Lattice.interval(n)
    n_states = 1 << n
    rows, cols, vals = [], [], []
    for s in range(n_states):
        eta = np.array([1 if (s >> x) & 1 else -1 for x in range(n)], dtype=np.int8)
        rates = event_rates(Configuration(eta), params, lattice)
        out = 0.0
        for b in range(n - 1):
            r = rates.right[b] + rates.left[b]
            if r > 0:
                s2 = s ^ (1 << b) ^ (1 << (b + 1))
                rows.append(s); cols.append(s2); vals.append(r)
                out += r
        r = rates.create_left + rates.annihilate_left
        if r > 0:
            rows.append(s); cols.append(s ^ 1); vals.append(r)
            out += r
        if rates.create_right is not None:
            r = rates.create_right + rates.annihilate_right
            if r > 0:
                rows.append(s); cols.append(s ^ (1 << (n - 1))); vals.append(r)
                out += r
        rows.append(s); cols.append(s); vals.append(-out)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))


def stationary_measure(generator) -> np.ndarray:
    """pi with pi Q = 0, solved densely with a normalization row."""
    Q = np.asarray(generator.todense() if hasattr(generator, "todense") else generator,
                   dtype=float)
    m = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    resid = float(np.max(np.abs(pi @ Q)))
    if resid > 1e-12:
        raise np.linalg.LinAlgError(f"stationary solve residual {resid:.2e} > 1e-12 "
                                    "(generator may be reducible)")
    return pi


def mean_current(pi: np.ndarray, params: ModelParams, n: int) -> float:
    """J_N = (p-q)^{-1} E_pi[alpha (1-eta(1))/2 - gamma (1+eta(1))/2]."""
    flux = 0.0
    for s in range(len(pi)):
        eta1 = 1 if s & 1 else -1
        flux += pi[s] * (params.alpha * (1 - eta1) / 2.0 - params.gamma * (1 + eta1) / 2.0)
    return flux / (params.p - params.q)


# ---------------------------------------------------------------------------
# initial conditions

def bernoulli_eta(n: int, seed, density: float = 0.5) -> Configuration:
    """Product measure: eta(x) = +1 with the given density."""
    rng = seed if isinstance(seed, np.random.Generator) else replica_rng(seed, 0)
    eta = np.where(rng.random(n) < density, 1, -1).astype(np.int8)
    return Configuration(eta)


def alternating_eta(n: int) -> Configuration:
    """Deterministic density-1/2 zigzag (the dynamical 'flat' interface)."""
    eta = np.array([1 if x % 2 == 0 else -1 for x in range(n)], dtype=np.int8)
    return Configuration(eta)


def read_height_file(path) -> HeightField:
    """Plain-text heights, one integer per line, first line = h(0)."""
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                vals.append(int(line))
    h = np.array(vals, dtype=np.int64)
    return HeightField(h=h, h0_counter=int(h[0]))


def write_height_file(path, field: HeightField) -> None:
    with open(path, "w") as fh:
        for v in field.h:
            fh.write(f"{int(v)}\n")


# ---------------------------------------------------------------------------
# replica orchestration

def run_replicas(task, n_replicas: int, master_seed, threads: int = 1) -> list:
    """task(replica_index, rng) -> result, merged in index order.

    Each replica gets its own Philox stream; results are identical for any
    thread count because the merge is keyed by index.
    """
    results = [None] * n_replicas
    if threads <= 1:
        for i in range(n_replicas):
            results[i] = task(i, replica_rng(master_seed, i))
        return results
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(task, i, replica_rng(master_seed, i)): i
                   for i in range(n_replicas)}
        for fut, i in futures.items():
            results[i] = fut.result()
    return results
