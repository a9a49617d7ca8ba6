"""Event-driven simulation of open ASEP on an interval and a truncated half line.

Dynamics: a particle at x jumps right at rate p (left at rate q) when the
target is empty; at the left boundary a particle is created at rate alpha
(annihilated at rate gamma), at the right boundary created at rate delta
(annihilated at rate beta).  Occupations are centered, eta in {-1, +1}.
The height function h(0) counts twice the net number of particles removed
at site 1; h(x) = h(0) + sum_{y<=x} eta(y).  Boundary events move only the
endpoint height values, interior jumps move only the bond's left height.

The sampler is a Gillespie (1977) loop run in lockstep: one numpy step
advances every replica of a block by one event of its own.  Per event a
replica draws a wait uniform u and a pick uniform v from its own Philox
stream (keyed by master seed and replica index), waits -log(1-u)/total and
fires the first channel, in the order bonds, left reservoir, right
reservoir, whose left-to-right prefix rate sum exceeds v*total.  The total
rate is updated channel by channel (old rate out, new rate in) and re-summed
left to right every 4096 events.  Each replica therefore replays exactly the
event sequence of a scalar loop on its own stream, and results do not depend
on the block split or the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "simulate_replicas",
    "exact_generator",
    "stationary_measure",
    "mean_current",
    "bernoulli_eta",
    "alternating_eta",
    "replica_rng",
    "run_replicas",
]

_REFRESH_EVERY = 4096  # events between left-to-right re-sums of the total rate
_BLOCK = 256           # most replicas one lockstep block advances
_CHUNK = 256           # most events per refill of a replica's uniform buffer


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


# ---------------------------------------------------------------------------
# lockstep Gillespie sampler

class _Channels:
    """The event channels of one (params, lattice) as lookup tables.

    Channels: bonds 0..N-2, then LEFT, RIGHT (rate 0 on the half line) and
    PAD, a channel of rate 0 that fills unused update slots and never fires.
    Sites: 0..N-1, then a dummy site N that no real channel reads.
    Occupations are 0/1.
    """

    def __init__(self, params: ModelParams, lattice: Lattice):
        n = lattice.n_sites
        nb = n - 1
        left, right, pad = nb, nb + 1, nb + 2
        dummy = n
        bonds = np.arange(nb)
        self.n = n
        self.n_chan = nb + 3
        # rate of channel k: rate[4 k + 2 occ(s1[k]) + occ(s2[k])]
        self.s1 = s1 = np.concatenate([bonds, [0, n - 1, dummy]])
        self.s2 = s2 = np.concatenate([bonds + 1, [0, n - 1, dummy]])
        rate = np.zeros((self.n_chan, 4))
        rate[:nb, 1] = params.q                 # (empty, occupied): left jump
        rate[:nb, 2] = params.p                 # (occupied, empty): right jump
        rate[left] = (params.alpha, 0.0, 0.0, params.gamma)
        if lattice.has_right_reservoir:
            rate[right] = (params.delta, 0.0, 0.0, params.beta)
        self.rate = rate = rate.ravel()
        # channels whose rate an event changes, in the scalar loop's update order
        touch = np.full((5, self.n_chan), pad)
        for b in range(nb):
            touch[:3, b] = (b - 1 if b > 0 else pad, b, b + 1 if b + 1 < nb else pad)
            if b == 0:
                touch[3, b] = left
            if lattice.has_right_reservoir and b == nb - 1:
                touch[4, b] = right
        single = n == 1
        touch[:3, left] = (left, 0 if nb else pad,
                           right if lattice.has_right_reservoir and single else pad)
        touch[:3, right] = (right, nb - 1 if nb else pad, left if single else pad)
        self.touch = tuple(touch)
        # Firing channel c swaps the occupations of sites a and b (a
        # reservoir event flips a and parks its old value at the dummy) and
        # moves height `moved`.  Its touched channels read only a, b and the
        # outer neighbours l, r, and occ(b) = 1 - occ(a) before a bond event,
        # so key = 8 c + 4 occ(a) + 2 occ(l) + occ(r) indexes tables of
        # their old and new rates and of the height step.
        self.sites = tuple([
            s1,                                                                # a
            np.concatenate([np.where(bonds > 0, bonds - 1, dummy),
                            [dummy, n - 2 if n > 1 else dummy, dummy]]),       # l
            np.concatenate([np.where(bonds + 2 < n, bonds + 2, dummy),
                            [1 if n > 1 else dummy, dummy, dummy]]),           # r
            np.concatenate([bonds + 1, [dummy, dummy, dummy]]),                # b
            np.concatenate([bonds + 1, [0, n, 0]]),                            # moved
        ])
        self.key = 8 * np.arange(self.n_chan)
        o, occ_l, occ_r = np.arange(8) >> 2, (np.arange(8) >> 1) & 1, np.arange(8) & 1
        old = np.zeros((5, 8 * self.n_chan))
        new = np.zeros((5, 8 * self.n_chan))
        self.dh = np.zeros(8 * self.n_chan, dtype=np.int64)
        # height step for occ(a) = 0, 1: a left jump raises h(b), a right
        # jump lowers it; creation at 1 lowers h(0), creation at N raises h(N)
        steps = {left: (-2, 2)}
        for c in range(self.n_chan - 1):
            a, l, r, b = (site[c] for site in self.sites[:4])
            before = np.zeros((8, n + 1), dtype=np.int64)
            before[:, l], before[:, r], before[:, b] = occ_l, occ_r, 1 - o
            before[:, a] = o
            after = before.copy()
            after[:, a], after[:, b] = 1 - o, o
            k = touch[:, c]
            keys = slice(8 * c, 8 * c + 8)
            for table, occ in ((old, before), (new, after)):
                table[:, keys] = rate[4 * k[:, None] + 2 * occ[:, s1[k]].T + occ[:, s2[k]].T]
            self.dh[keys] = np.where(o == 0, *steps.get(c, (2, -2)))
        self.old, self.new = tuple(old), tuple(new)

    def rates(self, occ: np.ndarray) -> np.ndarray:
        """Channel rates, one row per row of occupations occ (dummy included)."""
        return np.ascontiguousarray(self.rate[4 * np.arange(self.n_chan)
                                              + 2 * occ[:, self.s1] + occ[:, self.s2]])


def _draw(rngs, events: int) -> tuple[np.ndarray, np.ndarray]:
    """The next `events` (wait, pick) pairs of every stream, one column each.

    A wait is -log(1 - u) by the C library's log, as a scalar loop takes it
    (numpy's vectorised log may differ in the last bit).
    """
    u = np.array([rng.random(2 * events) for rng in rngs]).T
    logs = np.fromiter(map(math.log, (1.0 - u[0::2]).ravel().tolist()), float, u.size // 2)
    return -logs.reshape(events, len(rngs)), np.ascontiguousarray(u[1::2])


class _Block:
    """Replicas advanced together, one event each per step.

    Rows are the live replicas; a row leaves the block once its next event
    lies past the horizon.  Snapshots land in arrays indexed by the
    replica's position in the block (`rid`).  The two exponential integrals
    of a site are rows 0 and 1 of `s_int`, with exponent constants
    (theta, rho) and (2 theta, 2 rho).
    """

    def __init__(self, ch: _Channels, inits, rngs, sample_times, track):
        n, m, k = ch.n, len(inits), len(sample_times)
        self.ch, self.rngs, self.track = ch, rngs, track
        self.samples = np.append(sample_times, np.inf)
        self.rid = np.arange(m)
        self.occ = np.zeros((m, n + 1), dtype=np.int64)
        self.occ[:, :n] = np.array([c.eta for c in inits]) > 0
        self.h = np.zeros((m, n + 1), dtype=np.int64)
        self.h[:, 1:] = np.cumsum(2 * self.occ[:, :n] - 1, axis=1)
        self.chan = ch.rates(self.occ)
        self.total = np.cumsum(self.chan, axis=1)[:, -1].copy()
        self.t = np.zeros(m)
        self.k_next = np.zeros(m, dtype=np.int64)
        self.next_sample = np.full(m, self.samples[0])
        self.events = 0
        self.counts = np.zeros(m, dtype=np.int64)
        self.snap_eta = np.empty((m, k, n), dtype=np.int8)
        self.snap_h = np.empty((m, k, n + 1), dtype=np.int64)
        if track:
            theta, rho = track
            self.theta2 = np.array([[theta], [2.0 * theta]])
            self.rho2 = np.array([[rho], [2.0 * rho]])
            self.s_int = np.zeros((2, m, n + 1))
            self.t_last = np.zeros((m, n + 1))
            self.snap_s = np.empty((2, m, k, n + 1))
        # short runs draw little: buffers start at 16 events and double
        self.waits, self.picks = _draw(rngs, 16)
        self.pos = 0
        self._index()

    def _index(self):
        """Flat views (writes through them land in the state) and row offsets."""
        m, n = len(self.rid), self.ch.n
        self.off_site = np.arange(m) * (n + 1)
        self.off_chan = np.arange(m) * self.ch.n_chan
        self.prefix = np.empty_like(self.chan)
        self.occ_f, self.h_f, self.chan_f = (np.reshape(a, -1, copy=False)
                                             for a in (self.occ, self.h, self.chan))
        if self.track:
            self.int_stride = np.array([[0], [m * (n + 1)]])
            self.s_int_f, self.t_last_f = (np.reshape(a, -1, copy=False)
                                           for a in (self.s_int, self.t_last))

    def _increments(self, theta, rho, hx, t0, t1):
        # exp(theta h) int_t0^t1 e^{rho s} ds for both exponent pairs, by the
        # scalar loop's formula int_a^b e^{r s} ds = e^{r a} expm1(r (b - a)) / r
        if self.rho2[0, 0] == 0.0:
            return np.exp(theta * hx) * (t1 - t0)
        return np.exp(theta * hx) * (np.exp(rho * t0) * np.expm1(rho * (t1 - t0)) / rho)

    def snapshot(self, rows):
        rid, k = self.rid[rows], self.k_next[rows]
        self.snap_eta[rid, k] = 2 * self.occ[rows, :self.ch.n] - 1
        self.snap_h[rid, k] = self.h[rows]
        if self.track:
            ts = self.next_sample[rows][:, None]
            self.s_int[:, rows] += self._increments(self.theta2[:, :, None], self.rho2[:, :, None],
                                                    self.h[rows], self.t_last[rows], ts)
            self.t_last[rows] = ts
            self.snap_s[:, rid, k] = self.s_int[:, rows]
        self.k_next[rows] += 1
        self.next_sample[rows] = self.samples[self.k_next[rows]]

    def drop(self, done):
        """Retire the rows in `done` (their next event lies past the horizon)."""
        self.counts[self.rid[done]] = self.events
        keep = ~done
        for name in ("rid", "occ", "h", "chan", "total", "t", "k_next", "next_sample"):
            setattr(self, name, getattr(self, name)[keep])
        if self.track:
            self.s_int, self.t_last = np.ascontiguousarray(self.s_int[:, keep]), self.t_last[keep]
        self.waits, self.picks = self.waits[:, keep], self.picks[:, keep]
        self._index()

    def fire(self, idx, t):
        """Apply each row's event on channel idx at time t."""
        ch, off = self.ch, self.off_site
        occ, h, chan = self.occ_f, self.h_f, self.chan_f
        a, l, r, b, moved = (s[idx] + off for s in ch.sites)
        o = occ[a]
        key = ch.key[idx] + 4 * o + 2 * occ[l] + occ[r]
        if self.track:
            self.s_int_f[moved + self.int_stride] += self._increments(
                self.theta2, self.rho2, h[moved], self.t_last_f[moved], t)
            self.t_last_f[moved] = t
        h[moved] += ch.dh[key]
        occ[a] = 1 - o
        occ[b] = o
        # the touched channels' rates, old out and new in, in the scalar
        # loop's order (PAD slots add and subtract an exact 0.0)
        total = self.total
        for touch, old, new in zip(ch.touch, ch.old, ch.new):
            rate = new[key]
            total -= old[key]
            total += rate
            chan[self.off_chan + touch[idx]] = rate

    def run(self, horizon: float, debug_checks: bool):
        first_sample = self.samples[0]
        while len(self.rid):
            if self.pos == len(self.waits):
                self.waits, self.picks = _draw([self.rngs[i] for i in self.rid],
                                               min(2 * self.pos, _CHUNK))
                self.pos = 0
            wait, total = self.waits[self.pos], self.total
            if total.min() > 0.0:
                t_next = self.t + wait / total
            else:  # a replica with no active channel has no next event
                with np.errstate(divide="ignore", invalid="ignore"):
                    t_next = np.where(total > 0.0, self.t + wait / total, np.inf)
            t_max = t_next.max()
            if first_sample <= t_max:
                limit = np.minimum(t_next, horizon)
                while len(due := np.flatnonzero(self.next_sample <= limit)):
                    self.snapshot(due)
                first_sample = self.next_sample.min()
            if t_max > horizon:
                done = t_next > horizon
                self.drop(done)
                if not len(self.rid):
                    break
                t_next = t_next[~done]
            pick = self.picks[self.pos] * self.total
            self.pos += 1
            self.t = t_next

            # the first channel whose prefix sum exceeds the pick; with float
            # drift none may, and the scalar loop then takes the last active one
            prefix = np.add.accumulate(self.chan, axis=1, out=self.prefix)
            idx = (prefix > pick[:, None]).argmax(axis=1)
            if (stuck := prefix[:, -1] <= pick).any():
                for j in np.flatnonzero(stuck):
                    idx[j] = np.flatnonzero(self.chan[j] > 0.0).max()
            self.fire(idx, t_next)
            self.events += 1
            if self.events % _REFRESH_EVERY == 0:
                self.total = np.cumsum(self.chan, axis=1)[:, -1].copy()
            if debug_checks and not np.array_equal(np.diff(self.h, axis=1),
                                                    2 * self.occ[:, :-1] - 1):
                raise AssertionError("height/occupation mismatch")

    def trajectories(self, sample_times, lattice) -> list[Trajectory]:
        track = self.track
        return [Trajectory(sample_times=sample_times, etas=list(self.snap_eta[r]),
                           h0s=[int(v) for v in self.snap_h[r, :, 0]],
                           heights=list(self.snap_h[r]), event_count=int(self.counts[r]),
                           lattice=lattice, exp_integral_constants=track,
                           z_int=list(self.snap_s[0, r]) if track else None,
                           z2_int=list(self.snap_s[1, r]) if track else None)
                for r in range(len(self.counts))]


def _check_run(horizon: float, sample_times) -> np.ndarray:
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) and (np.any(np.diff(sample_times) < 0)
                              or sample_times[0] < 0 or sample_times[-1] > horizon):
        raise ValueError("sample_times must be nondecreasing inside [0, horizon]")
    return sample_times


def _run_block(ch, inits, rngs, lattice, horizon, sample_times, track,
               debug_checks=False) -> list[Trajectory]:
    if any(c.n_sites != lattice.n_sites for c in inits):
        raise ValueError("configuration size does not match lattice")
    block = _Block(ch, inits, rngs, sample_times, track)
    block.run(horizon, debug_checks)
    return block.trajectories(sample_times, lattice)


def simulate(initial: Configuration, params: ModelParams, lattice: Lattice,
             horizon: float, sample_times, seed,
             track_exp_integrals: tuple[float, float] | None = None,
             debug_checks: bool = False) -> Trajectory:
    """Statistically exact continuous-time sample of the open ASEP.

    The one-replica case of `simulate_replicas`; seed is a Generator or a
    key for `replica_rng(seed, 0)`.  sample_times must be nondecreasing and
    within [0, horizon].  When track_exp_integrals = (theta, rho) is given,
    the per-site integrals int_0^t exp(theta h_s(x) + rho s) ds are
    accumulated exactly between events (closed-form in time, flushed per
    height index on events and at snapshots) and snapshotted with the
    configuration; the squared-exponent versions with (2 theta, 2 rho) come
    along for quadratic functionals.  debug_checks re-verifies the heights
    against the occupations after every event.
    """
    sample_times = _check_run(horizon, sample_times)
    rng = seed if isinstance(seed, np.random.Generator) else replica_rng(seed, 0)
    return _run_block(_Channels(params, lattice), [initial], [rng], lattice, horizon,
                      sample_times, track_exp_integrals, debug_checks)[0]


def simulate_replicas(init, params: ModelParams, lattice: Lattice, horizon: float,
                      sample_times, n_replicas: int, master_seed,
                      track_exp_integrals: tuple[float, float] | None = None,
                      threads: int = 1) -> list[Trajectory]:
    """`simulate` for replicas 0..n_replicas-1, advanced in lockstep blocks.

    Replica i draws from rng_i = replica_rng(master_seed, i): first its
    start init(rng_i), then its events, exactly as
    `simulate(init(rng_i), ..., rng_i)` does.  Blocks hold at most _BLOCK
    replicas and are spread over `threads` pool workers; since every
    replica owns its stream, the trajectories do not depend on either.

    The replay is exact: heights, occupations and event counts equal those
    of a scalar loop on the same stream (the total rate is re-summed left
    to right, as Python 3.11's `sum` adds floats; 3.12's `sum` is
    compensated), and the exponential integrals agree to a few ulp, since
    numpy's exp/expm1 may differ from the C library's in the last bit.
    """
    sample_times = _check_run(horizon, sample_times)
    ch = _Channels(params, lattice)
    n_blocks = -(-n_replicas // _BLOCK)
    edges = [n_replicas * b // n_blocks for b in range(n_blocks + 1)]

    def block(b):
        rngs = [replica_rng(master_seed, i) for i in range(edges[b], edges[b + 1])]
        return _run_block(ch, [init(rng) for rng in rngs], rngs, lattice, horizon,
                          sample_times, track_exp_integrals)

    return [tr for trajs in _pool_map(block, range(n_blocks), threads) for tr in trajs]


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


# ---------------------------------------------------------------------------
# replica orchestration

def _pool_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], spread over `threads` pool workers, in order."""
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # only here: keeps import time flat
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run_replicas(task, n_replicas: int, master_seed, threads: int = 1) -> list:
    """task(replica_index, rng) -> result, merged in index order.

    Each replica gets its own Philox stream; results are identical for any
    thread count because the merge is keyed by index.  Sampling ASEP
    replicas one task at a time is slow: use `simulate_replicas`.
    """
    return _pool_map(lambda i: task(i, replica_rng(master_seed, i)), range(n_replicas),
                     threads)
