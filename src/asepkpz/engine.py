"""Event-driven simulation of open ASEP on an interval and a truncated half line.

Dynamics: a particle at x jumps right at rate p (left at rate q) when the
target is empty; at the left boundary a particle is created at rate alpha
(annihilated at rate gamma), at the right boundary created at rate delta
(annihilated at rate beta).  Occupations are centered, eta in {-1, +1}.
The height function h(0) counts twice the net number of particles removed
at site 1; h(x) = h(0) + sum_{y<=x} eta(y).  Boundary events move only the
endpoint height values, interior jumps move only the bond's left height.

The sampler is Harris's (1978) graphical construction.  The N+1 channels
LEFT, bond 0, ..., bond N-2, RIGHT form a path, and channel c moves height
h(c) alone.  Each channel rings at its own Poisson clock at the largest
rate of its moves, and a uniform mark per ring accepts the move with
probability rate / clock.  A round fires, in every replica of a block at
once, each channel whose next ring comes before both path neighbours'
rings and before the next sample time: fired channels share no site, so
every round is a piece of the sequential path, applied as dense array
operations.  Replica i draws Exp(1) waits and uniform marks in `_Block`'s
order from its SFC64 stream keyed by (master seed, replica index): its path
is fixed by that key and `_BUFFER`, not by the block split or thread count.

Gartner's exponential (Cole-Hopf) transform of the height function,
Z_t(x) = exp(-lam h_t(x) + nu t) with lam = log(q/p)/2 and nu = p+q-1, is
`z_field`.  Under the two-parameter boundary family the drift of Z equals
Laplacian/2 with ghost values Z(-1) = mu_A Z(0) and Z(N+1) = mu_B Z(N),
exactly, for every configuration (the tests check it per configuration with
`drift_identity_residual` in tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .params import ModelParams

__all__ = [
    "Lattice",
    "Trajectory",
    "EventRates",
    "event_rates",
    "simulate_replicas",
    "state_etas",
    "exact_generator",
    "bernoulli_eta",
    "alternating_eta",
    "replica_rng",
    "map_replica_blocks",
    "z_field",
]

_BLOCK = 256           # most replicas one block advances
_LOG_GUARD = 500.0     # largest |log Z| that z_field returns


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


@dataclass
class Trajectory:
    """Snapshots of R replicas at the requested sample times.

    heights[r, i] is replica r's height function h(0..N) at sample_times[i]
    (right-continuous), the whole state: its occupations are
    np.diff(heights[r, i]).  event_count[r] is its number of accepted moves
    and ring_count[r] the number of clock rings that proposed them.  When
    exponential height integrals are tracked, z_int[r, i, x] equals
    int_0^{t_i} Z_s(x) ds exactly (event-resolved), with
    Z_s(x) = exp(-lam h_s(x) + nu s) of the sampled model, and z2_int the
    same integral of Z_s(x)^2.
    """

    sample_times: np.ndarray
    heights: np.ndarray                  # (R, K, N + 1) int64
    event_count: np.ndarray              # (R,) int64
    z_int: np.ndarray | None = None      # (R, K, N + 1)
    z2_int: np.ndarray | None = None
    ring_count: np.ndarray | None = None  # (R,) int64


@dataclass(frozen=True)
class EventRates:
    """Per-event rates of one configuration, or of a stack of them.

    right[..., x-1] / left[..., x-1] are the jump rates across bond (x, x+1)
    for x = 1..N-1; the reservoir entries have the stack's shape (scalars
    for one configuration), and the right ones are None on the half line.
    """

    right: np.ndarray
    left: np.ndarray
    create_left: np.ndarray
    annihilate_left: np.ndarray
    create_right: np.ndarray | None
    annihilate_right: np.ndarray | None


def _pm1(eta, n_sites: int, ndim: int | None = None) -> np.ndarray:
    """eta as an array of +-1 rows of n_sites (with ndim axes, if given)."""
    eta = np.asarray(eta)
    if eta.shape[-1:] != (n_sites,) or ndim not in (None, eta.ndim):
        raise ValueError("configuration size does not match lattice")
    if not np.all(np.abs(eta) == 1):
        raise ValueError("every site must hold exactly one of {-1, +1}")
    return eta


def event_rates(eta, params: ModelParams, lattice: Lattice) -> EventRates:
    """All event rates for one +-1 row or a stack of them (last axis = sites).

    c^R = (p/4)(1+eta(x))(1-eta(x+1)), c^L = (q/4)(1-eta(x))(1+eta(x+1));
    r_A^+ = (alpha/2)(1-eta(1)), r_A^- = (gamma/2)(1+eta(1));
    r_B^+ = (delta/2)(1-eta(N)), r_B^- = (beta/2)(1+eta(N)).
    The one place these formulas live: the exact generator and the Gartner
    identities read them from here (the sampler's channel tables are
    written separately, so the sampler-vs-generator tests compare two
    independent codings).
    """
    eta = _pm1(eta, lattice.n_sites).astype(np.float64)
    first, last = eta[..., 0], eta[..., -1]
    right = params.p / 4.0 * (1.0 + eta[..., :-1]) * (1.0 - eta[..., 1:])
    left = params.q / 4.0 * (1.0 - eta[..., :-1]) * (1.0 + eta[..., 1:])
    create_left = params.alpha / 2.0 * (1.0 - first)
    annihilate_left = params.gamma / 2.0 * (1.0 + first)
    if lattice.has_right_reservoir:
        create_right = params.delta / 2.0 * (1.0 - last)
        annihilate_right = params.beta / 2.0 * (1.0 + last)
    else:
        create_right = annihilate_right = None
    return EventRates(right=right, left=left, create_left=create_left,
                      annihilate_left=annihilate_left, create_right=create_right,
                      annihilate_right=annihilate_right)


def z_field(h, t: float, params: ModelParams) -> np.ndarray:
    """Z(x) = exp(-lam h(x) + nu t) from an integer height array (any leading
    axes; t broadcasts against it).  Raises OverflowError where some
    |log Z| > 500, beyond which Z leaves the safe float range."""
    log_z = -params.lam * np.asarray(h).astype(float) + params.nu * t
    if np.max(np.abs(log_z), initial=0.0) > _LOG_GUARD:
        raise OverflowError("Z field exponent beyond safe range; work in log space")
    return np.exp(log_z)


def replica_rng(master_seed, replica_index: int) -> np.random.Generator:
    """SFC64 stream keyed by (master seed, replica index), for both samplers."""
    if isinstance(master_seed, (tuple, list)):
        key = (*[int(v) for v in master_seed], int(replica_index))
    else:
        key = (int(master_seed), int(replica_index))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def map_replica_blocks(fn, n_replicas: int, master_seed, threads: int = 1) -> list:
    """[fn(rngs) for each block of replicas], in replica order.

    Replicas 0..n_replicas-1 are split into ceil(n_replicas / _BLOCK)
    blocks of balanced size, and fn gets each block's streams
    replica_rng(master_seed, i) in index order.  The blocks are spread over
    `threads` pool workers; since every replica owns its stream, the
    results do not depend on the thread count.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    n_blocks = -(-n_replicas // _BLOCK)
    edges = [n_replicas * b // n_blocks for b in range(n_blocks + 1)]

    def block(b):
        return fn([replica_rng(master_seed, i) for i in range(edges[b], edges[b + 1])])

    if threads <= 1:
        return [block(b) for b in range(n_blocks)]
    from concurrent.futures import ThreadPoolExecutor  # only here: keeps import time flat
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(block, range(n_blocks)))


# ---------------------------------------------------------------------------
# Harris block sampler

_BUFFER = 16   # a replica's buffered (wait, mark) pairs, per channel
_FLUSH = 32    # rounds between flushes of the logged moves


def _harris_tables(params: ModelParams, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Clock and acceptance of the N+1 channels LEFT, bonds 0..N-2, RIGHT.

    Channel c moves height h(c) only, and its move is fixed by the local
    code lap = h(c-1) + h(c+1) - 2 h(c) in {-2, 0, +2}, with the mirror
    ghosts h(-1) = h(1) and h(N+1) = h(N-1) at the ends: an accepted ring
    adds lap to h(c).  lap = -2 is a bond's 10 pair, an empty site 1 and an
    occupied site N; lap = +2 the 01 pair, an occupied site 1 and an empty
    site N.  clock[c] is the largest rate of channel c's moves, and
    accept[c, lap/2 + 1] is rate / clock (written here apart from
    `event_rates`, so the table test compares two codings).
    """
    n = lattice.n_sites
    rates = np.zeros((n + 1, 3))
    rates[0] = params.alpha, 0.0, params.gamma       # creation, annihilation at 1
    rates[1:n] = params.p, 0.0, params.q             # right jump, left jump
    if lattice.has_right_reservoir:
        rates[n] = params.beta, 0.0, params.delta    # annihilation, creation at N
    clock = rates.max(axis=1)
    accept = np.divide(rates, clock[:, None], out=np.zeros_like(rates),
                       where=clock[:, None] > 0)
    return clock, accept


class _Block:
    """Replicas advanced together by Harris's graphical construction.

    Every channel rings at the times of its own Poisson clock, and a uniform
    mark per ring accepts the move with probability accept[c, code].  A
    round fires, in every replica, each channel whose next ring comes before
    both path neighbours' rings (ties go to the left channel) and before the
    next barrier: a sample time or the horizon.  Fired channels share no
    site, so each round is a piece of the sequential path.

    Layout: replica r's slot s = 1..N+1 of a row of S = N+3 holds channel
    s-1 and height h(s-1); slots 0 and N+2 hold the mirror ghosts of the
    heights and an infinite ring time.  Flat index r*S + s addresses every
    per-channel array, and views shifted by one slot give the neighbours.

    Streams: after its start, replica r's stream fills its row with size =
    _BUFFER (N+1) Exp(1) waits, then as many uniform marks; when fewer than
    N+1 remain, `used` new waits, then `used` new marks replace the used
    ones, so its path is fixed by its key and _BUFFER, whatever the block.
    Its first N+1 waits start the clocks; each round its fired channels take
    the next (wait, mark) pairs in channel order.

    inits holds one +-1 start of N sites per stream; the stack is checked
    once, for its shape and its values.
    """

    def __init__(self, params, lattice, inits, rngs, sample_times, horizon, track):
        n = lattice.n_sites
        eta = _pm1(inits, n, ndim=2)
        m, c, s, k = len(eta), n + 1, n + 3, len(sample_times)
        self.m, self.c, self.s, self.rngs, self.track = m, c, s, rngs, track
        self.sample_times, self.barriers = sample_times, [*sample_times, horizon]
        clock, accept = _harris_tables(params, lattice)
        scale = np.divide(1.0, clock, out=np.zeros_like(clock), where=clock > 0)
        self.wait_scale = np.tile(np.concatenate([[0.0], scale, [0.0]]), m)
        # acceptance by flat index 5 s + 2 + lap
        table = np.zeros((s, 5))
        table[1:c + 1, ::2] = accept
        self.table = table.ravel()
        self.code_base = np.tile(5 * np.arange(s) + 2, m)
        self.row_of = np.repeat(np.arange(m), s)
        self.row_edges = np.arange(m + 1) * s
        # heights h(0..N) with ghosts; a slot of margin at both ends
        self.h_buf = np.zeros(m * s + 2, dtype=np.int64)
        self.h = self.h_buf[1:-1].reshape(m, s)
        self.h[:, 2:c + 1] = np.cumsum(eta, axis=1)
        self._ghosts()
        self.size = _BUFFER * c
        self.waits, self.marks = np.empty((2, m, self.size))
        self.drawn, self.pos = np.zeros(m, dtype=np.int64), np.full(m, self.size)
        self._refill(range(m))       # every pair counts as used: fill the rows
        self.t_buf = np.full(m * s + 2, np.inf)
        first = self.waits[:, :c] * scale
        self.t_buf[1:-1].reshape(m, s)[:, 1:c + 1] = np.where(clock > 0, first, np.inf)
        self.pos = np.full(m, c)
        self.moves = []              # accepted moves since the last flush
        self.accepted = np.zeros(m * s, dtype=np.int64)
        self.snap_h = np.empty((m, k, n + 1), dtype=np.int64)
        if track:
            self.params, self.rho = params, params.nu
            self.s_int = np.zeros((2, m * s))        # the integrals of Z and of Z^2
            self.t_last = np.zeros(m * s)
            self.snap_s = np.empty((2, m, k, n + 1))

    def _ghosts(self):
        self.h[:, 0] = self.h[:, 2]
        self.h[:, -1] = self.h[:, -3]

    def _refill(self, rows):
        """Top rows up: `used` new waits, then `used` new marks, from each stream."""
        size = self.size
        for r in rows:
            used, rng = self.pos[r], self.rngs[r]
            for buf, draw in ((self.waits, rng.standard_exponential), (self.marks, rng.random)):
                buf[r, :size - used] = buf[r, used:]
                draw(out=buf[r, size - used:])
            self.drawn[r] += used
            self.pos[r] = 0

    def _increments(self, hx, t0, t1):
        """Both exponential integrals of height value hx over [t0, t1]."""
        z = z_field(hx, t0, self.params)
        if self.rho == 0.0:
            return z * (t1 - t0), z * z * (t1 - t0)
        e = np.expm1(self.rho * (t1 - t0))
        return z * e / self.rho, z * z * e * (e + 2.0) / (2.0 * self.rho)

    def _flush(self):
        """Count the logged moves and add their heights' closed integral pieces."""
        if not self.moves:
            return
        cols = [np.concatenate(col) for col in zip(*self.moves)]
        size = len(self.accepted)
        self.accepted += np.bincount(cols[0], minlength=size)
        if self.track:
            for row, piece in zip(self.s_int, self._increments(*cols[1:])):
                row += np.bincount(cols[0], weights=piece, minlength=size)
        self.moves = []

    def _snapshot(self, k, t):
        c, s = self.c, self.s
        h = self.h[:, 1:c + 1]
        self.snap_h[:, k] = h
        if self.track:
            t_last = self.t_last.reshape(self.m, s)[:, 1:c + 1]
            s_int = self.s_int.reshape(2, self.m, s)[:, :, 1:c + 1]
            for row, piece in zip(s_int, self._increments(h, t_last, t)):
                row += piece
            t_last[:] = t
            self.snap_s[:, :, k] = s_int

    def run(self, debug_checks: bool = False) -> Trajectory:
        """Advance every replica to the horizon; debug_checks re-checks after
        every round that the heights keep slopes +-1."""
        m, s = self.m, self.s
        t, t_left, t_right = self.t_buf[1:-1], self.t_buf[:-2], self.t_buf[2:]
        h, h_left, h_right = self.h_buf[1:-1], self.h_buf[:-2], self.h_buf[2:]
        waits, marks = self.waits.reshape(-1), self.marks.reshape(-1)
        row_start = np.arange(m) * self.size
        rank = np.arange(m * s)
        limit = np.empty(m * s)
        fire, before_right = np.empty(m * s, dtype=bool), np.empty(m * s, dtype=bool)
        for k, barrier in enumerate(self.barriers):
            rounds = 0
            while True:
                np.minimum(t_left, barrier, out=limit)
                np.less(t, limit, out=fire)
                fire &= np.less_equal(t, t_right, out=before_right)
                i = fire.nonzero()[0]
                if not len(i):
                    break
                rounds += 1
                # each replica's fired channels take its next pairs, in order
                edges = i.searchsorted(self.row_edges)
                pair = (row_start + self.pos - edges[:-1])[self.row_of[i]]
                pair += rank[:len(i)]
                self.pos += edges[1:]
                self.pos -= edges[:-1]
                ring = t[i]
                t[i] = ring + waits[pair] * self.wait_scale[i]
                hi = h[i]
                lap = h_left[i] + h_right[i]
                lap -= 2 * hi
                w = (marks[pair] < self.table[self.code_base[i] + lap]).nonzero()[0]
                j, hj = i[w], hi[w]
                h[j] = hj + lap[w]
                self._ghosts()
                if self.track:
                    ring = ring[w]
                    self.moves.append((j, hj, self.t_last[j], ring))
                    self.t_last[j] = ring
                else:
                    self.moves.append((j,))
                # rounds count from the barrier, so a replica's moves are
                # summed in the same groups in any block
                if rounds % _FLUSH == 0:
                    self._flush()
                if (low := self.pos > self.size - self.c).any():
                    self._refill(low.nonzero()[0])
                if debug_checks and not np.all(np.abs(np.diff(self.h[:, 1:-1], axis=1)) == 1):
                    raise AssertionError("heights lost their +-1 slopes")
            self._flush()
            if k < len(self.barriers) - 1:
                self._snapshot(k, barrier)
        accepted = self.accepted.reshape(m, s).sum(axis=1)
        rings = self.drawn - self.size + self.pos - self.c
        return Trajectory(self.sample_times, self.snap_h, accepted,
                          *(self.snap_s if self.track else (None, None)), ring_count=rings)


def simulate_replicas(init, params: ModelParams, lattice: Lattice, horizon: float,
                      sample_times, n_replicas: int, master_seed,
                      track_exp_integrals: bool = False,
                      threads: int = 1) -> Trajectory:
    """Statistically exact continuous-time samples of the open ASEP, for
    replicas 0..n_replicas-1.

    Replica i draws from rng_i = replica_rng(master_seed, i): first its
    start init(rng_i), an array of N values +-1, then its waits and marks.
    sample_times must be nondecreasing and within [0, horizon].  Blocks
    hold at most _BLOCK replicas and are spread over `threads` pool
    workers; since every replica owns its stream and its rounds, the result
    does not depend on either, bit for bit: one Trajectory whose axis 0 is
    the replica index, the blocks joined in order.  event_count counts
    accepted moves and ring_count the rings that proposed them.  With
    track_exp_integrals=True the per-site integrals int_0^t Z_s(x) ds of
    Z_s(x) = exp(-lam h_s(x) + nu s), lam and nu read from params, are
    accumulated exactly (closed form in time, one piece per accepted move
    of the height and one at each snapshot) and snapshotted with the
    heights; the integrals of Z_s(x)^2 come along for quadratic
    functionals.  Tracking draws nothing from the streams.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) and (np.any(np.diff(sample_times) < 0)
                              or sample_times[0] < 0 or sample_times[-1] > horizon):
        raise ValueError("sample_times must be nondecreasing inside [0, horizon]")
    parts = map_replica_blocks(
        lambda rngs: _Block(params, lattice, [init(rng) for rng in rngs], rngs, sample_times,
                            horizon, track_exp_integrals).run(),
        n_replicas, master_seed, threads)
    return replace(parts[0], **{name: np.concatenate([getattr(p, name) for p in parts])
                                for name in ("heights", "event_count", "ring_count",
                                             "z_int", "z2_int")
                                if getattr(parts[0], name) is not None})


# ---------------------------------------------------------------------------
# exact generator oracles

def state_etas(n: int) -> np.ndarray:
    """All 2^N configurations as int8 rows of +-1.

    Row s is state s of `exact_generator`: site x+1 is occupied iff bit x
    of s is set.
    """
    return (2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) - 1).astype(np.int8)


def exact_generator(params: ModelParams, n: int, lattice: Lattice | None = None) -> np.ndarray:
    """Dense CTMC generator over {-1,+1}^N (state bits: bit x <-> site x+1 occupied).

    Built from one `event_rates` call on all 2^N states.  Each move's rate
    (the sum of the two rates across a bond or at a reservoir) becomes an
    off-diagonal entry, and each diagonal entry is minus the left-to-right
    sum of its row's moves: bonds, left reservoir, right one.  At N = 1 both
    reservoirs flip the one site and their entries add.  N is capped at 12
    (a dense 2^12 x 2^12 matrix of 128 MiB); a larger N raises ValueError
    before anything is allocated.
    """
    if n > 12:
        raise ValueError(f"dense generator limited to 2^12 states, got 2^{n}")
    lattice = lattice if lattice is not None else Lattice.interval(n)
    rates = event_rates(state_etas(n), params, lattice)
    moves = [rates.right + rates.left, (rates.create_left + rates.annihilate_left)[:, None]]
    flips = [3 << np.arange(n - 1), [1]]   # the state bits each move flips
    if lattice.has_right_reservoir:
        moves.append((rates.create_right + rates.annihilate_right)[:, None])
        flips.append([1 << (n - 1)])
    moves = np.concatenate(moves, axis=1)
    states = np.arange(1 << n)
    # one row per state: its moves, then its diagonal, in the order of the
    # entries of a per-state loop (np.cumsum adds left to right)
    vals = np.concatenate([moves, -np.cumsum(moves, axis=1)[:, -1:]], axis=1)
    cols = states[:, None] ^ np.concatenate([*flips, [0]])
    Q = np.zeros((1 << n, 1 << n))
    np.add.at(Q, (np.broadcast_to(states[:, None], vals.shape), cols), vals)
    return Q


# ---------------------------------------------------------------------------
# initial conditions

def bernoulli_eta(n: int, seed) -> np.ndarray:
    """Product Bernoulli(1/2) measure: eta(x) = +1 with probability 1/2, as int8 +-1."""
    rng = seed if isinstance(seed, np.random.Generator) else replica_rng(seed, 0)
    return np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)


def alternating_eta(n: int) -> np.ndarray:
    """Deterministic density-1/2 zigzag (the dynamical 'flat' interface), as int8 +-1."""
    return np.array([1 if x % 2 == 0 else -1 for x in range(n)], dtype=np.int8)
