"""The two-phase urn process: sampling and balanced reinforcement.

Each step, every urn draws s balls (with or without replacement) from itself
with probability p, otherwise from a uniformly chosen in-neighbour, and the
drawn colour counts trigger reinforcement of the urn itself, its
out-neighbours, or both. Ball counts are exact 64-bit integers; fractions
are derived on demand, so trajectories accumulate no floating-point drift.
Totals are deterministic: T_t(i) = T_0(i) + C*s*omega_i*t.

Replicas are simulated in lock-step as (replicas, n) integer arrays. All
randomness is consumed from a single numpy Generator in a fixed
(step, urn-block) order, so results are bit-reproducible for a given
(seed, config, graph, replicas) regardless of the snapshot schedule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .theory import Problem

__all__ = [
    "ModelConfig",
    "EnsembleTrajectories",
    "StepKernel",
    "MODEL_CODES",
    "draw_batch",
    "expected_chi",
    "simulate_ensemble",
    "parse_schedule",
]

SCHEMES = ("polya", "friedman")
NEIGHBOURHOODS = ("self", "neighbour", "self_and_neighbour")

MODEL_CODES = {
    "ptsr": ("polya", "self"),
    "ptnr": ("polya", "neighbour"),
    "ptsnr": ("polya", "self_and_neighbour"),
    "ftsr": ("friedman", "self"),
    "ftnr": ("friedman", "neighbour"),
    "ftsnr": ("friedman", "self_and_neighbour"),
}

# Uniform blocks are pre-generated for this many steps at a time (capped so a
# block stays small); the cap depends only on (replicas, n, s), never on the
# schedule, which keeps the stream layout reproducible.
_BLOCK_BUDGET = 4_000_000


@dataclass(frozen=True)
class ModelConfig:
    """Model choice plus initial composition.

    T0 and W0 are per-urn vectors; every urn must start with at least one
    ball of each colour. Sampling without replacement additionally requires
    s <= min(T0) (totals only grow, so the condition holds for all t).
    """

    scheme: str
    neighbourhood: str
    p: float
    s: int
    C: int
    sampling: str
    T0: np.ndarray
    W0: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.neighbourhood not in NEIGHBOURHOODS:
            raise ConfigError(f"unknown neighbourhood {self.neighbourhood!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p={self.p} outside [0, 1]")
        if self.s < 1 or self.C < 1:
            raise ConfigError("s and C must be positive integers")
        if self.sampling not in ("with", "without"):
            raise ConfigError(f"sampling must be 'with' or 'without', got {self.sampling!r}")
        T0 = np.atleast_1d(np.asarray(self.T0, dtype=np.int64))
        W0 = np.atleast_1d(np.asarray(self.W0, dtype=np.int64))
        if T0.shape != W0.shape:
            raise ConfigError("T0 and W0 must have the same length")
        if np.any(W0 <= 0) or np.any(W0 >= T0):
            raise ConfigError("need 0 < W0_i < T0_i: each urn starts with both colours")
        if self.sampling == "without" and self.s > int(T0.min()):
            raise ConfigError(f"sampling without replacement needs s <= min(T0) = {int(T0.min())}")
        object.__setattr__(self, "T0", T0)
        object.__setattr__(self, "W0", W0)

    @classmethod
    def from_code(cls, code: str, *, p, s, C, t0, w0, n, sampling="with", seed=0):
        """Build from a four-letter model code, broadcasting scalar t0/w0."""
        code = code.lower()
        if code not in MODEL_CODES:
            raise ConfigError(f"unknown model code {code!r}")
        scheme, neigh = MODEL_CODES[code]
        T0 = np.full(n, t0, dtype=np.int64) if np.isscalar(t0) else np.asarray(t0, np.int64)
        W0 = np.full(n, w0, dtype=np.int64) if np.isscalar(w0) else np.asarray(w0, np.int64)
        return cls(scheme, neigh, float(p), int(s), int(C), sampling, T0, W0, int(seed))

    @property
    def model_code(self) -> str:
        for code, pair in MODEL_CODES.items():
            if pair == (self.scheme, self.neighbourhood):
                return code
        raise AssertionError

    @property
    def is_friedman(self) -> bool:
        return self.scheme == "friedman"

    @property
    def uniform_t0(self) -> bool:
        return bool(np.all(self.T0 == self.T0[0]))


@dataclass(frozen=True)
class EnsembleTrajectories:
    """Integer snapshots of a lock-step ensemble; Z is derived, never stored."""

    times: np.ndarray   # (K,)
    W: np.ndarray       # (K, R, n) int64
    T: np.ndarray       # (K, n) int64, identical across replicas

    @cached_property
    def Z(self) -> np.ndarray:
        """Colour fractions W / T as one (K, R, n) array."""
        return self.W / self.T[:, None, :]


class StepKernel:
    """One problem's tables for the two phases of a step.

    The sampling phase reads the in-neighbour lists; the reinforcement phase
    adds eta*chi to the urn itself and kappa*chi to each out-neighbour.
    """

    def __init__(self, problem: Problem):
        self.cfg = problem.cfg
        self.nbr_flat, self.deg = problem.in_neighbours
        self.nbr_off = np.cumsum(self.deg) - self.deg
        self.idx = np.arange(len(self.deg))
        params = problem.params
        self.eta, self.kappa = params.eta, params.kappa
        self.dT = self.cfg.C * self.cfg.s * params.omega

    @cached_property
    def A_int(self) -> np.ndarray:
        """A_int[u, v] = 1 iff urn u reinforces urn v, i.e. u -> v is an edge."""
        n = len(self.deg)
        A = np.zeros((n, n), np.int64)
        A[self.nbr_flat, np.repeat(self.idx, self.deg)] = 1
        return A

    def draw(self, W2, T1, coin, pick, draws):
        """Vectorised sampling phase on a (R, n) state block.

        Returns (src, Y, chi): the urn each sample came from, its white balls,
        and the reinforcing count (Y for Polya, s - Y for Friedman).

        coin decides self vs neighbour, pick selects the in-neighbour, and the
        s uniforms in draws realise the sample as sequential Bernoulli
        comparisons: with replacement the urn composition is held fixed,
        without replacement drawn balls are removed between comparisons
        (exact hypergeometric).
        """
        cfg = self.cfg
        src = np.where(coin < cfg.p, self.idx[None, :],
                       self.nbr_flat[self.nbr_off[None, :]
                                     + (pick * self.deg[None, :]).astype(np.int64)])
        Wsrc = np.take_along_axis(W2, src, axis=1)
        Tsrc = T1[src]
        if cfg.sampling == "with":
            Y = (draws < (Wsrc / Tsrc)[..., None]).sum(axis=-1, dtype=np.int64)
        else:
            w_rem = Wsrc.astype(np.float64)
            t_rem = Tsrc.astype(np.float64)
            Y = np.zeros(W2.shape, np.int64)
            for k in range(cfg.s):
                take = draws[..., k] < (w_rem / t_rem)
                Y += take
                w_rem -= take
                t_rem -= 1.0
        return src, Y, (Y if cfg.scheme == "polya" else cfg.s - Y)

    def reinforce(self, W, chi) -> None:
        """Add one step's white balls to W in place (integer-exact)."""
        W += self.cfg.C * (self.eta * chi + self.kappa * (chi @ self.A_int))


def draw_batch(problem: Problem, W, T, rng, ndraws: int):
    """ndraws independent sampling phases from one fixed state (W, T).

    Returns (source, Y, chi), each of shape (ndraws, n). Used for Monte
    Carlo checks of the conditional reinforcement mean.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    n = problem.g.n
    coin = rng.random((ndraws, n))
    pick = rng.random((ndraws, n))
    draws = rng.random((ndraws, n, problem.cfg.s))
    return StepKernel(problem).draw(np.broadcast_to(W, (ndraws, n)), T, coin, pick, draws)


def expected_chi(problem: Problem, W, T) -> np.ndarray:
    """Conditional mean of chi given the state; same for both sampling modes."""
    cfg = problem.cfg
    Z = W / T
    mix = cfg.p * Z + (1.0 - cfg.p) * (Z @ (problem.A / problem.deg[None, :]))
    if cfg.scheme == "polya":
        return cfg.s * mix
    return cfg.s * (1.0 - mix)


def parse_schedule(schedule, steps: int) -> np.ndarray:
    """Snapshot times: 'all', 'geometric(r)' / ('geometric', r), or a list.

    Always includes t=0 and t=steps. Default is geometric(1.2).
    """
    if schedule is None:
        schedule = ("geometric", 1.2)
    if isinstance(schedule, str):
        txt = schedule.strip().lower()
        if txt == "all":
            return np.arange(steps + 1)
        try:
            if txt.startswith("geometric"):
                inner = txt[len("geometric"):].strip("():")
                schedule = ("geometric", float(inner) if inner else 1.2)
            else:
                schedule = [int(x) for x in txt.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(
                f"bad schedule {schedule!r}: expected all, geometric(r) or t1,t2,...") from None
    if isinstance(schedule, tuple) and schedule and schedule[0] == "geometric":
        r = float(schedule[1])
        if r <= 1.0:
            raise ConfigError("geometric schedule ratio must exceed 1")
        ts = {0, steps}
        t = 1.0
        while t <= steps:
            ts.add(int(t))
            t *= r
        return np.array(sorted(ts))
    ts = sorted(set(int(t) for t in schedule) | {0, steps})
    if ts[0] < 0 or ts[-1] > steps:
        raise ConfigError("schedule times must lie in [0, steps]")
    return np.array(ts)


def simulate_ensemble(problem: Problem, steps: int,
                      schedule=None, replicas: int = 1,
                      rng: Union[None, int, np.random.Generator] = None,
                      ) -> EnsembleTrajectories:
    """Run `replicas` independent copies of the process in lock-step.

    Every replica starts from (W0, T0) and owns an independent slice of the
    random stream at each step. Snapshots of (W, T) are taken at the
    scheduled times.
    """
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    if replicas < 1:
        raise ConfigError("need at least one replica")
    cfg = problem.cfg
    if rng is None:
        rng = cfg.seed
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    n = problem.g.n
    kern = StepKernel(problem)
    times = parse_schedule(schedule, steps)
    snap_at = {int(t): i for i, t in enumerate(times)}

    W = np.tile(cfg.W0, (replicas, 1))
    T = cfg.T0.copy()

    K = len(times)
    Ws = np.empty((K, replicas, n), np.int64)
    Ts = np.empty((K, n), np.int64)

    def snapshot(t):
        i = snap_at[t]
        Ws[i] = W
        Ts[i] = T

    if 0 in snap_at:
        snapshot(0)

    block = max(1, min(128, _BLOCK_BUDGET // max(1, replicas * n * (2 + cfg.s))))
    t = 0
    while t < steps:
        b = min(block, steps - t)
        coin = rng.random((b, replicas, n))
        pick = rng.random((b, replicas, n))
        draws = rng.random((b, replicas, n, cfg.s))
        for j in range(b):
            _, _, chi = kern.draw(W, T, coin[j], pick[j], draws[j])
            kern.reinforce(W, chi)
            T = T + kern.dT
            t += 1
            if t in snap_at:
                snapshot(t)
    return EnsembleTrajectories(times=times, W=Ws, T=Ts)
