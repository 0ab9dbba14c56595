"""The two-phase urn process: sampling and balanced reinforcement.

Each step, every urn draws s balls (with or without replacement) from itself
with probability p, otherwise from a uniformly chosen in-neighbour, and the
drawn colour counts trigger reinforcement of the urn itself, its
out-neighbours, or both. Ball counts are exact 64-bit integers; fractions
are derived on demand, so trajectories accumulate no floating-point drift.
Totals are deterministic: T_t(i) = T_0(i) + C*s*omega_i*t, and a run whose
totals would leave the int64 range is rejected before it starts.

Replicas are simulated in lock-step as (replicas, n) integer arrays, and a
step reads only the in-neighbour lists, so it costs O(replicas * (n +
edges)). The urn each urn samples from does not depend on the state, so
its flat index into the (replicas, n) state is computed ahead, a chunk of
steps at a time. Sampling with replacement gathers the sources' fractions
W/T in one take and counts each urn's s successes with one integer matrix
product, exact for any s; without replacement, drawn balls are removed
between s sequential comparisons. Reinforcement sums the drawn white counts
Y over each urn's list (itself and/or its in-neighbours) with one gather
and one np.add.reduceat and adds C lam sum(Y) + b0 dT, dT = C s omega:
C sum(Y) for Polya, (b0, lam) = (0, 1), and C sum(s - Y) for Friedman,
(1, -1). All randomness is consumed from a single numpy Generator in a
fixed order: per block of b steps, b*R*n coins, then b*R*n picks, then
each step's R*n*s sample uniforms in step order. The loop holds one block
of uniforms in one buffer refilled in place, first with the coins, of which
it keeps only the mask coin < p, then with the picks; and one step's sample
uniforms. Results are bit-reproducible for a given (seed, config, graph,
replicas) regardless of the snapshot schedule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError, NotACheckpointError

if TYPE_CHECKING:
    from .theory import Problem

__all__ = [
    "ModelConfig",
    "EnsembleTrajectories",
    "StepKernel",
    "MODEL_CODES",
    "check_budget",
    "check_keys",
    "checkpoint_index",
    "read_number",
    "simulate_ensemble",
    "parse_schedule",
]

MODEL_CODES = {
    "ptsr": ("polya", "self"),
    "ptnr": ("polya", "neighbour"),
    "ptsnr": ("polya", "self_and_neighbour"),
    "ftsr": ("friedman", "self"),
    "ftnr": ("friedman", "neighbour"),
    "ftsnr": ("friedman", "self_and_neighbour"),
}

# A block is as many steps, at most 128, as fit this many uniforms at (2 + s)
# per (replica, urn). The formula fixes where block boundaries fall, and so
# the stream layout, though the loop holds only one block of uniforms and its
# self-sampling mask; it depends only on (replicas, n, s), never on the
# schedule.
_BLOCK_BUDGET = 4_000_000
# Sample sources are state-independent and are computed from a block's
# mask and picks for about this many (replica, urn) pairs at a time, which
# keeps the index array small next to the block's uniforms.
_SOURCE_CHUNK = 8192
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ModelConfig:
    """Model choice plus initial composition.

    T0 and W0 are per-urn vectors; every urn must start with at least one
    ball of each colour. Sampling without replacement additionally requires
    s <= min(T0) (totals only grow, so the condition holds for all t).
    """

    code: str  # a lower-case key of MODEL_CODES: the scheme and neighbourhood
    p: float
    s: int
    C: int
    sampling: str
    T0: np.ndarray
    W0: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.code not in MODEL_CODES:
            raise ConfigError(f"unknown model code {self.code!r}")
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
    def from_code(cls, code: str, *, p, s, C, t0, w0=None, n, sampling="with", seed=0):
        """Build from a four-letter model code. t0 and w0 are one integer or n,
        as a list or a string; w0 defaults to t0 // 2."""
        T0 = _per_urn(t0, "t0", n)
        W0 = T0 // 2 if w0 is None else _per_urn(w0, "w0", n)
        return cls(str(code).lower(), read_number(p, "p", integer=False), read_number(s, "s"),
                   read_number(C, "c"), sampling, T0, W0, read_number(seed, "seed"))

    @property
    def scheme(self) -> str:
        return MODEL_CODES[self.code][0]

    @property
    def neighbourhood(self) -> str:
        return MODEL_CODES[self.code][1]

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
        return self.fractions(slice(None))

    def fractions(self, k) -> np.ndarray:
        """Colour fractions W / T of snapshot k alone, (R, n); or of the
        snapshots a slice k selects."""
        return self.W[k] / self.T[k][..., None, :]

    def index_of(self, t: int) -> int:
        """Position of checkpoint t in times; NotACheckpointError if absent."""
        return checkpoint_index(self.times, t)


def checkpoint_index(times, t: int) -> int:
    """Position of t in the snapshot schedule times; NotACheckpointError if absent."""
    times = np.asarray(times).tolist()
    if t not in times:
        raise NotACheckpointError(f"t={t} is not a checkpoint (have {times})")
    return times.index(t)


class StepKernel:
    """One problem's tables for the two phases of a step.

    Both phases read the in-neighbour lists; no n x n array is built. Each
    urn gains C lam sum(Y) + b0 dT white balls, summing Y over its omega_i
    urns: itself when eta, then its in-neighbours when kappa (0 or 1 each).
    """

    def __init__(self, problem: Problem):
        cfg = self.cfg = problem.cfg
        self.nbr_flat, self.deg = problem.g.in_neighbours
        self.nbr_off = np.cumsum(self.deg) - self.deg
        self.idx = np.arange(len(self.deg))
        params = problem.params
        self.dT = cfg.C * cfg.s * params.omega
        self.gain, self.base = cfg.C * params.lam, params.b0 * self.dT
        self.rflat = self.roff = None
        if params.kappa and params.eta:
            self.rflat = np.insert(self.nbr_flat, self.nbr_off, self.idx)
            self.roff = self.nbr_off + self.idx
        elif params.kappa:
            self.rflat, self.roff = self.nbr_flat, self.nbr_off
        self.ones = np.ones(cfg.s, np.int64)  # counts a sample's 0/1 draws exactly

    def sources(self, own, pick):
        """Flat indices into the (R, n) state of the urn each urn samples
        from, for a (..., R, n) block of coin < p masks and picks.

        An urn in own samples itself, otherwise pick selects one of its
        in-neighbours uniformly; replica r's indices are offset by r*n.
        """
        R, n = own.shape[-2:]
        src = np.where(own, self.idx,
                       self.nbr_flat[self.nbr_off + (pick * self.deg).astype(np.int64)])
        src += np.arange(0, R * n, n)[:, None]
        return src

    def draw(self, W, T, src, draws):
        """Sampling phase on a (R, n) state: each urn's Y white balls among
        its s draws from the source src (flat, see sources).

        The s uniforms in draws realise the sample as sequential Bernoulli
        comparisons: with replacement the urn composition is held fixed,
        without replacement drawn balls are removed between comparisons
        (exact hypergeometric).
        """
        if self.cfg.sampling == "with":
            q = (W / T).take(src)
            return (draws < q[..., None]) @ self.ones
        w_src = W.take(src)
        w_rem = w_src.astype(np.float64)
        t_rem = T.take(src % len(T)).astype(np.float64)
        for k in range(self.cfg.s):
            w_rem -= draws[..., k] < (w_rem / t_rem)
            t_rem -= 1.0
        return w_src - w_rem.astype(np.int64)

    def reinforce(self, W, Y) -> None:
        """Add the white balls of draw's (R, n) counts Y to W in place (exact)."""
        if self.rflat is not None:
            Y = np.add.reduceat(Y[:, self.rflat], self.roff, axis=1)
        W += self.gain * Y
        W += self.base


def read_number(value, key: str, integer: bool = True, least=None):
    """value as an int, or else as a finite float: the one reader of the
    numbers that flags, config files and plans give. A number is a Python or
    NumPy number, or an ASCII string without '_' that int() or float() reads
    (flags, key=value lines); an integer may be an integral float (JSON 1e5
    or 4.0), but not 100.9 or '1e5'. A bool is never a number. ConfigError
    naming key unless value is a number of the mode, at least `least` when
    that is given.
    """
    number = None
    if not isinstance(value, bool) and isinstance(value, (str, int, float, np.number)):
        try:
            if isinstance(value, str) and (not value.isascii() or "_" in value):
                raise ValueError  # int() and float() also read '1_0' and Unicode digits
            if not integer:
                number = float(value)
            elif isinstance(value, (str, int, np.integer)) or value.is_integer():
                number = int(value)
        except (ValueError, OverflowError):
            pass
    if number is None or not abs(number) < np.inf:
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a finite number'}, "
                          f"got {value!r}")
    if least is not None and number < least:
        raise ConfigError(f"{key} must be >= {least}, got {number}")
    return number


def check_keys(what: str, obj: dict, known) -> None:
    """ConfigError naming what and the keys of obj that are not in known."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) " + ", ".join(repr(key) for key in unknown))


def _per_urn(value, key: str, n: int) -> np.ndarray:
    """n int64 values from one integer or n of them: a list, or a string
    separated by commas or spaces."""
    items = (value.replace(",", " ").split() if isinstance(value, str) else
             list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value])
    try:
        vals = np.array([read_number(x, key) for x in items], dtype=np.int64)
    except OverflowError:
        raise ConfigError(f"{key} must fit in int64, got {value!r}") from None
    if len(vals) not in (1, n):
        raise ConfigError(f"{key}: expected 1 or {n} values, got {len(vals)} in {value!r}")
    return np.resize(vals, n)


def parse_schedule(schedule, steps: int) -> np.ndarray:
    """Snapshot times: 'all', 'geometric(r)' (the default, r = 1.2), or the
    times t1,t2,... as a string or a list. Always includes t=0 and t=steps.
    """
    if schedule is None:
        schedule = "geometric(1.2)"
    txt = schedule.strip().lower() if isinstance(schedule, str) else None
    if txt == "all":
        return np.arange(steps + 1)
    geometric = txt is not None and txt.startswith("geometric(") and txt.endswith(")")
    try:
        if geometric:
            r = read_number(txt[len("geometric("):-1], "ratio", integer=False)
        else:
            ts = {read_number(t, "time")
                  for t in (schedule if txt is None else txt.replace(",", " ").split())}
    except (ConfigError, TypeError):
        expected = "a list of times" if txt is None else "all, geometric(r) or t1,t2,..."
        raise ConfigError(f"bad schedule {schedule!r}: expected {expected}") from None
    if geometric:
        if r <= 1.0:
            raise ConfigError("geometric schedule ratio must exceed 1")
        if 0 <= (r - 1.0) * steps <= 0.5:
            # the loop below advances t <= steps by at most (r - 1) * steps
            # <= 1/2 a product, so it yields every time, after ln(steps)/ln(r)
            # products: without bound as r -> 1
            return np.arange(steps + 1)
        ts, t = set(), 1.0
        while t <= steps:
            ts.add(int(t))
            t *= r
    ts = sorted(ts | {0, steps})
    if ts[0] < 0 or ts[-1] > steps:
        raise ConfigError("schedule times must lie in [0, steps]")
    return np.array(ts)


def check_budget(problem: Problem, steps, replicas, schedule, seed) -> tuple:
    """The run (steps, replicas, times, seed), read and checked: steps >= 0,
    replicas >= 1, seed >= 0, and parse_schedule's times as a tuple.
    ConfigError when one is malformed or out of range, or when the totals of
    `steps` steps could pass int64: totals grow by C*s*omega_i per step and
    W <= T, so the bound max(T0) + C*s*max(omega)*steps, and the per-step
    increment itself, cover every ball count; both are Python integers.
    """
    steps = read_number(steps, "steps", least=0)
    replicas = read_number(replicas, "replicas", least=1)
    seed = read_number(seed, "seed", least=0)
    cfg = problem.cfg
    inc = cfg.C * cfg.s * int(problem.params.omega.max())
    top = max(int(cfg.T0.max()) + inc * steps, inc)
    if top > _INT64_MAX:
        raise ConfigError(f"ball counts overflow int64 within {steps} steps: "
                          f"totals reach {top} > {_INT64_MAX}")
    return steps, replicas, tuple(parse_schedule(schedule, steps).tolist()), seed


def simulate_ensemble(problem: Problem, steps: int,
                      schedule=None, replicas: int = 1,
                      seed: Optional[int] = None) -> EnsembleTrajectories:
    """Run `replicas` independent copies of the process in lock-step.

    Every replica starts from (W0, T0) and owns an independent slice of the
    random stream at each step; seed defaults to the config's. W is copied at
    the scheduled times, whose totals are T0 + C*s*omega*t. The stream does
    not depend on the schedule. ConfigError on a bad budget (see check_budget).
    """
    cfg = problem.cfg
    steps, replicas, times, seed = check_budget(
        problem, steps, replicas, schedule, cfg.seed if seed is None else seed)
    rng = np.random.default_rng(seed)

    n = problem.g.n
    kern = StepKernel(problem)
    snap_at = {t: i for i, t in enumerate(times)}

    W = np.tile(cfg.W0, (replicas, 1))
    T = cfg.T0
    Ws = np.empty((len(times), replicas, n), np.int64)
    Ws[0] = W  # times[0] is always 0

    block = max(1, min(128, _BLOCK_BUDGET // max(1, replicas * n * (2 + cfg.s))))
    chunk = max(1, _SOURCE_CHUNK // (replicas * n))
    uniforms = np.empty((min(block, steps), replicas, n))
    owns = np.empty(uniforms.shape, bool)
    draws = np.empty((replicas, n, cfg.s))
    t = 0
    while t < steps:
        b = min(block, steps - t)
        own = np.less(rng.random(out=uniforms[:b]), cfg.p, out=owns[:b])
        pick = rng.random(out=uniforms[:b])
        for j in range(b):
            if j % chunk == 0:
                src = kern.sources(own[j:j + chunk], pick[j:j + chunk])
            rng.random(out=draws)
            kern.reinforce(W, kern.draw(W, T, src[j % chunk], draws))
            T = T + kern.dT
            t += 1
            if t in snap_at:
                Ws[snap_at[t]] = W
    return EnsembleTrajectories(times=np.array(times), W=Ws,
                                T=cfg.T0 + np.outer(times, kern.dT))
