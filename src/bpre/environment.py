"""Finite-support iid random-environment models.

An environment model is a finite mixture over offspring laws. Keeping the
mixture finite makes every expectation over the environment an exact finite
sum, so tilting weights, regime constants and importance-sampling ratios are
exact arithmetic rather than nested estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .offspring import (
    PROB_TOL,
    LinearFractional,
    OffspringLaw,
    geometric_lf,
    lf_from_moments,
    moments,
)


@dataclass(frozen=True)
class EnvironmentModel:
    """Finite mixture of offspring laws; one draw per generation."""

    components: tuple[tuple[OffspringLaw, float], ...]

    def __init__(self, components: Sequence[tuple[OffspringLaw, float]]):
        components = tuple((law, float(w)) for law, w in components)
        if not components:
            raise ValidationError("model needs at least one component", field="components")
        # written so that a NaN weight fails the test
        if not all(w > 0.0 for _, w in components):
            raise ValidationError("component weights must be positive", field="components")
        total = math.fsum(w for _, w in components)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"weights sum to {total!r}, not 1 within {PROB_TOL}", field="components"
            )
        object.__setattr__(
            self, "components", tuple((law, w / total) for law, w in components)
        )

    @property
    def laws(self) -> tuple[OffspringLaw, ...]:
        return tuple(law for law, _ in self.components)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.components])

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([moments(law)[0] for law, _ in self.components])

    @cached_property
    def log_means(self) -> np.ndarray:
        """Steps of the log-mean walk; the one definition every estimator uses."""
        with np.errstate(divide="ignore"):
            return np.log(self.means)

    @cached_property
    def all_linear_fractional(self) -> bool:
        return all(isinstance(law, LinearFractional) for law, _ in self.components)


@dataclass(frozen=True)
class EnvSequence:
    """An ordered environment realization: one offspring law per generation."""

    laws: tuple[OffspringLaw, ...]

    def __init__(self, laws: Sequence[OffspringLaw]):
        object.__setattr__(self, "laws", tuple(laws))

    def __len__(self) -> int:
        return len(self.laws)

    def __iter__(self):
        return iter(self.laws)

    def __getitem__(self, i):
        return self.laws[i]


def draw_env(
    model: EnvironmentModel, n: int, stream: np.random.Generator
) -> EnvSequence:
    """Draw n iid generations from the component mixture."""
    laws = model.laws
    return EnvSequence([laws[i] for i in draw_env_batch(model, n, stream, 1).idx[0]])


@dataclass(frozen=True)
class TiltPlan:
    """Draw plan of the environment law tilted by m**theta.

    Replicates drawn under ``weights`` carry the importance weight
    rate**n * exp(-theta * S_n), which reweights them back to the base model.
    """

    theta: float
    rate: float  # the normalizer E[m**theta]
    weights: np.ndarray  # component probabilities of the tilted mixture


def tilt_plan(model: EnvironmentModel, theta: float) -> TiltPlan:
    tilted, z = tilt(model, theta)
    return TiltPlan(theta=theta, rate=z, weights=tilted.weights)


# --- block codes ------------------------------------------------------------
#
# Monte Carlo environments are drawn and stored b generations at a time: the
# components of a block, read as a base-K number with the first generation
# most significant, form its code. b is the largest block with
# K**b <= BLOCK_TABLE_SIZE, at most MAX_BLOCK, and 1 when K exceeds
# BLOCK_TABLE_SIZE; a last block of n mod b generations is shorter. Each code
# is one draw from the product law of its block, through a Walker/Vose alias
# table, and the batch keeps the slot of the table the draw landed in: slot
# 2j + 1 holds code j and slot 2j its alias. Per-block quantities (S, the
# walk's steps and the LF survival kernel's composite step) are gathered
# straight from the slot, through tables composed with the alias pick and
# cached per (weights, block length); the codes and the component indices
# are formed from the slots only for their readers.

BLOCK_TABLE_SIZE = 4096
MAX_BLOCK = 12


@lru_cache(maxsize=64)
def block_length(k: int) -> int:
    """Generations per block code of a model with k components."""
    b = 1
    while b < MAX_BLOCK and k ** (b + 1) <= BLOCK_TABLE_SIZE:
        b += 1
    return b


def _block_values(values, length: int, combine: np.ufunc) -> np.ndarray:
    """combine(values[c_1], ..., values[c_length]) of every block of
    ``length`` components, indexed by block code."""
    out = values = np.asarray(values)
    for _ in range(length - 1):
        out = combine.outer(out, values).ravel()
    return out


@lru_cache(maxsize=64)
def _alias_table(p: tuple[float, ...], length: int) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table of one block code of ``length`` generations
    drawn iid from ``p``.

    A uniform u picks cell j = floor(u * N) of the N codes, and then slot
    2j + 1, which holds code pick[2j + 1] = j, when u * N < edge[j] = j +
    P(keep j), else slot 2j, which holds its alias pick[2j].
    """
    probs = _block_values(p, length, np.multiply)
    size = len(probs)
    # Python floats and lists: the loop runs once per code, up to 4096 times
    mass = (probs * (size / probs.sum())).tolist()
    keep = [1.0] * size
    alias = list(range(size))
    small = [j for j in range(size) if mass[j] < 1.0]
    large = [j for j in range(size) if mass[j] >= 1.0]
    while small and large:
        j, big = small.pop(), large.pop()
        keep[j], alias[j] = mass[j], big
        mass[big] = (mass[big] + mass[j]) - 1.0
        (small if mass[big] < 1.0 else large).append(big)
    # cells left over in either list hold mass 1 up to rounding and keep themselves
    pick = np.stack([alias, np.arange(size)], axis=1).ravel()
    edge = np.arange(size) + np.array(keep)
    return _read_only(edge), _read_only(pick.astype(np.min_scalar_type(size - 1)))


def _draw_slots(rng: np.random.Generator, p, length: int, out: np.ndarray) -> None:
    """Fill the intp array ``out`` with alias slots of block codes of
    ``length`` generations from ``p``, one uniform each."""
    edge = _alias_table(tuple(p), length)[0]
    # u < 1 has 53 bits, so u * N rounds below N and cell stays in range
    x = rng.random(out.shape)
    x *= len(edge)
    cell = x.astype(np.intp)
    np.left_shift(cell, 1, out=out)
    out |= x < edge.take(cell)


@lru_cache(maxsize=16)
def _digits(k: int, length: int) -> np.ndarray:
    """(k**length, length) components of every block code (uint8 up to K = 256)."""
    codes = np.arange(k**length)[:, None]
    places = k ** np.arange(length - 1, -1, -1)
    return _read_only((codes // places % k).astype(np.min_scalar_type(k - 1)))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached table read-only; chunks on several threads share it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _slot_log_means(log_means: tuple[float, ...], p: tuple[float, ...], length: int) -> np.ndarray:
    """S of the block code in each alias slot of blocks drawn from ``p``:
    the sum of its generations' log means."""
    return _read_only(_block_values(log_means, length, np.add).take(_alias_table(p, length)[1]))


@lru_cache(maxsize=16)
def _slot_steps(log_means: tuple[float, ...], p: tuple[float, ...], length: int) -> np.ndarray:
    """(length, 2 K**length) log mean of each generation of the block code
    in each alias slot of blocks drawn from ``p``."""
    digits = _digits(len(log_means), length).take(_alias_table(p, length)[1], axis=0)
    return _read_only(np.array(log_means)[digits.T])


@dataclass(frozen=True)
class EnvBatch:
    """A chunk of Monte Carlo environments, one row per replicate: the alias
    slots of their block codes (see ``block_length``) and the tilt plan they
    were drawn under."""

    model: EnvironmentModel
    n: int
    slots: np.ndarray  # (count, ceil(n / b)) alias slots, generation order left to right
    plan: TiltPlan | None = None  # the tilt the slots were drawn under

    @cached_property
    def law(self) -> tuple[float, ...]:
        """The component probabilities the slots were drawn from; with the
        block length they pick the alias table that maps slots to codes."""
        return tuple(self.model.weights if self.plan is None else self.plan.weights)

    def blocks(self, stop: int | None = None) -> Iterator[tuple[np.ndarray, int, int]]:
        """Yield (slots, lo, hi) of the blocks [lo, hi) of generations, left
        to right, that cover generations 0..stop - 1 (all n by default)."""
        b = block_length(len(self.model.laws))
        for j, lo in enumerate(range(0, self.n if stop is None else stop, b)):
            yield self.slots[:, j], lo, min(lo + b, self.n)

    @cached_property
    def s_n(self) -> np.ndarray:
        """(count,) S_n of every replicate, read one block slot at a time."""
        log_means = tuple(self.model.log_means)
        s = np.zeros(len(self.slots))
        for slot, lo, hi in self.blocks():
            s += _slot_log_means(log_means, self.law, hi - lo).take(slot)
        return s

    @cached_property
    def log_w(self) -> np.ndarray:
        """(count,) log importance weights back to the base model,
        n log(rate) - theta S_n (0 untilted); finite where ``w`` underflows."""
        if self.plan is None:
            return np.zeros(len(self.slots))
        return self.n * math.log(self.plan.rate) - self.plan.theta * self.s_n

    @cached_property
    def w(self) -> np.ndarray:
        """(count,) importance weights exp(log_w); exact ones untilted."""
        return np.ones(len(self.slots)) if self.plan is None else np.exp(self.log_w)

    @cached_property
    def codes(self) -> np.ndarray:
        """(count, ceil(n / b)) block codes (uint8 up to K**b = 256), read
        from the slots through the alias picks on first read."""
        k = len(self.model.laws)
        codes = np.empty(self.slots.shape[::-1], dtype=np.min_scalar_type(k ** block_length(k) - 1))
        for row, (slot, lo, hi) in zip(codes, self.blocks()):
            row[...] = _alias_table(self.law, hi - lo)[1].take(slot)
        return codes.T

    @cached_property
    def idx(self) -> np.ndarray:
        """(count, n) component indices (uint8 up to K = 256), unpacked from
        the slots on first read."""
        return self.prefix(self.n)

    def prefix(self, generations: int) -> np.ndarray:
        """(count, generations) component indices of the first
        ``generations`` generations: sliced from ``idx`` once that is formed,
        and otherwise unpacked from only the blocks that cover them."""
        if "idx" in self.__dict__:
            return self.idx[:, :generations]
        k = len(self.model.laws)
        out = np.empty((len(self.slots), generations), dtype=np.min_scalar_type(k - 1))
        for code, (_, lo, hi) in zip(self.codes.T, self.blocks(generations)):
            out[:, lo:hi] = _digits(k, hi - lo)[code, : generations - lo]
        return out

    def partial_sums(self) -> Iterator[np.ndarray]:
        """Yield the walk's partial sums S_1, ..., S_n of every replicate, one
        (count,) array per generation, read from the slots block by block.

        Each S_i is S_{i-1} plus the step of generation i, so it has the bits
        of ``np.cumsum(self.model.log_means[self.idx], axis=1)[:, i - 1]``.
        The same array is yielded every time, updated in place.
        """
        log_means = tuple(self.model.log_means)
        s = np.zeros(len(self.slots))
        for slot, lo, hi in self.blocks():
            for table in _slot_steps(log_means, self.law, hi - lo):
                s += table.take(slot)
                yield s

    def walk_minimum(self) -> np.ndarray:
        """(count,) minimum of each replicate's walk over S_1..S_n; +inf
        when n is 0."""
        low = np.full(len(self.slots), np.inf)
        for s in self.partial_sums():
            np.minimum(low, s, out=low)
        return low


def pack_env(model: EnvironmentModel, idx) -> EnvBatch:
    """EnvBatch of the given (count, n) component indices, with unit
    weights: hand-built environments in the form the kernels read."""
    idx = np.asarray(idx, dtype=np.intp)
    count, n = idx.shape
    k = len(model.laws)
    b = block_length(k)
    full = n - n % b
    places = k ** np.arange(b - 1, -1, -1)
    codes = idx[:, :full].reshape(count, full // b, b) @ places
    if full < n:  # the short last block
        codes = np.column_stack([codes, idx[:, full:] @ places[full - n :]])
    return EnvBatch(model, n, 2 * codes + 1)  # code c sits in slot 2c + 1 of every alias table


def draw_env_batch(
    model: EnvironmentModel,
    n: int,
    rng: np.random.Generator,
    count: int,
    plan: TiltPlan | None = None,
) -> EnvBatch:
    """Draw ``count`` iid environments of n generations, tilted when ``plan``
    is given; every Monte Carlo estimator draws its environments here.

    Each block code takes one uniform, and the batch keeps the alias slot it
    picked. They are drawn one block row at a time, the first block of every
    replicate before the second, with the short last block last: the
    (ceil(n / b), count) array that ``slots`` transposes. The batch keeps
    ``plan`` and derives its weights from it.
    """
    if n < 0:
        raise ValidationError(f"generation count must be >= 0, got {n}", field="n")
    p = model.weights if plan is None else plan.weights
    b = block_length(len(p))
    full, rest = divmod(n, b)
    lengths = [b] * full + ([rest] if rest else [])
    slots = np.empty((len(lengths), count), dtype=np.intp)
    for row, length in zip(slots, lengths):
        _draw_slots(rng, p, length, row)
    return EnvBatch(model=model, n=n, slots=slots.T, plan=plan)


def env_expectation(model: EnvironmentModel, g: Callable[[OffspringLaw], float]) -> float:
    """Exact mixture expectation of a functional of the offspring law."""
    return math.fsum(w * g(law) for law, w in model.components)


def tilt(model: EnvironmentModel, theta: float) -> tuple[EnvironmentModel, float]:
    """Exponentially tilt the environment law by the offspring mean.

    Component i's weight becomes w_i * m_i**theta / Z with Z the normalizer,
    which equals the mixture expectation of m**theta. Returns (tilted model, Z).
    """
    if theta < 0.0:
        raise ValidationError(f"tilt exponent must be >= 0, got {theta}", field="theta")
    if theta == 0.0:
        return model, 1.0
    ms = model.means
    if np.any(ms == 0.0):
        raise ValidationError("cannot tilt a model with a zero-mean component", field="model")
    raw = [w * moments(law)[0] ** theta for law, w in model.components]
    z = math.fsum(raw)
    tilted = EnvironmentModel(
        [(law, r / z) for (law, _), r in zip(model.components, raw)]
    )
    return tilted, z


# --- reference models -------------------------------------------------------
#
# Three pinned mixtures, one per subcritical regime. Components are
# linear-fractional realizations of the target offspring means; where a
# choice with B = 1/2 exists (means <= 2) it is used because the target mean
# is then reproduced exactly in double precision.


def ss_ref() -> EnvironmentModel:
    """Strongly subcritical reference: means {1/2, 1/4}, weights (1/2, 1/2)."""
    return _two_point_lf_model([0.5, 0.25], [0.5, 0.5])


def is_ref() -> EnvironmentModel:
    """Intermediate subcritical reference: means {2, 1/4}, weights (1/5, 4/5).

    The mean of m*log(m) vanishes exactly for this mixture.
    """
    return _two_point_lf_model([2.0, 0.25], [0.2, 0.8])


def ws_ref() -> EnvironmentModel:
    """Weakly subcritical reference: means {e**-2, e}, weights (1/2, 1/2).

    Log means sit on the unit lattice, which the exact random-walk oracle
    relies on.
    """
    return EnvironmentModel([(geometric_lf(m), 0.5) for m in (math.exp(-2.0), math.e)])


def _two_point_lf_model(means, weights):
    laws = [lf_from_moments(m, 2.0 * m) for m in means]  # B = 1/2 exactly
    return EnvironmentModel(list(zip(laws, weights)))


BUILTIN_MODELS: dict[str, Callable[[], EnvironmentModel]] = {
    "ss-ref": ss_ref,
    "is-ref": is_ref,
    "ws-ref": ws_ref,
}


def builtin_model(name: str) -> EnvironmentModel:
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin model {name!r}; available: {sorted(BUILTIN_MODELS)}",
            field="model",
        ) from None
    return factory()
