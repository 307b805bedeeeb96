"""Reproducible random streams for replicate-parallel estimation.

Each stream is an SFC64 generator seeded by a ``SeedSequence`` keyed by
(seed, purpose, chunk index), so streams of different keys are independent.
Replicates are processed in chunks of the fixed size ``CHUNK_SIZE`` (4096,
printed in every ``seed_provenance`` string with the generator and the
stream layout), each chunk owning its own stream, so results depend only on
the config and seed and never on how chunks are distributed over workers.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

CHUNK_SIZE = 4096
BIT_GENERATOR = np.random.SFC64
# Version of the way draws are laid out on the streams, printed in every
# ``seed_provenance`` string; 3 draws environments one block code per SFC64
# uniform, one block row of the chunk at a time, 4 draws the populations
# sampled given a conditioned draw on streams of their own, 5 draws the
# SS/IS Q-process chain's environments as block codes before its offspring,
# 6 draws the finite-support totals of every row of a generation by
# stick-breaking binomials, 7 samples the SS/IS Q-process's populations
# with the population sampler at u = 0 on a stream of their own, after all
# of its environments, and 8 draws block codes of up to 12 generations
# from alias tables of up to 4096 codes (``environment.block_length``).
STREAM_LAYOUT = 8

THREADS_ENV_VAR = "BPRE_THREADS"


def purpose_code(purpose: str) -> int:
    """Stable 32-bit code for a stream purpose label."""
    return zlib.crc32(purpose.encode("utf-8"))


def stream(seed: int, purpose: str, chunk_index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, purpose, chunk_index)."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(purpose_code(purpose), chunk_index)
    )
    return np.random.Generator(BIT_GENERATOR(ss))


def seed_provenance(seed: int, purpose: str) -> str:
    name = BIT_GENERATOR.__name__.lower()
    return f"{name} seed={seed} purpose={purpose} chunk_size={CHUNK_SIZE} layout={STREAM_LAYOUT}"


def chunk_bounds(reps: int) -> Iterator[tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(reps)."""
    for index, start in enumerate(range(0, reps, CHUNK_SIZE)):
        yield index, start, min(start + CHUNK_SIZE, reps)


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def check_reps_and_seed(reps, seed) -> None:
    """Reject a replicate count below 1 or a seed below 0, or either one not
    an integer, with ``ValidationError``."""
    for field, value, low in (("reps", reps, 1), ("seed", seed, 0)):
        # a bool is an int to Python: True would run as seed 1
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValidationError(f"{field} must be an integer >= {low}, got {value!r}", field=field)


def run_chunks(
    fn: Callable[[np.random.Generator, int, int], Sequence[np.ndarray]],
    reps: int,
    seed: int,
    purpose: str,
    first_chunk: int = 0,
) -> list[np.ndarray]:
    """Map ``fn(rng, count, start)`` over chunks and concatenate its outputs.

    ``fn`` must return the same tuple of per-replicate arrays for every chunk.
    Outputs are concatenated in chunk order, so the reduction is independent
    of the worker count. Chunk streams are numbered from ``first_chunk``, so
    a later call can continue the streams of an earlier one.
    """
    check_reps_and_seed(reps, seed)
    bounds = list(chunk_bounds(reps))
    results: list[Sequence[np.ndarray]] = [None] * len(bounds)  # type: ignore[list-item]

    def work(entry):
        index, start, stop = entry
        rng = stream(seed, purpose, first_chunk + index)
        results[index] = fn(rng, stop - start, start)

    workers = thread_count()
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, bounds))
    else:
        for entry in bounds:
            work(entry)

    nfields = len(results[0])
    return [np.concatenate([r[i] for r in results]) for i in range(nfields)]
