"""Reproducible random streams for replicate-parallel estimation.

Streams are derived from a counter-based generator (Philox) keyed by
(seed, purpose, chunk index). Replicates are processed in chunks of the fixed
size ``CHUNK_SIZE`` (4096, printed in every ``seed_provenance`` string), each
chunk owning an independent stream, so results depend only on the config and
seed and never on how chunks are distributed over workers.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

CHUNK_SIZE = 4096

THREADS_ENV_VAR = "BPRE_THREADS"


def purpose_code(purpose: str) -> int:
    """Stable 32-bit code for a stream purpose label."""
    return zlib.crc32(purpose.encode("utf-8"))


def stream(seed: int, purpose: str, chunk_index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, purpose, chunk_index)."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(purpose_code(purpose), chunk_index)
    )
    return np.random.Generator(np.random.Philox(ss))


def seed_provenance(seed: int, purpose: str) -> str:
    return f"philox seed={seed} purpose={purpose} chunk_size={CHUNK_SIZE}"


def chunk_bounds(reps: int, chunk_size: int = CHUNK_SIZE) -> Iterator[tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(reps)."""
    index = 0
    start = 0
    while start < reps:
        stop = min(start + chunk_size, reps)
        yield index, start, stop
        index += 1
        start = stop


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


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
