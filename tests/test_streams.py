import numpy as np
import pytest
from scipy.stats import chi2_contingency

from bpre.environment import draw_env_batch, tilt_plan
from bpre.offspring import FiniteSupport, sample, sample_many
from bpre.streams import STREAM_LAYOUT, seed_provenance, stream
from helpers import MODELS

SHAPES = [(300, 40), (0, 40), (300, 0), (0, 0)]


class TestCategorical:
    @pytest.mark.parametrize("k", sorted(MODELS))
    @pytest.mark.parametrize("theta", [None, 0.7], ids=["base", "tilted"])
    @pytest.mark.parametrize("shape", SHAPES, ids=["full", "count0", "n0", "empty"])
    def test_env_batch_matches_choice(self, k, theta, shape):
        """draw_env_batch and rng.choice draw the same component law. The
        batch draws block codes (stream layout 2), so it matches choice in
        law, not draw for draw: the two samples' component counts pass a
        chi-square test of homogeneity."""
        model = MODELS[k]
        plan = None if theta is None else tilt_plan(model, theta)
        p = model.weights if plan is None else plan.weights
        count, n = shape
        batch = draw_env_batch(model, n, stream(11, "cat"), count, plan)
        want = stream(11, "cat").choice(k, size=shape, p=p)
        assert batch.idx.shape == shape
        assert batch.idx.dtype == (np.uint8 if k <= 256 else np.uint16)
        if k > 1 and count * n:
            table = [np.bincount(a.ravel(), minlength=k) for a in (batch.idx, want)]
            assert chi2_contingency(table).pvalue > 0.001

    def test_offspring_samplers_match_choice(self):
        law = FiniteSupport((0.0, 0.5, 0.2, 0.3))
        probs = np.array(law.probs)
        draws = sample_many(law, 500, stream(14, "cat"))
        assert draws.dtype == np.int64
        np.testing.assert_array_equal(draws, stream(14, "cat").choice(4, size=500, p=probs))
        one = sample(law, stream(15, "cat"))
        assert type(one) is int
        assert one == stream(15, "cat").choice(4, p=probs)


def test_provenance_names_the_generator_streams_use():
    info = seed_provenance(5, "annealed")
    assert info.split()[0] == type(stream(5, "annealed").bit_generator).__name__.lower()
    assert info == f"sfc64 seed=5 purpose=annealed chunk_size=4096 layout={STREAM_LAYOUT}"
    assert STREAM_LAYOUT == 8
