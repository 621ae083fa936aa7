import math
import random
from itertools import combinations

import numpy as np
import pytest

from dynamap.generators import SeededNormals, random_complex, random_density_matrix, seeded_stack


def _complex_draw(dim, rng):
    return random_complex((dim, dim), rng)


@pytest.mark.parametrize("draw", [random_density_matrix, _complex_draw])
@pytest.mark.parametrize("dim,samples,seed", [(1, 3, 0), (3, 12, 5), (4, 7, 2**40)])
def test_seeded_stack_is_the_loop_of_single_draws_from_a_fresh_source(draw, dim, samples, seed):
    stack = seeded_stack(draw, dim, samples, seed)
    assert stack.shape == (samples, dim, dim) and stack.dtype == complex
    source = SeededNormals(seed)
    for matrix in stack:
        assert np.array_equal(matrix, draw(dim, source))


def test_seeded_stack_is_a_pure_function_of_its_arguments():
    first = seeded_stack(random_density_matrix, 3, 5, 11)
    seeded_stack(random_density_matrix, 3, 5, 12)  # another stack does not move it
    assert np.array_equal(seeded_stack(random_density_matrix, 3, 5, 11), first)
    assert np.array_equal(seeded_stack(random_density_matrix, 3, 2, 11), first[:2])


@pytest.mark.parametrize("dim", [1, 4])
def test_no_samples_give_an_empty_stack(dim):
    assert seeded_stack(random_density_matrix, dim, 0, 3).shape == (0, dim, dim)


def test_different_seeds_give_different_stacks():
    stacks = [seeded_stack(random_density_matrix, 2, 3, seed) for seed in range(6)]
    assert not any(np.array_equal(a, b) for a, b in combinations(stacks, 2))


def test_seeded_normals_are_box_muller_pairs_of_the_standard_library_stream():
    uniform = random.Random(7).random
    want = []
    for _ in range(3):
        radius, angle = math.sqrt(-2.0 * math.log(1.0 - uniform())), 2.0 * math.pi * uniform()
        want += [radius * math.cos(angle), radius * math.sin(angle)]
    source = SeededNormals(7)
    # an odd size drops its last sine; the next call starts on a fresh pair
    got = np.concatenate([source.standard_normal((1, 3)).ravel(), source.standard_normal(1)])
    assert np.allclose(got, [*want[:3], want[4]], rtol=1e-15, atol=0.0)
    assert source.standard_normal(0).shape == (0,)
    # bit for bit the transform of a loop of random() calls, which it leaves
    # the stream after
    uniform, source = random.Random(11).random, SeededNormals(11)
    for size in (0, 1, 3, 512):
        uniforms = np.array([uniform() for _ in range(size + size % 2)])
        u, v = uniforms.reshape(-1, 2).T
        radius, angle = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
        loop = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()[:size]
        assert np.array_equal(source.standard_normal(size), loop)


def test_seeded_normals_have_standard_moments():
    sample = SeededNormals(3).standard_normal(100_000)
    assert abs(sample.mean()) < 0.02 and abs(sample.var() - 1.0) < 0.03
    assert abs(np.mean(sample**4) - 3.0) < 0.1
