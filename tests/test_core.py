"""Tests for configurations, driving paths, and the RNG plumbing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

from slelab.core import (
    _GROUP,
    ConfigError,
    McReport,
    build_driving_path,
    normal_block,
    sum_columns,
    validate_config,
)
from slelab.commutation import (arctan_sum, commutation_experiment,
                                commutator_residual)
from slelab.coupling import (CouplingSpec, bulk_martingale_check,
                             coupling_martingale_check, coupling_pde_residual,
                             cross_variation_experiment,
                             green_increment_check)
from slelab.loewner import initial_state
from slelab.partition import PartitionSpec, bpz_residual, kz_residual
from slelab.sampler import girsanov_check, martingale_check


def test_validate_config_accepts_distinct():
    cfg = validate_config((0.0, 1.0, 3.0))
    assert cfg.points == (0.0, 1.0, 3.0)
    assert len(cfg) == 3
    np.testing.assert_array_equal(cfg.as_array(), [0.0, 1.0, 3.0])


def test_validate_config_rejects_diagonal():
    with pytest.raises(ConfigError, match="coincide") as exc:
        validate_config((0.0, 0.0))
    # indices reported 1-based
    assert "1" in str(exc.value) and "2" in str(exc.value)


def test_validate_config_negative_and_float():
    cfg = validate_config((-1.0, 2.5))
    assert cfg.points == (-1.0, 2.5)


def test_validate_config_near_duplicates_rejected():
    with pytest.raises(ConfigError, match="points 2 and 3 coincide"):
        validate_config((0.0, 1.0, 1.0))


def test_sample_increments_mean():
    """Mean of 10^6 unit-dt increments within the 3/sqrt(n) LLN band."""
    inc = normal_block(0, 0, 1, 1_000_000)[0]
    assert abs(inc.mean()) < 3e-3


def test_sample_increments_variance():
    inc = np.sqrt(0.01) * normal_block(1, 0, 1, 1_000_000)[0]
    assert abs(inc.var() / 0.01 - 1.0) < 0.05


@pytest.mark.parametrize("seed", [2**64, -1, 10**30])
def test_normal_block_refuses_seed_outside_64_bits(seed):
    # masked, 2**64 would draw the stream of seed 0
    with pytest.raises(ConfigError, match="outside"):
        normal_block(seed, 0, 1, 4)


def test_sample_increments_deterministic():
    a = np.sqrt(0.5) * normal_block(7, 0, 1, 64)[0]
    b = np.sqrt(0.5) * normal_block(7, 0, 1, 64)[0]
    np.testing.assert_array_equal(a, b)


def test_sample_increments_paths_decorrelated():
    n = 100_000
    a, b = normal_block(3, 0, 2, n)
    corr = float(np.mean(a * b))
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_standard_normals_moments():
    x = normal_block(11, 5, 1, 200_000)[0]
    assert abs(x.mean()) < 3.0 / np.sqrt(x.size)
    assert abs(x.var() - 1.0) < 0.02


def test_normal_block_matches_per_path_streams():
    block = normal_block(9, 0, 4, 32)
    for p in range(4):
        np.testing.assert_array_equal(block[p], normal_block(9, p, 1, 32)[0])


def test_normal_block_chunking_invariance():
    """Splitting the block over first_path offsets changes nothing."""
    whole = normal_block(5, 0, 10, 16)
    parts = np.vstack([normal_block(5, 0, 3, 16), normal_block(5, 3, 7, 16)])
    np.testing.assert_array_equal(whole, parts)


MASK64 = (1 << 64) - 1


def _recipe(seed, path, first_step, n_steps):
    """Steps first_step.. of the stream of `path`, built independently of
    core from Generator(Philox(key)).integers(0, 2^53)."""
    key = (seed << 64) | (path & MASK64)
    k = Generator(Philox(key=key)).integers(
        0, 2**53, size=first_step + n_steps, dtype=np.uint64)[first_step:]
    return ndtri((k.astype(np.float64) + 0.5) * 2.0**-53)


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 7])
@pytest.mark.parametrize("first_path", [0, 2**64 - 2])
def test_normal_block_matches_generator_recipe(seed, first_path):
    """The stream definition, built independently of core: row p is
    ndtri((k + 0.5) 2^-53) with k = Generator(Philox(key=(seed << 64) | path))
    .integers(0, 2^53); the path index wraps modulo 2^64, and step counts
    around Philox's 4-word buffer cover partial and whole refills."""
    for n_steps in (1, 3, 4, 5, 37):
        block = normal_block(seed, first_path, 4, n_steps)
        for p in range(4):
            np.testing.assert_array_equal(
                block[p], _recipe(seed, first_path + p, 0, n_steps))


@pytest.mark.parametrize("first_step", [0, 1, 2, 3, 6])
def test_normal_block_matches_generator_recipe_across_groups(first_step):
    """Blocks of several row groups match the recipe row by row, with the
    path index wrapping past 2^64 inside the second group."""
    n_paths = 2 * _GROUP + 3
    first_path = 2**64 - _GROUP - 1
    block = normal_block(7, first_path, n_paths, 9, first_step)
    for p in range(n_paths):
        np.testing.assert_array_equal(
            block[p], _recipe(7, first_path + p, first_step, 9))


# words at the edges of the conversion: k = w >> 11 at 0 and near 2^52 and
# 2^53, and low bits all clear or all set
_EDGE_WORDS = [0, 2**11 - 1, 2**11, 2**63, 2**64 - 1] + [
    k << 11 | low for k in (2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1)
    for low in (0, 2**11 - 1)]


def test_one_pass_uniforms_equal_the_definition():
    """float((w >> 10) | 1) 2^-54, as normal_block computes the uniform, is
    (k + 0.5) 2^-53 with k = w >> 11 bit for bit, on raw Philox words and
    on the edge words."""
    words = np.concatenate([Philox(key=3).random_raw(10**6),
                            np.array(_EDGE_WORDS, dtype=np.uint64)])
    one_pass = ((words >> 10) | 1).astype(np.float64) * 2.0**-54
    definition = ((words >> 11).astype(np.float64) + 0.5) * 2.0**-53
    assert one_pass.tobytes() == definition.tobytes()


def test_top_word_gives_uniform_one_and_infinite_normal():
    """The uniform argument lies in (0, 1], not inside (0, 1): k = 2^53 - 1
    rounds k + 0.5 to 2^53, so u = 1.0 and the normal is +inf (probability
    2^-53 per draw); the next k down stays below 1."""
    for w in (2**64 - 1, (2**53 - 1) << 11):
        u = float((w >> 10) | 1) * 2.0**-54
        assert u == ((w >> 11) + 0.5) * 2.0**-53 == 1.0
        assert ndtri(u) == np.inf
    below = ((2**53 - 2) + 0.5) * 2.0**-53
    assert below < 1.0 and np.isfinite(ndtri(below))


def test_normal_block_holds_at_most_two_groups_of_raw_words():
    """Beyond its output, a block holds at most two row groups of raw
    words (a group's rows and their join), each row with 256 bytes for its
    array object; a whole-block uint64 buffer would add 20 MB here."""
    n_paths, n_steps = 10_000, 250
    tracemalloc.start()
    try:
        out = normal_block(0, 0, n_paths, n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * _GROUP * (8 * n_steps + 256)


@pytest.mark.parametrize("first_step", [0, 1, 3, 4, 5, 255, 257])
def test_normal_block_resumes_at_first_step(first_step):
    """A block that starts at step a is columns a.. of the block that starts
    at step 0, bit for bit, wherever a falls in Philox's 4-word groups."""
    whole = normal_block(11, 6, 300, 300)
    for stop in (first_step + 3, 300):
        part = normal_block(11, 6, 300, stop - first_step, first_step=first_step)
        assert part.tobytes() == whole[:, first_step:stop].tobytes()


def test_normal_block_columns_contiguous():
    """Step-major layout: each step of all paths is one contiguous column."""
    block = normal_block(2, 0, 600, 9, first_step=6)
    assert block.shape == (600, 9)
    assert block.flags.f_contiguous
    assert all(block[:, k].flags.c_contiguous for k in range(9))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, MASK64), first_path=st.integers(0, MASK64),
       n_paths=st.integers(0, 8), n_steps=st.integers(0, 40),
       first_step=st.integers(0, 1000), data=st.data())
def test_normal_block_split_invariance(seed, first_path, n_paths, n_steps,
                                       first_step, data):
    """Any split of [first_path, first_path + n_paths) into two calls, or of
    the steps [first_step, first_step + n_steps) into two calls, gives the
    block of one call, bit for bit."""
    cut = data.draw(st.integers(0, n_paths))
    step_cut = data.draw(st.integers(0, n_steps))
    whole = normal_block(seed, first_path, n_paths, n_steps, first_step)
    head = normal_block(seed, first_path, cut, n_steps, first_step)
    tail = normal_block(seed, first_path + cut, n_paths - cut, n_steps,
                        first_step)
    assert whole.shape == (n_paths, n_steps)
    assert np.vstack([head, tail]).tobytes() == whole.tobytes()
    left = normal_block(seed, first_path, n_paths, step_cut, first_step)
    right = normal_block(seed, first_path, n_paths, n_steps - step_cut,
                         first_step + step_cut)
    assert np.hstack([left, right]).tobytes() == whole.tobytes()


def test_build_driving_path_scaling():
    inc = np.sqrt(0.01) * normal_block(7, 0, 1, 5)[0]
    path = build_driving_path(4.0, 1.0, inc, 0.01)
    assert len(path.values) - 1 == 5
    assert path.dt == 0.01
    np.testing.assert_allclose(path.values[0], 1.0)
    np.testing.assert_allclose(path.values[1:], 1.0 + 2.0 * np.cumsum(inc),
                               rtol=0, atol=1e-14)


def test_build_driving_path_continues_bit_for_bit():
    """A path continued from another path's last value has the bits of
    one path over both sets of increments."""
    inc = np.sqrt(0.01) * normal_block(7, 0, 1, 40)[0]
    whole = build_driving_path(2.0, 0.0, inc, 0.01).values
    for a in (1, 13, 39):
        head = build_driving_path(2.0, 0.0, inc[:a], 0.01).values
        tail = build_driving_path(2.0, head[-1], inc[a:], 0.01).values
        assert np.concatenate([head, tail[1:]]).tobytes() == whole.tobytes()


_CFG = validate_config((0.0, 1.0))
_CSPEC = CouplingSpec(PartitionSpec("backward", 4.0, 2), gamma=2.0)
BULK_ENTRY_POINTS = {
    "initial_state": lambda z: initial_state("backward", bulk=[z]),
    "bulk_martingale_check": lambda z: bulk_martingale_check(
        2.0, [z], 0.01, 1e-3, 10),
    "coupling_pde_residual": lambda z: coupling_pde_residual(
        _CSPEC, z, _CFG, 0),
    "coupling_martingale_check": lambda z: coupling_martingale_check(
        _CSPEC, _CFG, 0, [z], 0.01, 1e-3, 10),
    "green_increment_check": lambda z: green_increment_check(
        "backward", 4.0, z, 1 + 1j, 0.01, 1e-3),
}


@pytest.mark.parametrize("z", [complex(0.5, float("nan")), 0.5 - 1j],
                         ids=["nan", "lower"])
@pytest.mark.parametrize("entry", sorted(BULK_ENTRY_POINTS))
def test_bulk_point_off_the_upper_half_plane_is_refused(entry, z):
    """Every entry point that takes bulk points refuses one with Im z
    NaN or negative through the one guard, before any run."""
    with pytest.raises(ConfigError, match="Im z > 0"):
        BULK_ENTRY_POINTS[entry](z)


_SPEC = _CSPEC.pspec
# each entry point that takes a point index, called with index k
INDEXED_ENTRY_POINTS = {
    "martingale_check": lambda k: martingale_check(
        _SPEC, _CFG, k, 0.01, 1e-3, 10),
    "girsanov_check": lambda k: girsanov_check(
        _SPEC, _CFG, k, None, 0.01, 1e-3, 10),
    "coupling_martingale_check": lambda k: coupling_martingale_check(
        _CSPEC, _CFG, k, [1 + 1j], 0.01, 1e-3, 10),
    "cross_variation_experiment": lambda k: cross_variation_experiment(
        _CSPEC, _CFG, k, [1 + 1j, -1 + 1j], 0.01, 1e-3, 10),
    "commutation_experiment_i": lambda k: commutation_experiment(
        _SPEC, _CFG, k, 1, 0.01, 2.0, 1e-3, 10),
    "commutation_experiment_j": lambda k: commutation_experiment(
        _SPEC, _CFG, 0, k, 0.01, 2.0, 1e-3, 10),
    "commutator_residual_i": lambda k: commutator_residual(
        _SPEC, arctan_sum, _CFG, k, 1),
    "commutator_residual_j": lambda k: commutator_residual(
        _SPEC, arctan_sum, _CFG, 0, k),
    "coupling_pde_residual": lambda k: coupling_pde_residual(
        _CSPEC, 1 + 1j, _CFG, k),
    "bpz_residual": lambda k: bpz_residual(_SPEC, _CFG, k),
    "kz_residual": lambda k: kz_residual(_SPEC, _CFG, k),
}


@pytest.mark.parametrize("k", [-1, 2], ids=["minus_one", "n"])
@pytest.mark.parametrize("entry", sorted(INDEXED_ENTRY_POINTS))
def test_point_index_outside_the_points_is_refused(entry, k):
    """An index of -1 would name the last point, so a driver its own
    companion whose paths all freeze at step 0, and an index of N no
    point: both are refused before any run."""
    with pytest.raises(ConfigError, match=f"index {k} is outside"):
        INDEXED_ENTRY_POINTS[entry](k)


def test_mc_report_pass_rule():
    """McReport computes its own verdict, on its fields cast to float and
    int; a verdict cannot be passed in."""
    r = McReport("x", np.float64(1.0), 0.1, 1.5, 0.5, np.int64(10))
    assert r.passed  # boundary inclusive
    assert [type(v) for v in dataclasses.astuple(r)] == [
        str, float, float, float, float, int, bool]
    assert not McReport("x", 1.0, 0.1, 1.6, 0.5, 10).passed
    assert McReport("x", 0.0, 0.0, 0.0, 0.0, 1).passed
    assert not McReport("x", float("nan"), 0.0, 0.0, 1.0, 1).passed
    with pytest.raises(TypeError):
        McReport("x", 1.0, 0.1, 1.6, 0.5, 10, True)


@pytest.mark.parametrize("n_terms", [1, 2, 3, 7, 8, 9, 15])
def test_sum_columns_matches_numpy_row_sums(n_terms):
    """The ensemble kernels add per-point columns with sum_columns where
    they once summed x[:, indices] along axis 1; numpy adds that layout
    left to right however many terms there are."""
    rng = np.random.default_rng(n_terms)
    x = rng.standard_normal((300, n_terms + 2)) * 10.0 ** rng.uniform(
        -8, 8, (300, n_terms + 2))
    idx = np.arange(1, n_terms + 1)
    cols = [x[:, k] for k in idx]
    np.testing.assert_array_equal(sum_columns(cols), np.sum(x[:, idx], axis=1))
    if n_terms >= 3:
        # a different order of the same terms gives other bits
        assert not np.array_equal(sum_columns(cols[::-1]), sum_columns(cols))
