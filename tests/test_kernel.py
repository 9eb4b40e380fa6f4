"""Prefix-scan backup kernels against the per-x searches they replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divbands.exp_solver import exp_backup, neutral_backup
from helpers import reference_exp_backup, reference_neutral_backup

# fixed examples and no example database: tier-1 stays deterministic
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

sizes = st.integers(min_value=1, max_value=40)
thetas = st.floats(min_value=-2.0, max_value=-1e-3)
units = st.floats(min_value=1e-3, max_value=1.0)


def steps(size):
    return st.lists(st.integers(min_value=0, max_value=3), min_size=size,
                    max_size=size)


@st.composite
def exp_rows(draw):
    """(theta, g_lo, g_hi): random, constant, H-flat, or H-flat up to 1e-10 steps."""
    theta, size = draw(thetas), draw(sizes)
    kind = draw(st.sampled_from(["random", "constant", "tied", "near"]))
    if kind == "random":
        g_lo = np.array(draw(st.lists(units, min_size=size, max_size=size)))
    elif kind == "constant":
        g_lo = np.full(size, draw(units))
    else:  # "tied": e^{theta a} G(x - a) is the same for every a
        g_lo = draw(units) * np.exp(theta * np.arange(size))
    if kind == "near":  # ties among equal steps, none across them
        g_lo *= 1.0 + 1e-10 * np.array(draw(steps(size)))
    spread = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                                    min_size=size, max_size=size)))
    scale = draw(st.sampled_from([1.0, 1e-30]))  # ties must stay relative
    return theta, scale * g_lo, scale * g_lo * (1.0 + spread)


@given(exp_rows())
@EXAMPLES
def test_exp_backup_matches_reference(row):
    theta, g_lo, g_hi = row
    g = np.stack([g_lo, g_hi], axis=1)
    v = np.arange(len(g))
    down, up = np.exp(-theta * v)[:, None], np.exp(theta * v)[:, None]
    best, action = exp_backup(down, up, g)
    lo, hi = best.T
    ref_lo, ref_hi, ref_action = reference_exp_backup(theta, g_lo, g_hi)
    np.testing.assert_allclose(lo, ref_lo, rtol=1e-13, atol=0)
    np.testing.assert_allclose(hi, ref_hi, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(action, ref_action)
    # factors laid out like g, and the scan run in given buffers, change no bit
    out, acts = np.empty_like(g), np.empty(len(g), dtype=np.int64)
    pairs = np.repeat(down, 2, axis=1), np.repeat(up, 2, axis=1)
    written = exp_backup(*pairs, g, out=out, action=acts)
    assert written[0] is out and written[1] is acts
    assert out.tobytes() == best.tobytes() and acts.tobytes() == action.tobytes()


@st.composite
def neutral_rows(draw):
    """beta*G: random, constant, unit-slope, or unit-slope up to 1e-8 steps."""
    size = draw(sizes)
    kind = draw(st.sampled_from(["random", "constant", "tied", "near"]))
    if kind == "random":
        return np.array(draw(st.lists(st.floats(min_value=0.0, max_value=50.0),
                                      min_size=size, max_size=size)))
    level = draw(st.floats(min_value=0.0, max_value=50.0))
    if kind == "constant":
        return np.full(size, level)
    bg = level + np.arange(size)  # "tied": a + bg(x - a) is the same for every a
    if kind == "near":  # ties among equal steps, none across them
        bg += 1e-8 * np.array(draw(steps(size)))
    return bg


@given(neutral_rows())
@EXAMPLES
def test_neutral_backup_matches_reference(bg):
    values, action = neutral_backup(bg)
    ref_values, ref_action = reference_neutral_backup(bg)
    np.testing.assert_allclose(values, ref_values, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(action, ref_action)
