"""The seeded stream: bit-exact against numpy's PCG64, and numpy.random-free runs."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import FUZZ
from hypothesis import given
from hypothesis import strategies as st

import klgeo
from klgeo.rng import SeededRng


def numpy_uniform(seed, n):
    """The oracle: numpy's own PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def numpy_spawn_seed(seed, key):
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


class TestSeededRng:
    def test_determinism_and_independence(self):
        a = SeededRng(9).normal(10)
        b = SeededRng(9).normal(10)
        c = SeededRng(10).normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_streams_differ(self):
        r = SeededRng(3)
        x = r.spawn(0).normal(5)
        y = r.spawn(1).normal(5)
        assert not np.array_equal(x, y)
        # spawning does not perturb the parent and is itself reproducible
        x2 = SeededRng(3).spawn(0).normal(5)
        assert np.array_equal(x, x2)

    def test_uniform_range(self):
        u = SeededRng(1).uniform(1000)
        assert u.min() >= 0.0 and u.max() < 1.0


class TestAgainstNumpy:
    # seeds at the uint32 word boundaries, where the seeding hash takes one
    # more entropy word
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 5])
    def test_fixed_seeds(self, seed):
        assert SeededRng(seed).uniform(40).tobytes() == numpy_uniform(seed, 40).tobytes()
        for key in (0, 1, 2**32 + 5, 2**33):
            assert SeededRng(seed).spawn(key).seed == numpy_spawn_seed(seed, key)

    @FUZZ
    @given(seed=st.integers(0, 2**256 - 1), n=st.integers(0, 64),
           key=st.integers(0, 2**64 - 1))
    def test_stream_and_spawn(self, seed, n, key):
        assert SeededRng(seed).uniform(n).tobytes() == numpy_uniform(seed, n).tobytes()
        assert SeededRng(seed).spawn(key).seed == numpy_spawn_seed(seed, key)

    def test_normal_is_box_muller_on_numpy_uniforms(self):
        # n uniforms u1, then n uniforms u2, for ceil(size / 2) = n pairs
        u = numpy_uniform(7, 22)
        u1, u2 = u[:11], u[11:]
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        angle = 2.0 * np.pi * u2
        want = 0.5 * np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:21]
        assert SeededRng(7).normal(21, sigma=0.5).tobytes() == want.tobytes()

    def test_negative_seed_or_size_raises(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(1).spawn(-1)
        with pytest.raises(ValueError):
            SeededRng(1).uniform(-1)
        with pytest.raises(ValueError):
            SeededRng(1).normal(-1)


PROBE = """
import sys
from klgeo.cli import main
assert main(sys.argv[1:]) == 0
loaded = [m for m in ("numpy.random", "_hashlib") if m in sys.modules]
assert not loaded, loaded
"""

TINY_SWEEP = "command=sweep\nsteps=3\ntvd_restarts=1\ntvd_steps=3\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--seeds", "1", "--lambdas", "1,5"],
    ["sweep", "--seeds", "1", "--lambdas", "1,5", "--order", "full", "--warm-start"],
    ["check"], ["geometry"]],
    ids=["sweep-bigram", "sweep-full-warm", "check", "geometry"])
def test_no_numpy_random_at_run_time(tmp_path, argv):
    """A run in a fresh interpreter loads neither numpy.random nor, through
    its seeding, OpenSSL's _hashlib: about 5 MB of peak memory."""
    if argv[0] == "sweep":
        (tmp_path / "cfg").write_text(TINY_SWEEP)
        argv = [*argv, "--config", str(tmp_path / "cfg")]
    env = dict(os.environ)
    src = str(Path(klgeo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
