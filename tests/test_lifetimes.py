"""Unit tests for lifetime assignment (repro.tdn.lifetimes)."""
import os
import subprocess
import sys

import pytest

import repro
from repro.tdn.lifetimes import (
    INFINITE,
    ConstantLifetime,
    GeometricLifetime,
    InfiniteLifetime,
)


class TestConstantAndInfinite:
    def test_constant_values(self):
        assert (ConstantLifetime(7).sample(5) == 7).all()

    def test_infinite_values(self):
        assert (InfiniteLifetime().sample(4) == INFINITE).all()


class TestGeometric:
    @pytest.mark.parametrize("p,L", [(0.5, 10), (0.1, 100), (0.01, 50), (0.9, 3)])
    def test_support(self, p, L):
        s = GeometricLifetime(p, L, seed=0).sample(5000)
        assert s.min() >= 1 and s.max() <= L

    def test_truncation_binds(self):
        # p tiny, L small -> cap regularly hit but never exceeded
        s = GeometricLifetime(0.001, 5, seed=1).sample(2000)
        assert s.max() == 5

    def test_deterministic_in_seed(self):
        a = GeometricLifetime(0.2, 50, seed=3).sample(100)
        b = GeometricLifetime(0.2, 50, seed=3).sample(100)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = GeometricLifetime(0.2, 50, seed=3).sample(100)
        b = GeometricLifetime(0.2, 50, seed=4).sample(100)
        assert (a != b).any()

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_empirical_mean_matches_closed_form(self, p):
        lt = GeometricLifetime(p, 200, seed=0)
        s = lt.sample(60_000)
        assert s.mean() == pytest.approx(lt.mean(), rel=0.03)

    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_pmf_shape(self, p):
        # Pr(l) proportional to (1-p)^(l-1): successive ratios ~ (1-p).
        s = GeometricLifetime(p, 50, seed=0).sample(200_000)
        c1 = (s == 1).sum()
        c2 = (s == 2).sum()
        assert c2 / c1 == pytest.approx(1 - p, rel=0.05)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GeometricLifetime(0.0, 10)
        with pytest.raises(ValueError):
            GeometricLifetime(1.0, 10)
        with pytest.raises(ValueError):
            GeometricLifetime(0.5, 0)

    def test_untruncated_limit(self):
        # With L huge the truncated mean approaches 1/p.
        lt = GeometricLifetime(0.25, 100_000)
        assert lt.mean() == pytest.approx(4.0, rel=1e-6)


def test_tracker_import_loads_no_spark_or_pandas():
    """The trackers and the TDN substrate are driver-side NumPy code:
    importing them must not pull in PySpark or pandas."""
    code = (
        "import sys, repro.core, repro.tdn; "
        "print(sorted(m for m in ('pyspark', 'pandas') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
