"""Tests for precomputed-table persistence and the AR(1) joining surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.core.precompute import (
    ar1_h2_cache,
    ar1_h2_join,
    load_tables,
    random_walk_h1_join,
    save_tables,
)
from repro.core.tuples import StreamTuple
from repro.policies.base import PolicyContext
from repro.policies.heeb_policy import AR1JoinHeeb, GenericJoinHeeb
from repro.streams import AR1Stream, RandomWalkStream, discretized_normal


@pytest.fixture
def walk_table():
    walk = RandomWalkStream(discretized_normal(1.0))
    return random_walk_h1_join(walk, LExp(8.0), horizon=60)


@pytest.fixture
def ar1_surface():
    model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
    center = model.stationary_mean
    grid = np.linspace(center - 5, center + 5, 5)
    return model, ar1_h2_cache(
        model, LExp(12.0), grid.round().astype(int), grid, exact_steps=40
    )


class TestPersistence:
    def test_h1_roundtrip(self, tmp_path, walk_table):
        path = tmp_path / "tables.npz"
        save_tables(path, walk=walk_table)
        loaded = load_tables(path)["walk"]
        for d in (-10, -1, 0, 3, 10, 999):
            assert loaded(d) == pytest.approx(walk_table(d))

    def test_h2_roundtrip(self, tmp_path, ar1_surface):
        model, surface = ar1_surface
        path = tmp_path / "tables.npz"
        save_tables(path, real=surface)
        loaded = load_tables(path)["real"]
        for v in surface.v_grid:
            for x in surface.x_grid:
                assert loaded(v, x) == pytest.approx(surface(v, x))
        # Off-grid spline evaluations agree too.
        assert loaded(
            surface.v_grid[1] + 0.4, surface.x_grid[2] + 0.7
        ) == pytest.approx(surface(surface.v_grid[1] + 0.4, surface.x_grid[2] + 0.7))

    def test_mixed_bundle(self, tmp_path, walk_table, ar1_surface):
        _, surface = ar1_surface
        path = tmp_path / "tables.npz"
        save_tables(path, walk=walk_table, real=surface)
        loaded = load_tables(path)
        assert set(loaded) == {"walk", "real"}

    def test_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_tables(tmp_path / "x.npz", bad=object())


class TestAR1JoinStrategy:
    def test_matches_generic_on_bucket_centers(self):
        model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
        estimator = LExp(10.0)
        horizon = estimator.suggested_horizon(1e-8)
        center = model.stationary_mean
        v_grid = np.arange(int(center) - 5, int(center) + 6)
        x_grid = np.arange(int(center) - 5, int(center) + 6, dtype=float)
        surface = ar1_h2_join(model, estimator, v_grid, x_grid, horizon)
        strategy = AR1JoinHeeb(model, surface)
        generic = GenericJoinHeeb(estimator, horizon=horizon)
        t0 = 4
        anchor = int(center)
        ctx = PolicyContext(
            kind="join",
            time=t0,
            cache_size=5,
            histories={"R": [anchor] * (t0 + 1), "S": [anchor] * (t0 + 1)},
            models={"R": model, "S": model},
        )
        for i, v in enumerate(range(anchor - 4, anchor + 5)):
            tup = StreamTuple(i, "S", v, t0)
            # Control points are exact; interior agreement within spline
            # tolerance of the surface scale.
            assert strategy.h_value(tup, ctx) == pytest.approx(
                generic.h_value(tup, ctx), abs=5e-3
            )

    def test_empty_history_scores_zero(self):
        model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
        grid = np.linspace(0, 10, 5)
        surface = ar1_h2_join(model, LExp(5.0), grid, grid, horizon=40)
        strategy = AR1JoinHeeb(model, surface)
        ctx = PolicyContext(
            kind="join",
            time=0,
            cache_size=2,
            histories={"R": [None], "S": [None]},
            models={"R": model, "S": model},
        )
        assert strategy.h_value(StreamTuple(0, "S", 5, 0), ctx) == 0.0
