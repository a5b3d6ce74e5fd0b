"""Tests for DPZConfig and the published schemes."""

from __future__ import annotations

import pytest

from repro.core.config import DPZ_L, DPZ_S, DPZConfig
from repro.errors import ConfigError


def test_paper_schemes():
    assert DPZ_L.p == 1e-3 and DPZ_L.index_bytes == 1
    assert DPZ_S.p == 1e-4 and DPZ_S.index_bytes == 2


def test_n_bins_reserves_escape_code():
    assert DPZ_L.n_bins == 255
    assert DPZ_S.n_bins == 65535


def test_with_tve_nines():
    cfg = DPZ_L.with_tve_nines(5)
    assert cfg.k_mode == "tve"
    assert abs(cfg.tve - 0.99999) < 1e-12
    assert cfg.p == DPZ_L.p  # scheme params untouched


def test_with_knee():
    cfg = DPZ_S.with_knee("polyn")
    assert cfg.k_mode == "knee" and cfg.knee_fit == "polyn"


def test_frozen():
    with pytest.raises(Exception):
        DPZ_L.p = 2.0  # type: ignore[misc]


@pytest.mark.parametrize("kwargs", [
    {"p": 0.0},
    {"p": -1e-3},
    {"index_bytes": 3},
    {"k_mode": "magic"},
    {"k_mode": "fixed"},                      # missing fixed_k
    {"k_mode": "fixed", "fixed_k": 0},
    {"tve": 0.0},
    {"tve": 1.5},
    {"knee_fit": "cubic"},
    {"standardize": "maybe"},
    {"sampling_subsets": 1},
    {"sampling_subsets": 2},                  # Alg. 2 picks 3 subsets
    {"sampling_rate": 0.0},
    {"n_jobs": -2},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        DPZConfig(**kwargs)


def test_valid_fixed_k():
    cfg = DPZConfig(k_mode="fixed", fixed_k=5)
    assert cfg.fixed_k == 5
