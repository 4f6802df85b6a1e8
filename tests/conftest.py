"""Shared fixtures; the gradient oracles live in ``gradcheck``."""

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
