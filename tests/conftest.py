import os

import numpy as np
import pytest

from lognet import Dataset, RpMap
from lognet import experiment

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def no_registered_synth_files():
    """Each test starts and ends with no fingerprints.csv registered for reuse by a later run."""
    experiment._SYNTH_FILES.clear()
    yield
    experiment._SYNTH_FILES.clear()


@pytest.fixture
def fixture_dir() -> str:
    return FIXTURES


@pytest.fixture
def tiny_dataset() -> Dataset:
    """Two RPs over 3 APs, six fingerprints each, all at CI:0."""
    centers = np.array([[-40.0, -42.0, -85.0], [-85.0, -84.0, -40.0]])
    k = np.tile(np.arange(6), 2)  # each RP's rows step down from its center by 0.1 dB
    rss = np.repeat(centers, 6, axis=0) - 0.1 * k[:, None]
    return Dataset.from_columns(np.repeat([0, 1], 6), [f"dev{i % 2}" for i in k], [0] * 12, rss)


@pytest.fixture
def tiny_rp_map() -> RpMap:
    return RpMap({0: (0.0, 0.0), 1: (1.0, 0.0)})
