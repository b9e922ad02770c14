import sys
from pathlib import Path

import numpy as np
import pytest

from fewshot_tta.config import load_config

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def read_config(tmp_path):
    """Config JSON text to a RunConfig through load_config, the CLI's one reader."""
    def read(text: str):
        path = tmp_path / "config.json"
        path.write_text(text)
        return load_config(path)
    return read
