import sys
from pathlib import Path

import pytest
from hypothesis import settings

# make tests/oracles.py importable from any test module
sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples: seeded from each test's own source,
# with no example database replaying earlier runs' finds
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def hashed(monkeypatch):
    """Every input any srcverify module hashes with Keccak-256 from here on,
    in order."""
    import srcverify._keccak

    seen = []
    real = srcverify._keccak.keccak256

    def counting(data):
        seen.append(bytes(data))
        return real(data)

    for name, module in list(sys.modules.items()):
        if (name.startswith("srcverify")
                and getattr(module, "keccak256", None) is real):
            monkeypatch.setattr(module, "keccak256", counting)
    return seen
