import pytest
from hypothesis import settings

from electra.engine import compute_phase_table
from electra.models import FairCoin, ToyHalving, peak_circular, peak_linear_i

# fixed examples on every run, and no per-example deadline on a slow machine
settings.register_profile("electra", derandomize=True, deadline=None)
settings.load_profile("electra")


@pytest.fixture(scope="session")
def fair_4096():
    """Fair-coin phase table to n = 4096; the expensive shared fixture."""
    return compute_phase_table(FairCoin(), 4096)


@pytest.fixture(scope="session")
def toy_1024():
    return compute_phase_table(ToyHalving(), 1024)


@pytest.fixture(scope="session")
def linear_500():
    return compute_phase_table(peak_linear_i(), 500)


@pytest.fixture(scope="session")
def circular_500():
    return compute_phase_table(peak_circular(), 500)
