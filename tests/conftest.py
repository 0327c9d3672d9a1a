import pytest

from oracles import skip_unless_compiled


@pytest.fixture(scope="session")
def compiled():
    """Skips the test where the compiled kernels cannot be built."""
    skip_unless_compiled()
