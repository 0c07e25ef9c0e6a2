import pytest

from subtail.golden import builtin_kernel_set


@pytest.fixture(scope="session")
def kernels():
    """One representative of each of the five built-in variants."""
    return builtin_kernel_set()
