import pytest

from fibpal import oracle, prefix


@pytest.fixture(scope="session")
def prefix_2k() -> str:
    return prefix(2000)


@pytest.fixture(scope="session")
def prefix_10k() -> str:
    return prefix(10**4)


@pytest.fixture(scope="session")
def scan_10k() -> oracle.PrefixScan:
    return oracle.scan_prefix(10**4)


@pytest.fixture(scope="session")
def scan_2k(prefix_2k) -> oracle.PrefixScan:
    return oracle.scan_word(prefix_2k)
