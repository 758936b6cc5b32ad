"""Shared pytest configuration for the unit and integration tests."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end check (deselect with -m 'not slow')"
    )
