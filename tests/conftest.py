"""Shared test setup.

``cold_atlas`` empties the atlas loader's table of the last accepted atlas
around a test, so that the test's first load builds fresh records and no
record it loaded is reused by a later test.

When a ``@given`` test fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the failing example.
That module imports libcst, which uses ``mypy_extensions.TypedDict`` and so
raises a ``DeprecationWarning`` on import.  Under ``python -W error`` the
warning becomes an exception that the plugin does not catch, and pytest
stops with INTERNALERROR instead of printing the falsifying example.
The hook below imports the module first, with only that warning silenced,
so the failure report stays intact; where libcst is not installed the import
fails and the plugin skips the patch as usual.  It does so only for a test
phase that raised, since the import takes a large part of a second and a
passing session never needs it.
"""

import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # runs before the yield, so before Hypothesis's wrapper reads the report
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    return (yield)


@pytest.fixture
def cold_atlas():
    """Empties the table before and after the test; the yielded function
    empties it again mid-test."""
    from nilorb import orbit_atlas

    def empty():
        orbit_atlas._last_accepted = {}

    empty()
    yield empty
    empty()
