"""Shared test setup.

When a ``@given`` test fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the failing example.
That module imports libcst, which uses ``mypy_extensions.TypedDict`` and so
raises a ``DeprecationWarning`` on import.  Under ``python -W error`` the
warning becomes an exception that the plugin does not catch, and pytest
stops with INTERNALERROR instead of printing the falsifying example.
Importing the module here, with only that warning silenced, keeps the
failure report intact; where libcst is not installed the import fails and
the plugin skips the patch as usual.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
