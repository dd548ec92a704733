"""Shared test set-up.

When a property test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to explain it.  That module imports libcst,
which raises a DeprecationWarning on import; under the ``filterwarnings``
errors of ``pyproject.toml`` the failure report would end in an
INTERNALERROR.  Importing the module once here, with that warning ignored,
keeps the falsifying example in the report.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
