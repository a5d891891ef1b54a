"""Session set-up shared by every test module."""

import warnings

# hypothesis reports a falsifying example through libcst, whose first import
# warns (a DeprecationWarning from mypy_extensions); under filterwarnings =
# error that would end the session with an INTERNALERROR instead of showing
# the example, whichever module the failing @given test is in
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata  # noqa: F401
    except ImportError:
        pass
