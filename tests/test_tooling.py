"""The suite's own set-up: the warning filters in pyproject.toml must let
hypothesis report a failing property test."""

from contextlib import suppress


def test_hypothesis_report_module_imports():
    # hypothesis prints a falsifying example through hypothesis.extra._patching,
    # which imports libcst where it is installed. Without libcst the import
    # raises ImportError and hypothesis prints the example unpatched; with it,
    # the import must not raise under the filters, or a failing @given test
    # ends in an INTERNALERROR that hides its example
    with suppress(ImportError):
        import hypothesis.extra._patching  # noqa: F401
