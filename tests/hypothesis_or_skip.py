"""hypothesis's `given`, `settings` and strategies `st` where hypothesis is
installed. Without it (the numpy-only install), stand-ins under which a test
module still collects: each `@given` test is skipped, with a reason that
names hypothesis, and the strategies build nothing."""

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    import pytest

    class _Nothing:
        """The strategies module and every strategy: each attribute and each
        call gives the same object back."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Nothing()

    def settings(*args, **kwargs):
        return lambda test: test

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="needs hypothesis, which is not installed")
