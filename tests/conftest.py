import pytest

from braidwork import families


@pytest.fixture
def newton_passes(monkeypatch):
    """Residual tests per Newton loop, in call order: each entry counts the
    calls to one residual closure of ``families._newton_pass``."""
    passes = []
    newton_pass = families._newton_pass

    def counted_pass(cols, m):
        residuals, vals, dvals = newton_pass(cols, m)
        passes.append(0)
        index = len(passes) - 1

        def counted(z):
            passes[index] += 1
            return residuals(z)

        return counted, vals, dvals

    monkeypatch.setattr(families, "_newton_pass", counted_pass)
    return passes
