import pytest

from braidwork import families, tracking


@pytest.fixture
def newton_passes(monkeypatch):
    """Residual passes per Newton loop, in call order: each entry counts
    the ``families._residuals`` calls of one ``refine_roots`` call, made
    through ``families``' binding or through ``tracking``'s."""
    passes = []
    residuals = families._residuals

    def counted_pass(*args):
        passes[-1] += 1
        return residuals(*args)

    def opening(refine):
        def refine_roots(coeffs, roots):
            passes.append(0)
            return refine(coeffs, roots)

        return refine_roots

    monkeypatch.setattr(families, "_residuals", counted_pass)
    for module in (families, tracking):
        monkeypatch.setattr(module, "refine_roots", opening(module.refine_roots))
    return passes
