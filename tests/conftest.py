import sys

import pytest

from braidwork import families, hurwitz, tracking


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


@pytest.fixture
def hurwitz_moves(monkeypatch):
    """The generator index of every ``hurwitz.act_letter`` call, in call
    order, made through any braidwork module's binding of it: ``hurwitz``'s
    own (read by ``act_word`` and ``orbit``), ``catalog``'s and the
    package's."""
    moves = []
    act_letter = hurwitz.act_letter

    def counted(i, sign, system):
        moves.append(i)
        return act_letter(i, sign, system)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "braidwork" and getattr(module, "act_letter", None) is act_letter:
            monkeypatch.setattr(module, "act_letter", counted)
    return moves
