"""Shared test settings and fixtures.

The ``ci`` Hypothesis profile draws examples deterministically and
prints the blob that reproduces a failure, so a failing CI run replays
exactly: ``pytest --hypothesis-profile=ci``.
"""

import sys

import pytest
from hypothesis import settings

from wfa_hedge.wfa import Transition

settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def built_transitions(monkeypatch):
    """The arguments of every Transition built from here on in the test."""
    built = []
    init = Transition.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transition, "__init__", counted)
    return built


@pytest.fixture
def no_expansion(monkeypatch):
    """phi_expand, and the chain walker that expands, raise wherever the
    library binds them."""
    from wfa_hedge import phi

    def refuse(*args, **kwargs):
        raise AssertionError("a phi machine was expanded")

    for name, module in list(sys.modules.items()):
        if name.startswith("wfa_hedge") and getattr(module, "phi_expand", None) is phi.phi_expand:
            monkeypatch.setattr(module, "phi_expand", refuse)
    monkeypatch.setattr(phi._Chains, "resolve", refuse)
