"""Shared test settings and fixtures.

The ``ci`` Hypothesis profile draws examples deterministically and
prints the blob that reproduces a failure, so a failing CI run replays
exactly: ``pytest --hypothesis-profile=ci``.
"""

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
