import functools

import pytest

from nodalcat import nodal


@pytest.fixture
def fresh_contexts(monkeypatch):
    """Give the test its own ``nodal._setup`` cache, so the cones and facts
    its queries register stay out of the session's shared contexts (whose
    registries later tests walk), and what earlier tests registered does
    not reach it.  ``nodal._setup.cache_clear()`` inside the test empties
    only this cache."""
    monkeypatch.setattr(nodal, "_setup", functools.cache(nodal._setup.__wrapped__))
