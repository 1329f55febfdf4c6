import hypothesis
import pytest

from gamecomonads import strategy

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def no_morphism(monkeypatch):
    """The morphism search of `strategy` finds nothing, so a won ef or pebble
    game keeps the positions certificate: for the tests of that walk and its
    verifier, whose pairs mostly have a homomorphism or an isomorphism."""
    monkeypatch.setattr(strategy, "find_homomorphism", lambda *args, **kwargs: None)
