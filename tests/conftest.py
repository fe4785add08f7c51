"""Keep the dataset cache of `morphkit.cli` out of the user's home."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_dataset_cache(tmp_path_factory):
    """The cache seen by module-scoped fixtures, which are set up before any
    function-scoped one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def dataset_cache(tmp_path_factory, monkeypatch):
    """Each test starts from an empty cache of its own; returns the
    directory its entries go to."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "morphkit"
