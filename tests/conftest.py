"""Shared pytest set-up."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def source_tree_on_child_path():
    """Let the `python -m dpprofile` processes the CLI tests start import the
    source tree, as pyproject.toml's pythonpath does for the test process."""
    with pytest.MonkeyPatch.context() as mp:
        paths = [SRC, os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield
