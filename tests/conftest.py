"""Hypothesis runs derandomized, without an example database and without a
deadline, so the suite is deterministic and does not flake on a slow
machine.  Its remaining on-disk cache goes to a temporary directory for the
length of the run, so testing writes no ``.hypothesis/`` into the checkout."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("clskit", derandomize=True, database=None, deadline=None)
settings.load_profile("clskit")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
