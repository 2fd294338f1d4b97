import os
import shutil
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(__file__))

# Same examples on every run, no timing flakes, no example database.
settings.register_profile("fampersist", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("fampersist")

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from source files; keep
    # that cache out of the checkout, and only for the run.
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
