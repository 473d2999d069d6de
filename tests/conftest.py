import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Fixed draws and no example database: every run checks the same examples.
settings.register_profile("seqad", derandomize=True, database=None, deadline=None)
settings.load_profile("seqad")


def pytest_configure(config):
    """Hypothesis caches the constants it finds in the source under its
    storage directory, database or not, from test collection on; keep
    that in a temporary directory, out of the checkout."""
    storage = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))
    set_hypothesis_home_dir(storage)
