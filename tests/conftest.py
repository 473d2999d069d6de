import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# The CLI runs BLAS on one thread unless the environment names a count, but it
# can set that only before numpy loads, and the test modules load numpy before
# the CLI. Neither pytest nor hypothesis loads it, so set here, the count holds
# for the whole suite, and its in-process stages write the CLI's bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
