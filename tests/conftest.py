"""Shared test settings.

Every property test runs under one Hypothesis profile: derandomized, so a
run draws the same examples every time, with no deadline (timings vary by
host) and no example database.  Hypothesis also caches the constants it
finds in local source files; that cache goes to the system temp directory
unless HYPOTHESIS_STORAGE_DIRECTORY says otherwise, so no test writes a
.hypothesis/ directory into the checkout.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "acoufilt-hypothesis"))

settings.register_profile("acoufilt", derandomize=True, deadline=None, database=None,
                          max_examples=40)
settings.load_profile("acoufilt")
