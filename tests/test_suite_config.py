"""The suite's own settings: a failing test must be reported, not end the run."""

import subprocess
import sys

# Applies the suite's warning filters as pytest does (a later one wins), then
# imports what hypothesis's pytest plugin imports to report a failing example.
IMPORT_UNDER_FILTERS = """
import sys, warnings
from _pytest.config import parse_warning_filter
for text in sys.argv[1:]:
    warnings.filterwarnings(*parse_warning_filter(text, escape=False))
import hypothesis.extra._patching
"""


def test_failure_reporting_imports_under_the_suite_filters(pytestconfig):
    # Run in a fresh interpreter: in this one the module may be imported already.
    filters = pytestconfig.getini("filterwarnings")
    done = subprocess.run([sys.executable, "-c", IMPORT_UNDER_FILTERS, *filters],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
