"""Suite-wide set-up: make ``tests/oracle.py`` importable as ``oracle``.

The per-record reference simulator lives beside the tests rather than in
``src/``; the differential suites import it as ``from oracle import ...``.
"""

import os
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)
