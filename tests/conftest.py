"""Shared test set-up.

attnens is imported before any test module imports numpy, so that a run
under ``ATTN_ENS_THREADS=1`` pins BLAS to one thread, as the CLI does, and
``evaluate`` splits its batches over the cores in every test that calls it.
"""

import attnens  # noqa: F401
