"""ATTN_ENS_THREADS: one parser, a warning when it comes too late or is not
a count, and a check that a pinned test run really splits ``evaluate``.

The pin is read when attnens is imported, so each case but the last runs a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import attnens

SRC = Path(attnens.__file__).resolve().parent.parent


def run_python(code, threads):
    """(stdout, stderr) of ``code`` in a fresh interpreter with
    ``ATTN_ENS_THREADS=threads`` (unset for None) and no BLAS variable preset."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("ATTN_ENS_THREADS", "PYTHONWARNINGS", *attnens._BLAS_THREAD_VARS)
    }
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["ATTN_ENS_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


PROBE = (
    "import attnens, os\n"
    "print(attnens._one_blas_thread, os.environ.get('OPENBLAS_NUM_THREADS'))"
)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_numpy_first_warns_once(threads):
    # The variables are still set, for any child process to read.
    out, err = run_python("import numpy\n" + PROBE, threads)
    assert out == f"False {threads}\n"
    assert err.count("RuntimeWarning") == 1
    assert "ATTN_ENS_THREADS" in err and "numpy was imported before attnens" in err


@pytest.mark.parametrize("threads", ["1", "2", "0", None])
def test_attnens_first_does_not_warn(threads):
    out, err = run_python(PROBE + "\nimport numpy", threads)
    assert err == ""
    pinned = {"1": "True 1", "2": "False 2"}.get(threads, "False None")
    assert out == pinned + "\n"


@pytest.mark.parametrize("threads", [None, "0"])
def test_numpy_first_without_a_count_does_not_warn(threads):
    _, err = run_python("import numpy\n" + PROBE, threads)
    assert err == ""


@pytest.mark.parametrize("first", ["attnens", "numpy"])
@pytest.mark.parametrize(
    "threads", ["many", "-1", "\u00b2"], ids=["many", "negative", "superscript_two"]
)
def test_invalid_count_warns_once_naming_it(threads, first):
    # The CLI exits 2 on such a value; a plain import skips the cap, but says so.
    code = PROBE + "\nimport numpy" if first == "attnens" else "import numpy\n" + PROBE
    out, err = run_python(code, threads)
    assert out == "False None\n"
    assert err.count("RuntimeWarning") == 1
    assert f"ATTN_ENS_THREADS must be a non-negative integer (0 = auto), got {threads!r}" in err


@pytest.mark.parametrize("threads", ["01", " 1 ", "001"])
def test_leading_zeros_pin_like_one(threads):
    # The same cap, and so the same process rule in evaluate, as "1".
    code = PROBE + "\nimport attnens.trainer as t; print(t._eval_processes(57))"
    assert run_python(code, threads) == run_python(code, "1")
    assert run_python(PROBE, threads)[0] == "True 1\n"


def test_pinned_run_splits_evaluate():
    # CI runs the unit tests once more under ATTN_ENS_THREADS=1 so that every
    # evaluate goes through the forked children.  That holds only if the pin
    # took: numpy must not load before attnens (conftest imports it first).
    if os.environ.get("ATTN_ENS_THREADS", "").strip() != "1":
        pytest.skip("ATTN_ENS_THREADS=1 is not set")
    assert attnens._one_blas_thread, (
        "ATTN_ENS_THREADS=1 did not pin BLAS to one thread: numpy loaded before "
        "attnens, or a BLAS thread variable was already set to another count"
    )
