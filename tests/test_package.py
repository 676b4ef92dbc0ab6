import os
import subprocess
import sys
from pathlib import Path

import pytest

import specwave

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_exists_once():
    assert len(set(specwave.__all__)) == len(specwave.__all__)
    assert [name for name in specwave.__all__ if not hasattr(specwave, name)] == []


def _fresh_process(code: str, blas_threads: str | None) -> list:
    # this process imported NumPy already, so only a new interpreter reaches
    # the import path that specwave takes when it loads NumPy itself
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    prelude = "import os, sys\ntasks = lambda: len(os.listdir('/proc/self/task'))\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.splitlines()[-1].split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_numpy_loads_with_one_blas_thread_and_the_setting_is_restored():
    code = "import specwave\nprint(tasks(), os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_process(code, "2") == ["1", "2"]
    assert _fresh_process(code, None) == ["1", "None"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_a_host_that_imported_numpy_first_keeps_its_blas_threads():
    code = "import numpy\nbefore = tasks()\nimport specwave\nprint(before, tasks())"
    before, after = _fresh_process(code, "2")
    assert after == before


def test_a_run_imports_no_numpy_polynomial(tmp_path):
    # the quadrature's reference rule is written out, not computed by leggauss
    code = ("from specwave import cli\n"
            f"code = cli.main(['solve', '--N', '50', '--out', {str(tmp_path)!r}])\n"
            "print(code, 'numpy.polynomial' in sys.modules)")
    assert _fresh_process(code, "1") == ["0", "False"]
