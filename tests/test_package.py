import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specwave
from specwave import cli

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


def test_run_freezes_the_heap_after_main(monkeypatch):
    # main(argv) stays pure for in-process callers; run() is main() for a process that exits next
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert cli.run() == 3
    assert calls == ["main", "freeze"]


def test_console_script_targets_run():
    # read as text: Python 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text()
    assert '[project.scripts]\nspecwave = "specwave.cli:run"\n\n' in text


def test_both_module_entry_points_print_the_same_and_freeze(tmp_path):
    # a sitecustomize ahead of the package reports, at interpreter exit, whether the heap was frozen
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count() > 0}\\n'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)])}
    done = [subprocess.run([sys.executable, "-m", module, "paper-table", "--out", str(tmp_path / module)],
                           env=env, capture_output=True, timeout=60)
            for module in ("specwave", "specwave.cli")]
    for proc in done:
        assert proc.stderr.splitlines()[-1:] == [b"frozen True"], proc.stderr
    assert done[0].returncode == done[1].returncode == 0
    assert done[0].stdout == done[1].stdout and done[0].stdout
