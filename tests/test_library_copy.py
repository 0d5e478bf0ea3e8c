"""Which copy of hdalang the suite tests: the first ``PYTHONPATH`` entry
that holds the package, and this checkout's ``src`` only when none does
(``conftest.py``)."""
import os
import shutil
import subprocess
import sys

import hdalang

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
THIS_TEST = (f"{os.path.realpath(__file__)}::"
             "test_the_library_comes_from_pythonpath_before_this_checkout")


def test_the_library_comes_from_pythonpath_before_this_checkout():
    held = [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if entry and os.path.isfile(os.path.join(entry, "hdalang",
                                                     "__init__.py"))]
    expected = held[0] if held else os.path.join(ROOT, "src")
    imported = os.path.dirname(os.path.dirname(hdalang.__file__))
    assert os.path.realpath(imported) == os.path.realpath(expected)


def run_the_test_above(pythonpath):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    return subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", THIS_TEST],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_a_copy_named_on_pythonpath_is_the_one_tested(tmp_path):
    copy = tmp_path / "lib"
    shutil.copytree(os.path.join(ROOT, "src", "hdalang"), copy / "hdalang",
                    ignore=shutil.ignore_patterns("__pycache__"))
    elsewhere = str(tmp_path / "empty")
    for pythonpath in (str(copy), os.pathsep.join([elsewhere, str(copy)])):
        done = run_the_test_above(pythonpath)
        assert done.returncode == 0, (pythonpath, done.stdout, done.stderr)
