"""Make the sibling fixture/oracle modules importable from any test, and
the library importable from this checkout's ``src`` when no entry of
``PYTHONPATH`` holds a ``hdalang`` package: one that does is tested
instead, so that the suite can be pointed at another copy."""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def pythonpath_library():
    """The first ``PYTHONPATH`` entry that holds ``hdalang``, or None."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and os.path.isfile(os.path.join(entry, "hdalang",
                                                 "__init__.py")):
            return os.path.abspath(entry)
    return None


sys.path.insert(0, HERE)
if pythonpath_library() is None:
    sys.path.insert(1, SRC)
