import os
import subprocess
import sys

import pshenv


def test_import_loads_no_scipy():
    # scipy is imported lazily by check_submean's slice interpolation only;
    # a fresh interpreter must be able to import the package without it.
    src = os.path.dirname(os.path.dirname(pshenv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pshenv; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
