import os
import pathlib
import subprocess
import sys

import pshenv


def _fresh_python(code, cwd=None):
    src = os.path.dirname(os.path.dirname(pshenv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
        text=True, check=True,
    )


def test_import_loads_no_scipy():
    # The package depends on numpy alone; a fresh interpreter must be able
    # to import it without scipy.
    out = _fresh_python(
        "import sys, pshenv; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.stdout.strip() == "[]"


def test_no_source_file_imports_scipy():
    pkg = pathlib.Path(pshenv.__file__).parent
    for path in sorted(pkg.rglob("*.py")):
        text = path.read_text()
        assert "import scipy" not in text and "from scipy" not in text, path


def test_counterexample_runs_without_scipy(tmp_path):
    # check_submean, the counterexample's last step, was the one scipy user.
    (tmp_path / "ce.cfg").write_text("[run]\nmode = counterexample\n")
    out = _fresh_python(
        "import sys\n"
        "from pshenv import cli\n"
        "code = cli.main(['counterexample', '--config', 'ce.cfg', '--out', 'out',"
        " '--quiet'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        cwd=tmp_path,
    )
    assert out.stdout.strip() == "0 []"
