import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # pyproject turns warnings into errors; one raised while hypothesis
    # reports a falsifying example must not end the session, which would
    # leave every other test of the run unreported
    (tmp_path / "test_h.py").write_text(_TESTS)
    res = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_h.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300,
                         check=False)
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
    assert res.returncode == 1
