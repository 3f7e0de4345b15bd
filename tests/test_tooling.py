"""The test suite's own configuration."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_a_failing_property_is_one_failed_test(tmp_path):
    # a failing Hypothesis property imports hypothesis.extra._patching, whose
    # imports warn; under the "error" filter that must not end the session
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @given(st.integers())
        @settings(database=None)
        def test_fails(n):
            assert n < 5


        def test_passes():
            pass
    """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
