import os
import pathlib
import subprocess
import sys
import warnings

# Hypothesis imports this module when a property fails. Its imports
# (libcst, then mypy_extensions) raise a DeprecationWarning, which the
# "error" warning filter would turn into an INTERNALERROR that ends the
# session; importing it here first, with that warning ignored, keeps a
# failing property one failed test. The filter still applies to every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE_DATA = SRC / "lexstable" / "data"
TEST_DATA = pathlib.Path(__file__).resolve().parent / "data"


def data_path(name: str) -> pathlib.Path:
    """Bundled package fixture (dictionaries, models)."""
    return PACKAGE_DATA / name


def fixture_path(name: str) -> pathlib.Path:
    """Fixture committed under tests/data."""
    return TEST_DATA / name


# The child reads its own peak RSS just before it exits. Its ru_maxrss
# would not do: on Linux that starts from the size of the process that
# spawned it, here the whole test session. A command that forks workers
# has reaped them when main returns, so RUSAGE_CHILDREN holds the
# largest worker's peak, and the larger of the two is the command's.
_PEAK_CHILD = """import resource
import sys
from lexstable.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    own = int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss), file=sys.stderr)
sys.exit(code)
"""


def cli_peak_mb(*argv) -> float:
    """Run the CLI with ``argv`` in a child process and return the peak
    RSS, in MB, of the largest process of the command: the child's own
    (``VmHWM``) or a worker's it forked. Linux only."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1]) / 1024  # both are in kB
