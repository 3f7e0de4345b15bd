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
# A worker starts below the command's own import peak, so that peak can
# hide a worker's growth. The child therefore also reads its own VmRSS
# just before each fork; the largest worker's peak minus the largest of
# those sizes is a lower bound on the largest worker's growth. It reads
# about 4 MB low: the file pages the command has mapped are not copied
# into a forked worker's page tables, so the worker starts smaller. So
# each worker also reads its own VmRSS as it starts and its VmHWM as it
# ends, and writes the difference into a pipe the child reads after
# main: its growth, which also counts the mapped pages it touches again.
_PEAK_CHILD = """import os
import resource
import sys
from lexstable import cli

def status_kb(field):
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith(field)).split()[1])

at_fork = []
grown, growths = os.pipe()
fork = cli._fork
def sized_fork(fn, item):
    at_fork.append(status_kb("VmRSS:"))
    def measured(item):
        start = status_kb("VmRSS:")
        try:
            return fn(item)
        finally:
            os.write(growths, b"%d\\n" % (status_kb("VmHWM:") - start))
    return fork(measured, item)
cli._fork = sized_fork
if shards := int(sys.argv[1]):  # as tests/test_cli.py's _force_shards does
    cli._usable_cpus = lambda: shards
    cli._SHARD_BYTES = cli._RAW_SHARD_BYTES = cli._SHARD_TOKENS = 1
code = cli.main(sys.argv[2:])
os.close(growths)
with open(grown, "rb") as fh:
    own = max(map(int, fh.read().split()), default=0)
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(max(status_kb("VmHWM:"), workers), max(0, workers - max(at_fork)) if at_fork else 0, own, file=sys.stderr)
sys.exit(code)
"""


def _cli_figures_mb(argv, code, shards) -> list[float]:
    """Run the CLI with ``argv`` in a child process (``shards`` other
    than 0 cuts the work into up to that many shards on any host), check
    that it exits with ``code``, and return the child's three figures in
    MB. Linux only."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(shards), *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return [int(kb) / 1024 for kb in proc.stderr.splitlines()[-1].split()]


def cli_peaks_mb(*argv, code=0, shards=0) -> tuple[float, float]:
    """The peak RSS, in MB, of the largest process of the command (the
    child's own ``VmHWM`` or a worker's it forked) and a lower bound on
    the largest worker's growth past the command's size at the fork (0
    when no worker was forked); see ``_cli_figures_mb``."""
    peak, growth, _ = _cli_figures_mb(argv, code, shards)
    return peak, growth


def cli_peak_mb(*argv, code=0, shards=0) -> float:
    """The first figure of ``cli_peaks_mb``: the peak RSS, in MB, of the
    largest process of the command."""
    return cli_peaks_mb(*argv, code=code, shards=shards)[0]


def cli_worker_growth_mb(*argv, code=0, shards=0) -> float:
    """The largest growth, in MB, of a worker the command forked past its
    own size as it started (0 when none was forked), which the pages it
    maps again count in too; see ``_cli_figures_mb``."""
    return _cli_figures_mb(argv, code, shards)[2]
