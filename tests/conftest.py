import pathlib
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

PACKAGE_DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "lexstable" / "data"
TEST_DATA = pathlib.Path(__file__).resolve().parent / "data"


def data_path(name: str) -> pathlib.Path:
    """Bundled package fixture (dictionaries, models)."""
    return PACKAGE_DATA / name


def fixture_path(name: str) -> pathlib.Path:
    """Fixture committed under tests/data."""
    return TEST_DATA / name
