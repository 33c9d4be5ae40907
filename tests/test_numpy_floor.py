"""``pyproject.toml`` declares numpy>=1.24, so ``src/`` may call nothing
that only later NumPy releases define.  The names below are the ones
NumPy 2 added (the array-API aliases and functions); a use of any of
them in a module of the package fails here, whatever NumPy runs the
tests."""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "alphaspec").glob("*.py"))

NUMPY_2_NAMES = (
    # 2.0
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "concat", "isdtype", "matrix_transpose", "permute_dims", "pow",
    "trapezoid", "unique_all", "unique_counts", "unique_inverse", "unique_values", "vecdot",
    # 2.1 and later
    "cumulative_prod", "cumulative_sum", "matvec", "unstack", "vecmat",
)
NUMPY_2_LINALG_NAMES = (
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals", "tensordot", "trace",
    "vecdot", "vector_norm",
)
NUMPY_2_MODULES = ("strings",)

USES = re.compile(
    r"\b(?:np|numpy)\.(?:linalg\.(?P<linalg>\w+)|(?P<name>\w+))\b"
    r"|\bfrom\s+numpy(?:\.linalg)?\s+import\s+(?P<imported>[^\n]+)"
)


def numpy_2_uses(text: str) -> list[str]:
    """The NumPy-2-only names ``text`` reaches through ``np.``,
    ``numpy.``, their ``linalg`` or a ``from numpy import``."""
    found = []
    for match in USES.finditer(text):
        if match["linalg"] in NUMPY_2_LINALG_NAMES:
            found.append(f"np.linalg.{match['linalg']}")
        elif match["name"] in NUMPY_2_NAMES + NUMPY_2_MODULES:
            found.append(f"np.{match['name']}")
        elif match["imported"]:
            names = re.findall(r"\w+", match["imported"].split("#")[0])
            found += [name for name in names if name in NUMPY_2_NAMES + NUMPY_2_LINALG_NAMES + NUMPY_2_MODULES]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_numpy_2_only_name(path):
    assert numpy_2_uses(path.read_text()) == []


def test_the_scan_finds_each_form():
    text = "\n".join(
        [
            "x = np.bitwise_count(words)",
            "y = numpy.unique_counts(a)",
            "z = np.linalg.vecdot(a, b)",
            "from numpy import concat, zeros",
            "w = np.cumulative_sum(a, axis=0)",
            "ok = np.concatenate(a) + np.unique(b) + np.linalg.eigvalsh(c) + np.cumsum(d)",
        ]
    )
    assert numpy_2_uses(text) == [
        "np.bitwise_count",
        "np.unique_counts",
        "np.linalg.vecdot",
        "concat",
        "np.cumulative_sum",
    ]


def test_every_module_is_scanned():
    assert {path.name for path in SOURCES} >= {"spectral.py", "verify.py", "enumeration.py", "graphs.py"}
