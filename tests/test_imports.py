"""What a process loads: numpy only where layers are built, and the
package surface, which serves the row names from ``rows`` without it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import palfact
from palfact import rows

ROOT = Path(__file__).resolve().parent.parent

# Runs one CLI invocation (none without arguments), then reports on stderr
# whether numpy was imported.
_PROBE = (
    "import sys\n"
    "import palfact\n"
    "status = 0\n"
    "if sys.argv[1:]:\n"
    "    from palfact.cli import dispatch\n"
    "    status = dispatch(sys.argv[1:])\n"
    "sys.stderr.write(f'numpy loaded: {\"numpy\" in sys.modules}\\n')\n"
    "sys.exit(status)\n"
)


def _numpy_loaded(*argv: str, stdin: str = "") -> bool:
    """Whether a fresh interpreter that runs ``palfact argv`` loads numpy."""
    env = {k: v for k, v in os.environ.items() if k != "PALIN_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], input=stdin, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    verdict = proc.stderr.splitlines()[-1]
    assert verdict in ("numpy loaded: True", "numpy loaded: False"), proc.stderr
    return verdict.endswith("True")


class TestNumpyOnlyWhereLayersAreBuilt:
    @pytest.mark.parametrize(
        "argv, stdin",
        [((), ""), (("m", "aabab"), ""), (("factor", "-"), "aababbaabab" * 50)],
        ids=["import palfact", "m", "factor -"],
    )
    def test_single_word_paths_skip_numpy(self, argv, stdin):
        assert not _numpy_loaded(*argv, stdin=stdin)

    # The pruned searches build no layer, whatever the length.
    @pytest.mark.parametrize(
        "argv", [("kmax", "--max-n", "30"), ("worst", "--n", "29"), ("verify", "lemma3"), ("verify", "lemma4")]
    )
    def test_worst_rows_and_case_analyses_skip_numpy(self, argv):
        assert not _numpy_loaded(*argv)

    def test_warm_tables_skip_numpy_and_cold_ones_load_it(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        # The cold pass builds layers, so the warm checks below cannot pass vacuously.
        assert _numpy_loaded(*cache, "kbar", "--max-n", "21")
        for argv in (("kbar", "--max-n", "8"), ("histogram", "--n", "8"), ("bounds",)):
            assert not _numpy_loaded(*cache, *argv), argv

    def test_bounds_loads_numpy(self):
        # cold: with no cache the n = 21 row comes from a scan
        assert _numpy_loaded("bounds")


class TestLazyPackageSurface:
    def test_every_public_name_resolves(self):
        for name in palfact.__all__:
            assert getattr(palfact, name) is not None, name

    def test_row_names_come_from_rows(self):
        assert palfact.length_row is rows.length_row
        assert palfact.length_rows is rows.length_rows
        assert palfact.worst_rows is rows.worst_rows

    def test_dir_lists_every_public_name(self):
        assert set(palfact.__all__) <= set(dir(palfact))

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from palfact import *", namespace)
        assert set(palfact.__all__) <= set(namespace)
        assert namespace["length_rows"] is rows.length_rows

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            palfact.no_such_name  # noqa: B018
        assert not hasattr(palfact, "length_rows_")
