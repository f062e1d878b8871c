"""Byte-identity oracle for the command line front end.

Each directory under tests/golden holds one flat config (cfg.json) and the
<subcommand>.csv and <subcommand>.json that `recdev <subcommand> --config
cfg.json` wrote for it; the directory name starts with the subcommand.  A
rerun must reproduce both files byte for byte, so any refactor that moves
a digit, a verdict or a JSON key fails here.

After an intended output change, regenerate every case with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from recdev import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def _run(case: str, out: Path) -> str:
    sub = case.split("_", 1)[0]
    rc = cli.main([sub, "--config", str(GOLDEN / case / "cfg.json"), "--out", str(out)])
    assert rc in (0, 1), f"{case}: exit code {rc}"
    return sub


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_byte_identical(case, tmp_path):
    sub = _run(case, tmp_path)
    for name in (f"{sub}.csv", f"{sub}.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


if __name__ == "__main__":
    for case in CASES:
        _run(case, GOLDEN / case)
