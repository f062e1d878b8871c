"""Byte-identity oracle for the command line front end.

Each directory under tests/golden holds one flat config (cfg.json) and the
<subcommand>.csv and <subcommand>.json that `recdev <subcommand> --config
cfg.json` wrote for it; the directory name starts with the subcommand.  A
rerun must reproduce both files byte for byte, so any refactor that moves
a digit, a verdict or a JSON key fails here.

After an intended output change, regenerate every case with

    PYTHONPATH=src python tests/test_golden.py

which first prints, for each file that changed, the largest absolute and
relative change of every numeric field (CSV column or JSON key path) and
names any text field that changed, then overwrites the file.
"""

import csv
import json
import math
import shutil
import tempfile
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


def _fields(path: Path) -> dict:
    """{field: [values]} for every CSV column or JSON leaf, floats where numeric."""
    out = {}
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = cell
                out.setdefault(name, []).append(value)
        return out

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key + "[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.setdefault(key, []).append(float(node))
        else:
            out.setdefault(key, []).append(node)

    walk(json.loads(path.read_text(encoding="utf-8")), "")
    return out


def _drift(old: Path, new: Path) -> list:
    """One line per field of `new` that differs from `old`."""
    before, after = _fields(old), _fields(new)
    lines = []
    for name in sorted(set(before) | set(after)):
        a, b = before.get(name, []), after.get(name, [])
        if a == b:
            continue
        if len(a) != len(b) or not all(isinstance(v, float) for v in a + b):
            lines.append(f"  {name}: text or shape changed")
            continue
        worst_abs = worst_rel = 0.0
        for x, y in zip(a, b):
            if x == y:
                continue
            gap = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
            worst_abs = max(worst_abs, gap)
            worst_rel = max(worst_rel, gap / abs(x) if x != 0 else math.inf)
        lines.append(f"  {name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    return lines


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            sub = _run(case, Path(tmp))
            for name in (f"{sub}.csv", f"{sub}.json"):
                old, new = GOLDEN / case / name, Path(tmp) / name
                if old.read_bytes() != new.read_bytes():
                    print(f"{case}/{name} changed:")
                    print("\n".join(_drift(old, new)))
                    shutil.copyfile(new, old)
