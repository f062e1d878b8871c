"""Write perfbench/reference.json: the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference.
It runs every operation once (each Monte Carlo variant for ``mc_tail``) and
stores the CSV rows the CLI wrote, as text.  Regenerate it only when an
output is meant to change; a speed-up must pass against the old file.
"""

from __future__ import annotations

import json
import sys

from run import pin_environment

pin_environment()
import workloads  # noqa: E402


def rows_of(name: str, seed: int) -> dict:
    workload = workloads.Workload(name, seed, {})
    workload.write_inputs()
    out = {}
    for op in workload.ops:
        code, stderr = op.run()
        if code not in (0, 1):
            sys.exit(f"{name}/{op.label} exited with {code}: {stderr}")
        out[op.label] = op.rows()
    return out


def main() -> None:
    reference = {
        "mc_tail": {
            str(k): {label: [int(r[2]) for r in rows] for label, rows in rows_of("mc_tail", k).items()}
            for k in range(workloads.MC_VARIANTS)
        },
        "rate_ldp": rows_of("rate_ldp", 0),
        "theory_sums": rows_of("theory_sums", 0),
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
