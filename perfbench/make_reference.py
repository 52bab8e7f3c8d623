"""Regenerate reference.json, the expected outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only on a commit whose results are trusted: the committed file was
generated from the code the benchmark was defined on, and a later change
that alters a product, an invariant or an expansion must fail the check
instead of rewriting this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {"table": workloads.Table.reference(), **workloads.Crosscheck.reference()}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
