#!/usr/bin/env python3
"""Rewrite the bundled controller JSON from the programmatic builders.

The Python builders in fuzzydock.controllers are the source of truth; the
JSON copy exists so external tools (and the --controllers CLI flag) have a
reference document to start from. Run this after changing PEAKS or a rule
table, then commit the result.
"""

import argparse
from pathlib import Path

from fuzzydock.controllers import controllers_to_json, default_controllers


def main() -> None:
    default_out = Path(__file__).resolve().parent.parent / "src" / "fuzzydock" / "data" / "controllers.json"
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=default_out)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(controllers_to_json(default_controllers()), encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
