"""Rewrite the golden digests in this directory from the current code.

Run from the repository root, with no ``REPRO_*`` knob set::

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden.py`` only compares against these files and never
runs this script.  Regenerate only for a change meant to move the
default path's simulated behaviour, and say why in CHANGES.md.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from tests.test_golden import RIGS, golden_path, measure  # noqa: E402


def main():
    armed = sorted(var for var in os.environ if var.startswith("REPRO_"))
    if armed:
        sys.exit("unset %s: the goldens pin the default path"
                 % ", ".join(armed))
    for name in sorted(RIGS):
        pinned = measure(name)
        with open(golden_path(name), "w") as handle:
            json.dump(pinned, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(name, json.dumps(pinned, sort_keys=True))


if __name__ == "__main__":
    main()
