"""Rewrite the golden digests in this directory from the current code.

Run from the repository root, with no ``REPRO_*`` knob set::

    PYTHONPATH=src python tests/golden/regen.py

Prints, per golden file, which pinned keys moved against the committed
file (for ``validate.json``, which claims), and rewrites only the files
that moved; the others stay byte-identical.

``tests/test_golden.py`` only compares against these files and never
runs this script.  Regenerate only for a change meant to move the
default path's simulated behaviour, and say why in CHANGES.md.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from tests.test_golden import (  # noqa: E402
    RIGS, golden_path, measure, measure_validate)


def _committed(path):
    """The pinned values in ``path``, or None if there is no such file."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def main():
    armed = sorted(var for var in os.environ if var.startswith("REPRO_"))
    if armed:
        sys.exit("unset %s: the goldens pin the default path"
                 % ", ".join(armed))
    for name in sorted(RIGS) + ["validate"]:
        pinned = measure_validate() if name == "validate" else measure(name)
        path = golden_path(name)
        committed = _committed(path)
        if pinned == committed:
            print("%s: unchanged" % name)
            continue
        if committed is None:
            print("%s: new file" % name)
        else:
            moved = sorted(key for key in set(pinned) | set(committed)
                           if pinned.get(key) != committed.get(key))
            print("%s: moved %s" % (name, ", ".join(moved)))
        with open(path, "w") as handle:
            json.dump(pinned, handle, indent=2, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
