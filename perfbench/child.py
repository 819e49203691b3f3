"""One round of the repo benchmark in a fresh interpreter.

``python3 perfbench/child.py MODE JSON`` runs the round described by the
JSON document and prints its result as the last line of standard
output.  ``run.py`` launches it; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    import fig6_cold
    import inject_forked

    modes = {
        "fig6": fig6_cold.sweep,
        "inject": inject_forked.campaign,
        "inject-check": inject_forked.check,
    }
    mode, doc = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(modes[mode](doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
