"""Regenerate pins.json: the expected output of every pooled unit.

Run from the repository root on the commit whose outputs are the
reference (the library's outputs are meant never to change):

    python3 bench/pin.py

Takes a few minutes; fails if any pooled unit raises or its witness
does not re-check.
"""

from __future__ import annotations

import json
import sys

from run import PINS, SRC

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    pins = {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        pins[name] = {}
        for spec in wl.pool():
            inputs = wl.prepare(spec)
            raw = wl.run(inputs)
            problem = wl.recheck(inputs, raw)
            if problem is not None:
                raise SystemExit(f"{name} {wl.key(spec)}: {problem}")
            pins[name][wl.key(spec)] = wl.record(raw)
        print(f"{name}: {len(pins[name])} units pinned", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
