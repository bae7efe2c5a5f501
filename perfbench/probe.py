"""One set-up in a fresh interpreter, timed from the parent's spawn.

Usage: ``python3 perfbench/probe.py SPAWN_MONOTONIC SRC_DIR ATLAS_PATH``

Imports ``repro.cli``, builds a ``Runner`` over a fresh atlas (which
opens the database), and prints one JSON line: ``setup_s`` (parent's
spawn until the atlas is open, on the system-wide monotonic clock),
``import_numpy_s`` and ``import_cli_s`` (the whole ``repro.cli`` import,
numpy included).
"""

import json
import sys
import time


def main() -> None:
    spawned, src, atlas_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import numpy  # noqa: F401  -- timed on its own; repro.cli imports it

    t1 = time.monotonic()
    import repro.cli  # noqa: F401

    t2 = time.monotonic()
    from repro.scenarios.atlas import AtlasStore
    from repro.scenarios.runner import Runner

    atlas = AtlasStore(atlas_path)
    Runner(atlas=atlas)
    ready = time.monotonic()
    atlas.close()
    print(json.dumps({
        "setup_s": ready - spawned,
        "import_numpy_s": t1 - t0,
        "import_cli_s": t2 - t0,
    }))


if __name__ == "__main__":
    main()
