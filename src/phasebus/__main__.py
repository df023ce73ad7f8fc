"""Process entry of ``python -m phasebus`` and the ``phasebus`` script.

Each command is one short process, so it runs with the cyclic collector
off and freezes its heap before exit; library use and ``cli.main`` keep theirs.
"""

import gc
import sys


def run() -> int:
    gc.disable()  # before numpy and the layers load
    from .cli import main

    code = main()
    gc.freeze()  # interpreter shutdown then skips sweeping the whole heap
    return code


if __name__ == "__main__":
    sys.exit(run())
