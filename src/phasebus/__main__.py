"""Process entry of ``python -m phasebus`` and the ``phasebus`` script.

Each command is one short process, so it runs with the cyclic collector
off and freezes its heap before exit, and it keeps OpenSSL unloaded:
``hashlib`` and ``hmac`` fall back to the interpreter's built-in SHA-2 and
``compare_digest``, which give the same digests.  Library use and
``cli.main`` keep their collector and OpenSSL.
"""

import gc
import sys


def run() -> int:
    # numpy.random imports secrets, which loads hmac, _hashlib and OpenSSL's
    # libcrypto (about 3.3 MB resident) for the one SHA-256 per random
    # stream; blocking _hashlib, as on a Python built without OpenSSL, makes
    # hashlib use its built-in SHA-256, whose digests are the same
    sys.modules.setdefault("_hashlib", None)
    gc.disable()  # before numpy and the layers load
    from .cli import main

    code = main()
    gc.freeze()  # interpreter shutdown then skips sweeping the whole heap
    return code


if __name__ == "__main__":
    sys.exit(run())
