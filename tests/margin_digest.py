"""Digest of classify and margin_search over seeded signatures.

Run from the repository root, once per version of the package to compare:

    PYTHONPATH=src python3 tests/margin_digest.py [--lines]

It takes the distinct draws of ``seeded_signatures(1500, s)`` for
s = 3, 5, 7 (non-negative signatures of arity 3-6, see
tests/test_classify.py), classifies each and runs ``margin_search`` on
it, and prints the number of draws and one sha256 digest of every
outcome's repr (or classify's refusal): tag and parameters, matrix entries, reversal flag,
certificate and source.  Floats print as their shortest round-trip
repr, so equal digests mean bit-identical outcomes.  ``--lines`` also
prints one line per draw, for diffing two versions.  Not collected by
pytest: the file name does not start with ``test_``.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_classify import seeded_signatures  # noqa: E402

from holant.classify import classify  # noqa: E402
from holant.errors import HolantError  # noqa: E402
from holant.signatures import signature  # noqa: E402
from holant.transform import margin_search  # noqa: E402


def draws() -> list:
    seen = {}
    for seed in (3, 5, 7):
        for vals in seeded_signatures(1500, seed):
            seen.setdefault(tuple(vals), None)
    return list(seen)


def main(argv) -> None:
    digest = hashlib.sha256()
    found = 0
    vals_list = draws()
    for vals in vals_list:
        f = signature(list(vals))
        searched = margin_search(f)
        found += searched is not None
        try:
            outcome = classify(f)
        except HolantError as exc:  # a refusal is an outcome too
            outcome = exc
        line = f"{vals!r} | {outcome!r} | {searched!r}"
        digest.update(line.encode() + b"\n")
        if "--lines" in argv:
            print(line)
    print(f"draws {len(vals_list)}, margin_search found {found}, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
