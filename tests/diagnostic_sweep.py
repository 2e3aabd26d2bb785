"""The full diagnostic sweep: every mutant of every document the diagnostic
goldens draw at no seed.

The diagnostic goldens (`goldens.py`) digest a seeded sample of 96 mutants
per document.  This script makes all of them for `goldens.fixed_documents`
(each corpus `.cm` and `.ce` file, each query line of the `.cq` files, and
the lists that assign a variable twice): each document cut before every
token, with every token deleted, and with every token replaced by each
lexer piece (`goldens.mutant`).  It prints one digest over every (document
id, token, edit, outcome), an outcome as `goldens._outcome` gives it, and
the number of outcomes.  It takes over a minute, so it is not part of the
test suite: run it before and after a change that must leave every
diagnostic and printed result as it was, and compare the two lines.

    PYTHONPATH=src python tests/diagnostic_sweep.py
"""

from __future__ import annotations

import hashlib
import json
import sys

from goldens import EDITS, _outcome, fixed_documents, mutant, token_spans


def sweep() -> tuple[str, int]:
    """The digest of every fixed document's mutants' outcomes, and their number."""
    digest = hashlib.sha256()
    count = 0
    for doc_id, kind, text in fixed_documents():
        spans = token_spans(text)
        for at, span in enumerate(spans):
            for edit in range(EDITS):
                outcome = [doc_id, at, edit, _outcome(kind, mutant(text, span, edit))]
                digest.update(json.dumps(outcome).encode())
                digest.update(b"\n")
                count += 1
    return digest.hexdigest()[:16], count


def main() -> int:
    digest, count = sweep()
    print(f"{digest} {count} outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
