"""The document set, byte for byte.

``perfbench/digests.json`` holds the SHA-256 of every document that
``lpmatch reproduce`` writes and of ``lpmatch sweep``'s stdout, in each
format.  These tests only read it; it changes only with a change that means
to alter the documents.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lpmatch.cli import run
from lpmatch import write_document_set

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text(encoding="utf-8")
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ["md", "csv", "jsonl"])
def test_reproduce_documents_match_the_digests(tmp_path, fmt):
    written = write_document_set(tmp_path, fmt)
    assert [p.name for p in written] == sorted(DIGESTS["reproduce"][fmt])
    assert {p.name: sha256(p.read_bytes()) for p in written} == DIGESTS["reproduce"][fmt]


@pytest.mark.parametrize("fmt", ["md", "csv", "jsonl"])
def test_sweep_stdout_matches_the_digest(capsys, fmt):
    assert run(["sweep", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode("utf-8")) == DIGESTS["sweep"][fmt]
