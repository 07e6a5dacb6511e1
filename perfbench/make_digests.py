"""Write digests.json: SHA-256 of every document ``lpmatch reproduce`` writes
and of ``lpmatch sweep``'s stdout, in each format.

    python3 perfbench/make_digests.py

The stored digests are the paper-grid workload's correctness check and the
byte-stability contract of the document set.  Regenerate them only with a
change that means to alter the documents.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import CHILD_ENV, HERE, ROOT

FORMATS = ("md", "csv", "jsonl")


def main() -> None:
    digests = {"reproduce": {}, "sweep": {}}
    for fmt in FORMATS:
        with tempfile.TemporaryDirectory(dir=ROOT) as outdir:
            subprocess.run([sys.executable, "-m", "lpmatch", "reproduce", "--outdir", outdir,
                            "--format", fmt], env=CHILD_ENV, cwd=ROOT, check=True,
                           capture_output=True)
            digests["reproduce"][fmt] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(outdir).iterdir())}
        out = subprocess.run([sys.executable, "-m", "lpmatch", "sweep", "--format", fmt],
                             env=CHILD_ENV, cwd=ROOT, check=True, capture_output=True).stdout
        digests["sweep"][fmt] = hashlib.sha256(out).hexdigest()
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
