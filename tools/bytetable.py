"""Byte table: run every command of bytetable.json and compare the sha256 of
its stdout and of each file it writes with the digests recorded there.

    python tools/bytetable.py

Each command runs as `python -m apucosim.cli <command>` in a fresh process,
from a scratch directory that holds the table's scenario documents under
their names, with this checkout's src/ first on PYTHONPATH and
APU_COSIM_THREADS=2. A genrun, joint or transient run that writes files
(every one but a joint --runs batch) gets an empty --out directory. The
table runs once unpinned and, where taskset exists, once more under
`taskset -c 0`. Exits 0 when every command matches in every pass, else 1,
listing each mismatch with the outputs that differ.

The digests were recorded with numpy 2.4.6 on OpenBLAS; another numpy or
BLAS build may move the last bits of a CSV.
"""
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WRITERS = ("genrun", "joint", "transient")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, documents: dict, prefix: list) -> dict:
    """{"stdout": digest, file name: digest, ...} of one command run."""
    args = shlex.split(command)
    with tempfile.TemporaryDirectory() as work:
        for name, doc in documents.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = os.path.join(work, "out")
        if args[0] in WRITERS and "--runs" not in args:
            args += ["--out", out]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, APU_COSIM_THREADS="2",
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        proc = subprocess.run([*prefix, sys.executable, "-m", "apucosim.cli", *args],
                              cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        got = {"stdout": _sha256(proc.stdout)}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    got[name] = _sha256(fh.read())
    return got


def main() -> int:
    with open(os.path.join(HERE, "bytetable.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    passes = [("unpinned", [])]
    if shutil.which("taskset"):
        passes.append(("taskset -c 0", ["taskset", "-c", "0"]))
    mismatches = []
    for label, prefix in passes:
        same = 0
        for command, want in table["digests"].items():
            got = run_command(command, table["documents"], prefix)
            if got == want:
                same += 1
            else:
                differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
                mismatches.append(f"{label}: {command}: {', '.join(differ)}")
        print(f"{label}: {same} of {len(table['digests'])} commands match")
    for line in mismatches:
        print(f"mismatch: {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
