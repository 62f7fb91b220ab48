"""Rerun the mutation checks committed in tests/mutants.json.

Usage, from the root of a checkout (stdlib only, not part of tier-1):

    python tests/run_mutants.py              # every mutant
    python tests/run_mutants.py filter-b ... # the named mutants

Each entry of mutants.json names a file, an exact old text that must occur
there once, the new text that replaces it, and the test files that must
fail on the result.  An entry with an "equivalent" key records a mutant
that no test can kill, with the reason; it is checked like the others but
never run.  The runner first checks every entry (see entry_problems): a
refactor that moves the code must re-target its mutants, and a stale entry
stops the run before any test runs.  tests/test_mutants.py makes the same
check in tier-1.  The runner then copies src/, tests/ and pyproject.toml
to a temporary directory and runs the listed test files on the clean copy,
which must pass, and on each mutant in turn, which must fail.  Hypothesis
runs with a fixed seed, so a run is repeatable.

Exit status: 0 when the clean copy passes and every mutant is killed,
1 when a mutant survives or errors, 2 when an entry is stale or malformed
or the clean copy fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
TIMEOUT_S = 1800


def pytest(copy: Path, tests) -> tuple[int, str]:
    """Run pytest on the copy; returns its exit code and its last line."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return proc.returncode, lines[-1]


def entry_problems(mutants) -> list[str]:
    """What is wrong with the entries: a repeated id, a new text equal to
    its old text, a listed test file that does not exist, or an old text
    that does not occur exactly once in its file."""
    problems, ids = [], set()
    for m in mutants:
        if m["id"] in ids:
            problems.append(f"{m['id']}: id repeated")
        ids.add(m["id"])
        if m["new"] == m["old"]:
            problems.append(f"{m['id']}: new text equals old text")
        problems += [f"{m['id']}: no test file {t}" for t in m["tests"]
                     if not (ROOT / t).is_file()]
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            problems.append(f"{m['id']}: old text occurs {count} times in {m['file']}")
    return problems


def main(argv) -> int:
    mutants = json.loads(MUTANTS.read_text())
    problems = entry_problems(mutants)
    if problems:
        print("BAD mutant entries; fix them, re-targeting stale texts at the current code:")
        print("\n".join("  " + s for s in problems))
        return 2
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {', '.join(sorted(unknown))}")
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    for m in mutants:
        if "equivalent" in m:
            print(f"{m['id']}: equivalent, not run: {m['equivalent']}")
    mutants = [m for m in mutants if "equivalent" not in m]
    copy = Path(tempfile.mkdtemp(prefix="ofdmse-mutants-"))
    try:
        shutil.copytree(ROOT / "src", copy / "src")
        shutil.copytree(ROOT / "tests", copy / "tests")
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({t for m in mutants for t in m["tests"]})
        code, last = pytest(copy, tests)
        print(f"clean: {last}")
        if code != 0:
            print("the clean copy fails its tests; no mutant was run")
            return 2
        bad = 0
        for m in mutants:
            path = copy / m["file"]
            text = path.read_text()
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                code, last = pytest(copy, m["tests"])
            finally:
                path.write_text(text)
            # exit code 1 is a test failure; anything else is a broken run
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            bad += verdict != "killed"
            print(f"{m['id']}: {verdict}: {last}")
        print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
        return 1 if bad else 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
