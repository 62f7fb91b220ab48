"""Mutation gate entries: every entry of tests/mutants.json still applies to
the code, so a refactor that strands a mutant fails here and not only in
the slow tests/run_mutants.py run."""

import json

from run_mutants import MUTANTS, entry_problems


def test_every_mutant_entry_applies_to_the_code():
    assert entry_problems(json.loads(MUTANTS.read_text())) == []


def test_entry_problems_names_each_fault(tmp_path):
    code, test = tmp_path / "code.py", tmp_path / "test_code.py"
    code.write_text("x = 1\ny = 2\ny = 2\n")
    test.write_text("")
    good = {"id": "a", "file": str(code), "old": "x = 1", "new": "x = 0",
            "tests": [str(test)]}
    assert entry_problems([good]) == []
    cases = [
        ([good, good], "a: id repeated"),
        ([{**good, "new": "x = 1"}], "a: new text equals old text"),
        ([{**good, "tests": [str(code) + "x"]}], f"a: no test file {code}x"),
        ([{**good, "old": "z = 3"}], f"a: old text occurs 0 times in {code}"),
        ([{**good, "old": "y = 2"}], f"a: old text occurs 2 times in {code}"),
    ]
    for mutants, problem in cases:
        assert entry_problems(mutants) == [problem]
