"""The harness of the CI byte censuses: what `cli_digest` hashes, and
that the workflow runs each census once.  No census is run here."""

import collections
import hashlib
import json
import pathlib
import re

import census

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_cli_digest_hashes_exit_codes_stdout_and_stderr_when_asked(tmp_path):
    chain, cycle = tmp_path / "chain.json", tmp_path / "cycle.json"
    chain.write_text(json.dumps({"elements": ["a", "b"], "relations": [["a", "b"]]}))
    cycle.write_text(json.dumps({"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}))
    cases = [["validate", str(chain)], ["validate", str(cycle)]]
    out = b"2 elements, 1 cover relations, longest chain 2\n"
    err = b"error: antisymmetry violated by 'a' and 'b' (relation cycle)\n"
    plain = hashlib.sha256(b"0\n" + out + b"2\n").hexdigest()
    with_stderr = hashlib.sha256(b"0\n" + out + b"2\n" + err).hexdigest()
    assert census.cli_digest(iter(cases)) == (2, plain)
    assert census.cli_digest(cases, stderr=True) == (2, with_stderr)


def _census_calls():
    """(step name, the line, its arguments) of each census.py call in the workflow."""
    calls, step = [], None
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        named = re.match(r"\s+- name: (.*)", line)
        if named:
            step = named.group(1)
        call = re.search(r'(?:census\.py"?|"\$CENSUS")\s+([^>]*)', line)
        if call:
            calls.append((step, line, call.group(1).split()))
    return calls


def test_the_workflow_runs_every_census_in_one_step_of_its_own():
    steps = collections.Counter()
    for step, line, args in _census_calls():
        if args[:1] in (["--documents"], ["--diagram-documents"], ["--bounded"]):
            continue
        assert args and set(args) <= set(census.CENSUSES), line
        assert "-X dev -W error" in line, line
        steps.update((name, step) for name in args)
    assert sorted(name for name, _ in steps) == sorted(census.CENSUSES)
    assert set(steps.values()) == {1}
