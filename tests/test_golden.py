"""The cli-mix benchmark's job list as a test: every command-line job of
`perfbench/workloads.py` at seed 0, each checked against its reference and
its `--json` record against `perfbench/golden/cli-mix.json` byte for byte.
The listed seed defects (jobs with `known_wrong` set) run too, but their
answers are not checked: the benchmark reports them apart."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


# the benchmark ignores warnings; some jobs reach the inhomogeneity warning
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_mix_jobs_match_their_references_and_the_golden_records(tmp_path):
    jobs = workloads.build("cli-mix", 0, str(tmp_path), workloads.load_golden())
    problems = []
    for job in jobs:
        _, problem = job.inspect(job.run())
        if problem is not None and job.known_wrong is None:
            problems.append(f"{job.id}: {problem}")
    assert not problems, "\n".join(problems)
