"""The package as a user meets it: the README's Library-use example, and the
CLI in fresh interpreters. CI runs this file against the installed package
as well as against ``src/``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import memaug

from synthetic import build_qa_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})


@pytest.mark.parametrize("mode", ["embedding", "attribute"])
def test_qa_reports_do_not_depend_on_the_str_hash_seed(tmp_path, mode):
    data, rules = build_qa_fixture(n_turns=20, n_sessions=4)
    (tmp_path / "qa.json").write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "rules.json").write_text(
        json.dumps({"rules": {token: list(pair) for token, pair in rules.items()}}), encoding="utf-8"
    )
    # The child imports the memaug this process imported, whatever the cwd.
    package_parent = str(Path(memaug.__file__).resolve().parents[1])
    reports = {}
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
        out_dir = tmp_path / f"reports_{hash_seed}"
        done = subprocess.run(
            [sys.executable, "-m", "memaug.cli", "eval", "--task", "qa", "--dataset", "qa.json",
             "--mock-rules", "rules.json", "--mode", mode, "--out-dir", str(out_dir), "--no-timestamp"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        reports[hash_seed] = {name: (out_dir / name).read_bytes() for name in ("qa.json", "qa_report.txt")}
    assert reports["1"] == reports["2"]
