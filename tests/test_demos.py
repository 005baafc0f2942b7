"""Every demo, and the README's library example, runs to completion against
the current package; the README's CLI commands parse."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dpsynth import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def _run(argv, cwd, bin_dir=None):
    """Run argv with this tree's package importable and bin_dir, if given, first on PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_the_five_python_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    done = _run([sys.executable, str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_cli_pipeline_demo_exits_zero(tmp_path):
    # the script calls the installed `dpsynth`; a shim on PATH runs this tree's package
    shims = tmp_path / "bin"
    shims.mkdir()
    shim = shims / "dpsynth"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m dpsynth.cli "$@"\n')
    shim.chmod(0o755)
    done = _run(["bash", str(ROOT / "demos" / "06_cli_pipeline.sh")], tmp_path, bin_dir=shims)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_example_exits_zero(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Quick start (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "training.train(" in code
    done = _run([sys.executable, "-c", code], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_cli_commands_parse():
    section = (ROOT / "README.md").read_text().split("\n## Quick start (CLI)\n", 1)[1]
    block = section.split("```\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert {argv[1] for argv in commands} == {
        "simulate", "train", "generate", "evaluate", "account", "benchmark"
    }
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "dpsynth"
        assert parser.parse_args(argv[1:]).command == argv[1]
