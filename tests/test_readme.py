"""The README's Library and Command line examples run against the current code."""

import re
import shlex
from pathlib import Path

import cmc_annuli
from cmc_annuli.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_example_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_prose_names_are_public():
    """Every backticked CamelCase name in the prose outside the code blocks is public."""
    prose = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    names = {m.group() for span in spans if (m := re.match(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+", span))}
    assert "HeightProfile" in names
    assert sorted(names - set(cmc_annuli.__all__)) == []


def test_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for block in _blocks("sh") for line in block.splitlines()
                if line.startswith("cmc-annuli ")]
    assert len(commands) >= 5
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv


def test_public_names_are_listed():
    """Every name of ``cmc_annuli.__all__`` is listed in the README's "Public names" section."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Public names\n(.*?)^## ", text, re.M | re.S).group(1)
    listed = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert sorted(set(cmc_annuli.__all__) - listed) == []
