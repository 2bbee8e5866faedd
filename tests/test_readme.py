"""README's Python examples run as written and print what their comments say,
and its shell commands parse with the command line's own parser."""

import re
import shlex
from pathlib import Path

from protostream import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
# The protostream commands of the sh blocks, continuation lines joined.
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("protostream ")]
# The config file example, which starts with its file name as a comment.
CONFIG_FILE, = re.findall(r"^```\n(# run\.cfg\n.*?)^```", TEXT, re.DOTALL | re.MULTILINE)


def _printed(block: str, capsys) -> list[str]:
    capsys.readouterr()
    exec(compile(block, str(README), "exec"), {})
    return capsys.readouterr().out.split()


def test_readme_has_the_two_examples():
    assert len(BLOCKS) == 2


def test_library_use_example(capsys):
    # A 200,000-step run: the tail hit rate is close to q, the size delta to 0.
    hit_rate, mean_delta = map(float, _printed(BLOCKS[0], capsys))
    assert abs(hit_rate - 0.75) <= 0.01
    assert abs(mean_delta) <= 0.01


def test_step_and_predict_example(capsys):
    assert _printed(BLOCKS[1], capsys) == ["1.0"]


def test_readme_commands_parse(tmp_path, monkeypatch):
    # Parsing builds every run's configuration and stream but runs nothing,
    # so a flag or key the docs name and the parser lacks fails here.
    (tmp_path / "run.cfg").write_text(CONFIG_FILE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert [c.split()[1] for c in COMMANDS] == ["run", "sweep", "verify", "run"]
    for command in COMMANDS:
        argv = shlex.split(command, comments=True)[1:]
        assert cli.parse_config(argv).subcommand == argv[0]
