"""README's Python examples run as written and print what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


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
