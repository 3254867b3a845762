"""README's Python examples run as written."""

import re
from pathlib import Path

from crqiv.data import save_csv
from crqiv.simulate import DgpSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    # one namespace, as a reader would type them in turn; records.csv is the file the load example reads
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 5
    save_csv(generate(DgpSpec(design=2, n=2_000, seed=0))[0], tmp_path / "records.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["data"].n == 2_000
    assert capsys.readouterr().out
