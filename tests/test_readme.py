"""README's end-to-end example runs as written, so it cannot drift from the CLI."""

import re
import shlex
from pathlib import Path

from seqpost.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _example_block() -> str:
    text = README.read_text()
    start = text.index("End-to-end example")
    return re.search(r"```sh\n(.*?)```", text[start:], re.S).group(1)


def test_readme_end_to_end_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)^EOF\n(.*)", _example_block(), re.S | re.M)
    assert heredoc, "the example writes its synth config with a heredoc"
    (tmp_path / heredoc.group(1)).write_text(heredoc.group(2))
    commands = heredoc.group(3).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in commands if line.strip()]
    assert commands and all(argv[0] == "seqpost" for argv in commands)
    for argv in commands:
        assert main(argv[1:] + ["--quiet"]) == 0, argv
        first_output = next(argv[i + 1] for i, arg in enumerate(argv) if arg.startswith("--out"))
        assert (tmp_path / f"{first_output}.manifest.json").is_file(), argv
