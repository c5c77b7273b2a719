"""chainlab's runtime is stdlib-only and starts cheaply: importing the CLI
loads nothing beyond the standard library, and not the costly dataclasses
and inspect modules."""

import os
import subprocess
import sys
from pathlib import Path


def _loaded_modules(code: str) -> set:
    """Modules loaded after running code in a fresh interpreter that sees src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_only_the_stdlib():
    loaded = _loaded_modules("import chainlab.cli")
    extra = loaded - _loaded_modules("")
    outside = {m for m in extra if m.split(".")[0] not in sys.stdlib_module_names
               and m != "chainlab" and not m.startswith("chainlab.")}
    assert "chainlab.cli" in extra and not outside
    assert not loaded & {"dataclasses", "inspect"}  # each costs milliseconds at every start


def test_a_plain_call_parses_without_loading_locale():
    # argparse's first message lookup imports locale; a call the option table
    # reads builds no parser, so it never looks one up
    loaded = _loaded_modules(
        "import contextlib, io\nfrom chainlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['hh', '--preset', 'rationals', '-D', '2', '--format', 'json']) == 0")
    assert "chainlab.cli" in loaded and "locale" not in loaded
