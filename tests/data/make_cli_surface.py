"""Write ``cli_surface.json``: the text layout of the ``darkres`` outputs
that ``tests/test_cli_surface.py`` checks every later version against.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cli_surface.py

Each case runs one subcommand through ``cli.main`` on the pumped config of
``tests/test_cli.py`` and records its exit code, its '#' metadata lines
(the timestamp masked), its header, its '# failed:' lines and its row
count.  The values in the rows are not recorded: ``tests/test_golden.py``
checks the numbers at stated tolerances, this file checks the layout
exactly (config keys, their order and the ``repr`` of every value).
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

from darkres.cli import main

HERE = Path(__file__).resolve().parent
SURFACE = HERE / "cli_surface.json"

sys.path.insert(0, str(HERE.parent))
from test_cli import PUMPED_CONFIG  # noqa: E402

CASES = [
    ["zero"],
    ["threshold"],
    ["dressed"],
    ["compare", "--method", "analytic-pump"],
    ["sweep", "--set", "points=5"],
    # a sweep that starts below the gain onset logs '# failed:' lines
    [
        "sweep", "--set", "axis=LAMBDA", "--set", "start=0", "--set", "stop=1e-4",
        "--set", "points=5", "--set", "outputs=DELTA0,POPULATIONS",
    ],
]

TIMESTAMP = "# timestamp = "


def surface(args: list[str], config: str) -> dict:
    """Exit code and text layout of ``darkres <args> --config <config>``."""
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "pumped.cfg"
        path.write_text(config, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out):
            code = main([*args, "--config", str(path)], stderr=err)
    lines = out.getvalue().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return {
        "args": args,
        "exit": code,
        "metadata": [
            TIMESTAMP + "<masked>" if line.startswith(TIMESTAMP) else line
            for line in comments
            if not line.startswith("# failed:")
        ],
        "failed": [line for line in comments if line.startswith("# failed:")],
        "header": body[0] if body else None,
        "rows": max(len(body) - 1, 0),
    }


def generate() -> dict:
    return {"config": PUMPED_CONFIG, "cases": [surface(args, PUMPED_CONFIG) for args in CASES]}


if __name__ == "__main__":
    SURFACE.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {SURFACE}")
