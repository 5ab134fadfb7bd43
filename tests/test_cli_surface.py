"""The text layout of the ``darkres`` outputs, as written by
``tests/data/make_cli_surface.py``: metadata lines (timestamp masked),
header, failure lines and row count, compared exactly."""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA))
from make_cli_surface import surface  # noqa: E402
from test_cli import PUMPED_CONFIG  # noqa: E402

SURFACE = json.loads((DATA / "cli_surface.json").read_text(encoding="utf-8"))


def test_config_is_the_pumped_config():
    assert SURFACE["config"] == PUMPED_CONFIG


@pytest.mark.parametrize("case", SURFACE["cases"], ids=lambda c: " ".join(c["args"]))
def test_output_layout(case):
    assert surface(case["args"], SURFACE["config"]) == case
