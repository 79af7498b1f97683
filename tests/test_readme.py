"""The README's examples run, and its documented defaults are ``RunConfig()``'s."""

import json
import re
from dataclasses import fields
from pathlib import Path

from propgraph.config import _FILE_KEYS, RunConfig

README = (Path(__file__).parent.parent / "README.md").read_text()


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_library_use_example_runs_and_collects():
    [block] = fenced_blocks("python")
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["result"].collected


def test_documented_defaults_are_the_run_config_defaults():
    # the first JSON block of the CLI section lists every key with its default
    documented = json.loads(fenced_blocks("json")[0])
    defaults = RunConfig()
    assert documented == {_FILE_KEYS.get(f.name, f.name): getattr(defaults, f.name) for f in fields(RunConfig)}
