"""The README's config and library examples run as written."""

import re
from pathlib import Path

from pdebayes.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(lang: str) -> str:
    """The one ```lang block of the README."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one ```{lang} block, found {len(blocks)}"
    return blocks[0]


def test_example_config_parses():
    cfg = parse_config(fenced_block("ini"))
    assert cfg.mesh_n == 32 and cfg.mcmc_method == "h-pcn"


def test_library_example_runs():
    namespace = {}
    exec(compile(fenced_block("python"), "README.md", "exec"), namespace)
    rates = namespace["record"].acceptance_rates()
    assert rates.shape == (1,)
    assert 0 < rates[0] < 1
