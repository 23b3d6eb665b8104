"""Golden CLI outputs: every command on both shipped configs in both formats.

Each output's sha256 is compared with the digests in `cli_golden.json`, so
any byte change in what `dppln` writes for `configs/` fails here.  Regenerate
the digests only when the output changes on purpose, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dppln.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("cli_golden.json")
COMMANDS = ("index", "design", "sweep", "spectrum", "poling")
CONFIGS = ("type0_w10.yaml", "type2_w6p5.yaml")
FORMATS = ("text", "records")
CASES = [(c, f, m) for c in COMMANDS for f in CONFIGS for m in FORMATS]


def _key(command, config, fmt):
    return f"{command} {config} {fmt}"


def _digest(command, config, fmt, out):
    code = main([command, "--config", str(ROOT / "configs" / config),
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("command,config,fmt", CASES)
def test_cli_output_matches_golden(golden, tmp_path, command, config, fmt):
    assert _digest(command, config, fmt, tmp_path / "out") == golden[_key(command, config, fmt)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        digests = {_key(*case): _digest(*case, out) for case in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
