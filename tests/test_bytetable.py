"""The byte table that tools/bytetable.py runs stays runnable: every command
parses, names only documents of the table, and every document is a scenario
the runs accept, but ESC, whose name the runs refuse by design."""
import json
import shlex
from pathlib import Path

import pytest

from apucosim import cli
from apucosim.scenario import SchemaError, parse_scenario

TABLE = json.loads((Path(__file__).resolve().parents[1] / "tools" / "bytetable.json")
                   .read_text(encoding="utf-8"))


def test_every_command_of_the_byte_table_parses():
    assert len(TABLE["digests"]) == 55
    for command in TABLE["digests"]:
        args = cli.build_parser().parse_args(shlex.split(command))
        assert getattr(args, "scenario", None) in (None, *TABLE["documents"]), command


def test_every_document_of_the_byte_table_parses_but_the_refused_name():
    assert len(TABLE["documents"]) == 23
    for name, doc in TABLE["documents"].items():
        if name == "ESC":
            with pytest.raises(SchemaError, match="at name"):
                parse_scenario(json.dumps(doc))
        else:
            parse_scenario(json.dumps(doc))
