"""Byte pins of split search and training outputs.

Each digest below hashes one component of ``_golden.py``: binned rows, S1
prefix tables, ``best_split`` records on every path and trained trees with
their witnesses on every path and layout.  A change meant to keep outputs
byte-identical must leave every pin as it is; a change that moves an output
on purpose re-pins it by hand, with the reason, from the table that
``PYTHONPATH=src python tests/_golden.py`` prints.
"""

import pytest

from _golden import COMPONENTS, digest

PINS = {
    "bin_rows.uint8": "dd187c82ae2dba4664724b2989c209a5",
    "bin_rows.uint16": "0b24a899d2c5f4bc75408c1f053d3641",
    "build_prefix_sums": "d750db0581e9b37fa738101fa1ab2249",
    "windowed_prefix_table": "d750db0581e9b37fa738101fa1ab2249",
    "best_split.small": "2e80e98ffffcffdd8d3235510398722a",
    "best_split.mixed_b": "5290c4e12588ba12b3fbce957d6c7e55",
    "best_split.wide": "f834a23e50b26473b71e7f03b3ab71f7",
    "train.signature": "2a60f1ad0f3a6ede01023b5b884fee4d",
    "train.witness": "b9f41e7c469cf7f536e5fcc8c7d6ec07",
}


def test_every_component_is_pinned():
    assert set(PINS) == set(COMPONENTS)


@pytest.mark.parametrize("component", sorted(PINS))
def test_component_matches_its_pin(component):
    assert digest(component) == PINS[component]
