"""Byte-for-byte golden output of the network generators.

Every family is emitted as JSON, as DOT and as the JSON of its mirror, at
depths 1-3 with and without the top node; at depths 1-2 it is also emitted
with bases attached for V=S, Vl=LNB, Vr=RNB.  The SHA-256 of each output is
compared against ``tests/golden/networks.json``.  A refactor of the word
algebra or the generators must leave every digest unchanged.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from crvar import networks as nw
from crvar import varieties as va

GOLDEN = pathlib.Path(__file__).with_name("golden") / "networks.json"

FAMILIES = {
    "4.2": lambda d, top: nw.gen_K_network(d, top),
    "4.3": lambda d, top: nw.gen_T_network(d, top),
    "4.3-collapse1": lambda d, top: nw.gen_T_network(d, top, collapse=(1,)),
    "4.5": lambda d, top: nw.gen_combined(d, top),
    "5.1": lambda d, top: nw.gen_ladder51(d, top),
    "6.1-default": lambda d, top: nw.gen_ladder61(d, use_default_upper=True, with_top=top),
    "6.1-side": lambda d, top: nw.gen_ladder61(
        d, side_conditions=nw.REQUIRED_SIDE_CONDITIONS, with_top=top
    ),
}


def _bindings():
    return {
        "V": va.catalog_basis("S"),
        "Vl": va.catalog_basis("LNB"),
        "Vr": va.catalog_basis("RNB"),
    }


def outputs():
    """Case name -> emitted text, in a fixed order."""
    out = {}
    bindings = _bindings()
    for family, gen in FAMILIES.items():
        for depth in (1, 2, 3):
            for top in (False, True):
                net = gen(depth, top)
                key = f"{family}/d{depth}/top{int(top)}"
                out[f"{key}/json"] = nw.emit_json(net)
                out[f"{key}/dot"] = nw.emit_dot(net)
                out[f"{key}/mirror-json"] = nw.emit_json(nw.mirror_network(net))
                if depth <= 2:
                    bases = nw.instantiate(net, bindings)
                    out[f"{key}/bound-json"] = nw.emit_json(net, bases)
                    out[f"{key}/bound-dot"] = nw.emit_dot(net, bases)
    return out


def digests():
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs().items()}


@pytest.fixture(scope="module")
def computed():
    return outputs()


def test_golden_digests(computed):
    recorded = json.loads(GOLDEN.read_text())
    got = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in computed.items()}
    assert sorted(got) == sorted(recorded)
    changed = [k for k in recorded if got[k] != recorded[k]]
    assert changed == []


def test_load_json_round_trip(computed):
    # bases are output-only, so only the unbound emissions round-trip
    for key, text in computed.items():
        if key.endswith(("/json", "/mirror-json")):
            assert nw.emit_json(nw.load_json(text)) == text, key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
