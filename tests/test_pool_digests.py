"""Pins one SHA-256 per fixture pool over every candidate's result and report.

A pool is 5,000 seeds of a generation config on a fixture challenge. Its
rows digest covers the per-seed rows in ``solver_counters.json``'s format
(outcome, min taps, witness, error count, states), one JSON line per seed;
its report digest covers ``render_report`` of ``search_mechanics`` over the
same seeds. The row goldens (``test_solver_golden.py``) say which seed
moved; these say that no seed of a larger pool did. ``clearable.ch`` is the
one pool with a CLEARED goal.

Regenerate (only from a commit whose outputs are known to be right), then
paste the printed table over ``DIGESTS``:

    PYTHONPATH=src python tests/test_pool_digests.py
"""

import hashlib
import json

import pytest

from mechgen.evaluate import render_report, search_mechanics
from mechgen.synthesis import config_with_seed
from test_solver_golden import candidate_rows, case_inputs

SEEDS = 5000
# (config, challenge): (rows digest, report digest)
DIGESTS = {
    ('default.cfg', 'unsolvable.ch'): ('da21df955ba783fbc0942778589fcb0535badcefd200a2c4c1b0c31a734b8e92', '4bbcdb91c6d992c5a8a6fe6b859f0328a6b42d679ec1782bd26a5b567f59aeb6'),
    ('search.cfg', 'unsolvable.ch'): ('4c64b8cb10eeb00f9f89562079cca1dc40427ef8adc1a30137c7dcdac32f190a', 'dc36fb54baef017109ef6f6c0f57af98363802d8210411ef6a21a255ade01ccd'),
    ('default.cfg', 'clear_red.ch'): ('23de337ad316e07d5924cc4a830a764e8bf2349bfe1a3b46e4a389426f4758ae', '193a6a9e8f7cd27b1d9e7276814d68d092f1fffd0b974f61d64ac8c099178b52'),
    ('search.cfg', 'clear_red.ch'): ('e0f4be0b4bb810fa17155d2b30d25b516f023ed42d232ec4689b715b10fa8199', 'dad270d5ea2399f5bef5627098aad100faefc9951d2aa348a7902d3a3ead6d73'),
    ('default.cfg', 'clearable.ch'): ('02c079f0d682daa0093703cd8277dcdc1ba38dcef02bda2b190d75ef3dc71a68', '99be0ca27e5a51066f17baa69614ef11624c26bb6a416eeb3e60062fa5b24c13'),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_digests(config_name: str, challenge_name: str):
    """(rows digest, report digest) of one pool."""
    rows = candidate_rows(config_name, challenge_name, range(SEEDS))
    config, challenge, registry, sig = case_inputs(config_name, challenge_name)
    report = search_mechanics(sig, registry, challenge, config_with_seed(config, 0), SEEDS)
    return (sha256("\n".join(json.dumps(row) for row in rows)),
            sha256(render_report(report, f"fixtures/{challenge_name}")))


@pytest.mark.parametrize("pool", sorted(DIGESTS))
def test_pool_digests_match(pool):
    assert pool_digests(*pool) == DIGESTS[pool]


if __name__ == "__main__":
    for cfg, ch in [(cfg, ch) for ch in ("unsolvable.ch", "clear_red.ch")
                    for cfg in ("default.cfg", "search.cfg")] + [("default.cfg", "clearable.ch")]:
        print(f"    {(cfg, ch)!r}: {pool_digests(cfg, ch)!r},")
