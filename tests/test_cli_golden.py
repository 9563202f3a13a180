"""Seeded CLI output pinned byte for byte.

Every seeded subcommand below must keep printing exactly these bytes; a
refactor that changes an RNG draw order, a PVM key order or the transcript
JSON codec shows up here first. The `simulate --log` files are pinned by
sha256, which covers the codec of all four game variants. The audit's worst
margins are compared to a relative 1e-9, because BLAS rounding may differ
between machines; its counts are exact. The absolute 1e-13 covers the margins
that are pure rounding noise, within about 1e-15 of zero: commuting,
edge-coloring, edge-to-bcs-floor, observable and tracial. The gadget margin
is rounding noise too, from an exactly honest sample: each eps there is a sum
of squared rounding-size amplitudes, about 1e-30, and the budget sums square
roots of them to about 1e-12.
"""

import hashlib
import json

import pytest

from colorproof.cli import main

_WILSON_2000 = "[0.9980829527187469,1.0]"

SIMULATE = {
    ("alt-rzkp", "honest"): "5f54e685367e1d67c86286e279dd55fe3a86c60a4736487b32d909076a6fcbd8",
    ("alt-rzkp", "fixed"): "348f6c402a060f0ae9c71b84fecad151e478d3a35aa606e69452e4dfc87c5203",
    ("alt-edge", "honest"): "dfeacb7297dfa32b4dbad549cda6c8d0f3837c48133e28de03e2f1e1532aff48",
    ("alt-edge", "fixed"): "b31935fb48ab30d110313c53b751952d7673a002383a925f4cdc1415908bc447",
    ("bcs", "honest"): "88f54952513f5d044491a5bb51097a17e70cefa6d42c4dd7f46832533d214879",
    ("bcs", "fixed"): "49ba1800b04dbf37e8d09e4128e8c7320168b57770e3206f66a607d1d46fa726",
    ("vertex", "honest"): "fd68982d8dc750b35defa8be5eb5d86129bfcd581d93b4456894eb716126596d",
    ("vertex", "fixed"): "a56d90a854008447165ca292de1b6d62286ba478ea48bb610f0af238b5f7df7c",
}

ZK_TEST = (
    '{"config":{"rounds":20000,"seed":0},"control_support":9,"control_tv":0.8333333333333337,'
    '"honest_tv":{"0,1":0.04002389486260456,"0,2":0.03455118350614375,"1,2":0.035023041474654376}}\n'
)

BOUNDS = (
    '{"config":{"edges":380,"k":100.0,"max_deg":4,"nodes":200,"variant":"appendix"},'
    '"log10_one_minus_omega_q":-38.9315942929653,"log10_rounds":40.9315942929653,"m_ext":176060,'
    '"n_ext":78280,"one_minus_omega_q":1.1705924185386418e-39,"rounds":"8.54e40"}\n'
)

# the other rows of the round-count table, and all three under the main-statement constants
BOUNDS_ROWS = {
    ("appendix", 600, 1122): (
        '{"config":{"edges":1122,"k":100.0,"max_deg":4,"nodes":600,"variant":"appendix"},'
        '"log10_one_minus_omega_q":-42.77430685123414,"log10_rounds":44.77430685123414,"m_ext":1608324,'
        '"n_ext":714912,"one_minus_omega_q":1.6814855858082471e-43,"rounds":"5.95e44"}\n'
    ),
    ("appendix", 900, 1695): (
        '{"config":{"edges":1695,"k":100.0,"max_deg":4,"nodes":900,"variant":"appendix"},'
        '"log10_one_minus_omega_q":-44.187214217359475,"log10_rounds":46.187214217359475,"m_ext":3627390,'
        '"n_ext":1612320,"one_minus_omega_q":6.498090905437819e-45,"rounds":"1.54e46"}\n'
    ),
    ("main", 200, 380): (
        '{"config":{"edges":380,"k":100.0,"max_deg":4,"nodes":200,"variant":"main"},'
        '"log10_one_minus_omega_q":-51.55799520386357,"log10_rounds":53.55799520386357,"m_ext":176060,'
        '"n_ext":78280,"one_minus_omega_q":2.7669722023341755e-52,"rounds":"3.61e53"}\n'
    ),
    ("main", 600, 1122): (
        '{"config":{"edges":1122,"k":100.0,"max_deg":4,"nodes":600,"variant":"main"},'
        '"log10_one_minus_omega_q":-57.28155502562506,"log10_rounds":59.28155502562506,"m_ext":1608324,'
        '"n_ext":714912,"one_minus_omega_q":5.2293170591833056e-58,"rounds":"1.91e59"}\n'
    ),
    ("main", 900, 1695): (
        '{"config":{"edges":1695,"k":100.0,"max_deg":4,"nodes":900,"variant":"main"},'
        '"log10_one_minus_omega_q":-59.41116796779314,"log10_rounds":61.41116796779314,"m_ext":3627390,'
        '"n_ext":1612320,"one_minus_omega_q":3.88000273928766e-60,"rounds":"2.58e61"}\n'
    ),
}

AUDIT_CHECKS = {
    "commuting": 504, "edge-coloring": 168, "edge-to-bcs-floor": 8, "eps-aggregate-identity": 8, "gadget": 36,
    "gentle-measurement": 5, "normal-frobenius": 8, "observable": 336, "pinching-chain": 8, "tracial": 336,
    "tracial-commutator": 8, "tracial-transpose": 8,
}
AUDIT_WORST_MARGIN = {
    "commuting": -7.363949277951128e-16,
    "edge-coloring": -1.6983898115760933e-16,
    "edge-to-bcs-floor": -3.3306690738754696e-16,
    "eps-aggregate-identity": 9.999998334665464e-10,
    "gadget": 9.262556771817972e-13,
    "gentle-measurement": 2.107342433887993e-08,
    "normal-frobenius": 1.0097060178058543,
    "observable": -3.219646771412954e-15,
    "pinching-chain": 0.09775155134077174,
    "tracial": -9.854530534584685e-16,
    "tracial-commutator": 0.18535440063612874,
    "tracial-transpose": 0.021740378880568567,
}


def run_json(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind,strategy", sorted(SIMULATE))
def test_simulate_golden(capsys, tmp_path, kind, strategy):
    log = tmp_path / "log.jsonl"
    out = run_json(capsys, ["simulate", "--kind", kind, "--strategy", strategy, "--rounds", "2000",
                            "--seed", "3", "--log", str(log), "--json"])
    assert out == (
        f'{{"accepts":2000,"config":{{"kind":"{kind}","mix":0.5,"rounds":2000,"seed":3,'
        f'"strategy":"{strategy}"}},"wilson_95":{_WILSON_2000},"win_rate":1.0}}\n'
    )
    assert hashlib.sha256(log.read_bytes()).hexdigest() == SIMULATE[(kind, strategy)]


def test_zk_test_golden(capsys):
    assert run_json(capsys, ["zk-test", "--rounds", "20000", "--json"]) == ZK_TEST


def test_bounds_golden(capsys):
    assert run_json(capsys, ["bounds", "--nodes", "200", "--edges", "380", "--max-deg", "4", "--json"]) == BOUNDS


@pytest.mark.parametrize("variant,n,m", sorted(BOUNDS_ROWS))
def test_bounds_rows_golden(capsys, variant, n, m):
    argv = ["bounds", "--nodes", str(n), "--edges", str(m), "--max-deg", "4", "--variant", variant, "--json"]
    assert run_json(capsys, argv) == BOUNDS_ROWS[(variant, n, m)]


def test_audit_quantum_golden(capsys):
    doc = json.loads(run_json(capsys, ["audit-quantum", "--samples", "8", "--json"]))
    assert doc["config"] == {"dims": 3, "samples": 8, "seed": 0}
    assert doc["clean"] is True
    assert doc["strategies"] == 13
    assert doc["checks"] == AUDIT_CHECKS
    assert doc["violations"] == {}
    assert doc["worst_margin"] == pytest.approx(AUDIT_WORST_MARGIN, rel=1e-9, abs=1e-13)
