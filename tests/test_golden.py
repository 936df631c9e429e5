"""The shipped configs' reports and three n-gram fits, pinned.

``tests/golden/<name>.json`` holds the report that ``wfa-hedge run
--config configs/<name>.json`` wrote before the best-path sweeps were
rebuilt on the cached level plan.  A replay must give the same
sequences, verdicts, masks, samples and counts exactly, and the same
floats within 1e-12 relative: ``np.exp`` may differ in the last bit
between CPUs.  A change that moves a report on purpose rewrites its
fixture and says so.

``tests/golden/fits/<name>.json`` holds the model that ``wfa-hedge
approximate`` wrote for the 4-expert, 3-shift machine at T = 30 before
n-gram models became one probability array (x86_64, numpy 2.4); a
replay must match it byte for byte.  The ML fit's fixture was rewritten
once, when its posteriors moved from a log-domain sweep to the engine's
scaled forward-backward sweep: 16 of its 20 weights moved by at most 5
ulps, toward the ``fixed_share_bigram(4, 3, 30)`` closed form (largest
distance 4 ulps before, 2 after; summed, 44 before and 10 after).
"""

import json
import math
from pathlib import Path

import pytest

from wfa_hedge.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def mismatches(got, want, where="report"):
    """Where ``got`` departs from ``want``: floats beyond 1e-12
    relative, anything else by type or value."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= 1e-12 * max(abs(got), abs(want)):
            return []
        if math.isnan(got) and math.isnan(want):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_every_config_has_a_fixture():
    assert CONFIGS
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [p.name for p in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_report_matches_fixture(config, tmp_path):
    out = tmp_path / "report.json"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / config.name).read_text())
    assert mismatches(got, want) == []


def test_mismatches_sees_a_last_digit_only_within_tolerance():
    assert mismatches({"x": [1.0, "ab", 3]}, {"x": [1.0 + 2e-16, "ab", 3]}) == []
    assert mismatches({"x": 1.0}, {"x": 1.0 + 1e-9}) != []
    assert mismatches({"x": 3}, {"x": 3.0}) != []
    assert mismatches({"x": ["ab"]}, {"x": ["ac"]}) != []


FITS = {
    "ml_ngram_order2": ["--kind", "ml-ngram", "--order", "2"],
    "model_select": ["--kind", "model-select", "--iters", "50", "--budget", "4096"],
    "prod_eg_order2": ["--kind", "prod-eg", "--order", "2", "--iters", "50"],
}


def test_every_fit_has_a_fixture():
    assert sorted(p.stem for p in (GOLDEN / "fits").glob("*.json")) == sorted(FITS)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_fixture_byte_for_byte(name, tmp_path):
    out = tmp_path / "model.json"
    assert cli_main(["approximate", "--builder", "kshift", "--param", "num_experts=4",
                     "--param", "shifts=3", "--horizon", "30", *FITS[name],
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fits" / f"{name}.json").read_bytes()
