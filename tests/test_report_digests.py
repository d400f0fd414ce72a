"""Golden sha256 digests of every file a bundled config writes under --reference.

Each bundled config runs at its own seed, in process, and every file in
its output directory (report.json and each CSV) must hash to the digest
below, and no file may be added or missing.  The digests were recorded at
commit 4002ac7, before the CLI took every object through its own decoder
and the CSV writers became one, so the test pins byte identity across that
change and every later one.  Whoever regenerates a digest says why in
CHANGES.md.
"""

import hashlib
import json

import pytest

from katoform import bundled, cli

DIGESTS = {
    "check_random_bundle": {
        "report.json": "8e8b68e04d79dba03521a07052810a4d25da392bb61d99612b8b548cdb46a3b1",
    },
    "fk_coulomb": {
        "report.json": "b654d87b76aaf8f5d8c1b4fcd808f43e978bf3af5af439be850e7317373c2f26",
    },
    "form_bounds_coulomb": {
        "plot_resolvent.csv": "e8c101ec02b493345bed923b9631c5386a765743b8ee910e166205ddfc76dc54",
        "report.json": "a248c1251173c525f6b7414cc4e50237a19078dd2459a6c1b5d0976f77cfd7f6",
        "resolvent.csv": "afe69d98cd2b7ca08956bcd764f1c39739ae0213d2608211a6dcc83da7186961",
    },
    "kato_coulomb": {
        "eta.csv": "175dfd9247dc1fe342356eac26fb91f60abd201adbd24588a98be990fcb7450c",
        "plot_eta.csv": "5285ca0928897ce512dabaa52cf96b7cfe85c65507da8d4a61d0d0c55472e7ff",
        "plot_resolvent.csv": "469a798cb1b32ec4f58ded04a3c2429c9deb3eb728ab8c75aba0699f27d9fc5d",
        "report.json": "15256e50caf5422af64ba20028a321472d2a641f2459177ac5fbba5edff4e3ef",
        "resolvent.csv": "a0a1cd84da57909f40b4385fdd7413dcaa38c595c92ec8328c06441f645b65e6",
    },
    "spectrum_flux_cycle": {
        "plot_spectrum.csv": "6058f195bf475fb1bb16c9a8aa9c6a7bfc48d8562f7877300d37f152870983e3",
        "report.json": "38cd19487494902cfb362ce68ea1c904b8dfeae27f7f4172e208ebf46b5410eb",
        "spectrum.csv": "cd0dce307d014037ba53a96adf592be912d5121152acd3ff66898b3c2c6aebb2",
    },
}


def test_every_bundled_config_has_digests():
    assert sorted(DIGESTS) == bundled.list_configs()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_reference_outputs_match_digests(tmp_path, name):
    config = str(bundled.config_dir() / f"{name}.json")
    with open(config) as fh:
        seed = json.load(fh).get("seed", 0)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", config, "--out", str(out), "--reference",
                     "--seed", str(seed)])
    assert code == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == DIGESTS[name]
