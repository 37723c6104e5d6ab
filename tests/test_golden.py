"""Golden outputs: ``graphfc eval`` and ``graphfc verify`` on the scripted CLI
fixture stay byte-identical in every pipeline and evidence mode.

Each digest is the sha256 of one output in canonical JSON (sorted keys, no
whitespace), with the report's ``timing`` and the traces' ``timings`` removed:
those are the only fields allowed to differ between runs.  A change that is
meant to keep behaviour keeps every digest; one that is meant to change an
output records its new digest here and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from graphfc import cli

from clifixtures import build_eval_fixture

# Two latent entities, so the verify trace holds paths, infilling steps and
# triplet judgments (or, in the direct pipeline, the claim-level verdict).
VERIFY_CLAIM_ID = "gph02"

# (pipeline, evidence mode) -> artefact -> sha256 of its canonical JSON.
GOLDEN = {
    ("dp_graphcheck", "open_book"): {
        "report": "bafb7a43a09d2ec7feb2f903c457660c78a82c99a967facdad09d10ec63f721a",
        "traces": "d65501b3ff678863517f55dce8f843968409d12cd5dd4462153892d12b078299",
        "verify": "d30b2e87da1951aae0a6724d939996917b3cbbf790eb9f5ce057409bbf821ebc",
    },
    ("dp_graphcheck", "open_book_gold"): {
        "report": "225fd249fb42563281f9f8a09e3274e4385a66b770b5387e8a8066fb94357b8d",
        "traces": "d6127d7d454d18d3ac4d522e4836abd48fb4764e9c61acf93e33471309f3f4cc",
        "verify": "b4e79f2d92764989a67304ef5358c8aabad3b0191940db271ad3612fbe9ba3f9",
    },
    ("graphcheck", "open_book"): {
        "report": "f84d85efdea1813afea2f4e1fe68dff7187fd36cecbcdb4e8a3e2b37b56758ea",
        "traces": "21254e7690cfc18d41f1b79449868cbd2fa169f3cc6893350f8e16fa98682226",
        "verify": "4462f2b384161cc4d74d3bdbf75e5bcbff14eb446c5fe802acc76a298622d8ce",
    },
    ("graphcheck", "open_book_gold"): {
        "report": "c00df261e7a0ca3ef404b30c3de62d11ffab5de36d5dfd8cfef325b826ab2ff5",
        "traces": "bd2c8845db3f6e1b78d522bf28269fa49bfdec264e3f7e50148503b5ef7dda94",
        "verify": "a51e67fad9f54cff6f3fc8867ec253bb38d38ac66620e25ce6e897f293ed43a0",
    },
    ("direct", "open_book"): {
        "report": "d20609ecf5ee1cab5037ec1317b715dd782cbdc91d6916fee0cb2da74e18ff30",
        "traces": "96d9ea4ee2056e5a699cea37a11f58c741e0cd8988fc7a55fa776767883f2f4c",
        "verify": "aeebd2c25c0b85aa037ffc7e6ed9849c6f718c4e4684daab5d5cd29f99bfe944",
    },
    ("direct", "open_book_gold"): {
        "report": "52af52b05aaf45ae29fe02649d193c0e18171f228ef95aee11bd61c55b8b6730",
        "traces": "8ea2fdac3bd9613f4cc34b3d9d693ba666a0f62d978fb82fe57f581984f54022",
        "verify": "3b85d1933c379153e55201e06cbb778d385dd82da750b1d25ee4700eca86dec3",
    },
}


def _digest(value) -> str:
    canonical = json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _without(row: dict, key: str) -> dict:
    return {name: value for name, value in row.items() if name != key}


def golden_outputs(root, pipeline: str, mode: str) -> dict:
    """Digest of each output of ``index``, ``eval`` and one ``verify`` run on
    a fresh fixture under ``root``."""
    paths = build_eval_fixture(root, pipeline=pipeline)
    flags = ["--config", paths["config"], "--evidence-mode", mode]
    assert cli.main(["index", *flags]) == 0
    assert cli.main(["eval", *flags]) == 0
    trace_out = root / "verify.json"
    assert cli.main([
        "verify", *flags, "--claim-id", VERIFY_CLAIM_ID, "--trace-out", str(trace_out),
    ]) == 0
    with open(paths["report"], encoding="utf-8") as handle:
        report = json.load(handle)
    with open(paths["traces"], encoding="utf-8") as handle:
        traces = [json.loads(line) for line in handle]
    with open(trace_out, encoding="utf-8") as handle:
        verified = json.load(handle)
    return {
        "report": _digest(_without(report, "timing")),
        "traces": _digest([_without(trace, "timings") for trace in traces]),
        "verify": _digest(_without(verified, "timings")),
    }


@pytest.mark.parametrize("pipeline,mode", list(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, pipeline, mode):
    assert golden_outputs(tmp_path / "run", pipeline, mode) == GOLDEN[pipeline, mode]
