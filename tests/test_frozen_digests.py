"""Frozen campaign digests: the explore loop's trajectory, pinned.

Every literal below is the :attr:`EngineRun.digest` the engine produced
before the serial and the fabric explore paths were merged into one
loop.  Any change that moves one of them changes what a campaign
explores, not just how it is executed, and must be justified as such.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.checkpoint import load_checkpoint
from repro.core.search import strategy_by_name
from repro.injection.models import model_injector, model_space
from repro.service.engine import CampaignEngine
from repro.sim.targets import target_by_name

ITERATIONS = 96

#: (target, fault model) -> engine-independent campaign seed.
TARGETS = {
    "minidb": ("errno", 11),
    "replkv": ("errno+disk", 3),
}

#: (target, strategy, fabric, batch size) -> digest; the fabric arms are
#: serial at batch 1 and 8, virtual at 8 and 32, threads and processes
#: at 8.
FROZEN = {
    ("minidb", "fitness", "serial", 1): (
        "b6f83f5d18c0695b07b32781f391bed2392d75ca62fb41c7ac877f4805dfe547"
    ),
    ("minidb", "fitness", "serial", 8): (
        "b7b498181e40c0a36d5103678498a2a5fa9856522ebe147e3a15727b6e81dba7"
    ),
    ("minidb", "fitness", "virtual", 8): (
        "0d051383368d0f49831052464af882e4feb875dbbaa2f9d341806f2eec919688"
    ),
    ("minidb", "fitness", "virtual", 32): (
        "763aa74f7feb1135b3a417de498016e5676add7b739265ddc5a3e1350cb66e41"
    ),
    ("minidb", "fitness", "threads", 8): (
        "0d051383368d0f49831052464af882e4feb875dbbaa2f9d341806f2eec919688"
    ),
    ("minidb", "fitness", "processes", 8): (
        "0d051383368d0f49831052464af882e4feb875dbbaa2f9d341806f2eec919688"
    ),
    ("minidb", "random", "serial", 1): (
        "bb69f31418d9a2b31f5e15a45716cebbdaea805db23f7fd28239cfa923c683d4"
    ),
    ("minidb", "random", "serial", 8): (
        "bb69f31418d9a2b31f5e15a45716cebbdaea805db23f7fd28239cfa923c683d4"
    ),
    ("minidb", "random", "virtual", 8): (
        "5e35cf9649773c77d6fe0a972b14f1e25ff8f66cf23bf81536f42bfbd906627c"
    ),
    ("minidb", "random", "virtual", 32): (
        "5e35cf9649773c77d6fe0a972b14f1e25ff8f66cf23bf81536f42bfbd906627c"
    ),
    ("minidb", "random", "threads", 8): (
        "5e35cf9649773c77d6fe0a972b14f1e25ff8f66cf23bf81536f42bfbd906627c"
    ),
    ("minidb", "random", "processes", 8): (
        "5e35cf9649773c77d6fe0a972b14f1e25ff8f66cf23bf81536f42bfbd906627c"
    ),
    ("replkv", "fitness", "serial", 1): (
        "a510fccb330b6fa769d8dc2ac4d8d4aa40c96dc3883db6b4d88c6721bf0a3c9d"
    ),
    ("replkv", "fitness", "serial", 8): (
        "b7d369d9e7f088fc1ce2b3e04d92e69d634ce2f2ab28aa5f9b266a8eebc0c659"
    ),
    ("replkv", "fitness", "virtual", 8): (
        "213460e9e71d9e60c8ee852e0a2f533332f612375eb9872e6dc35dcbf0b995b8"
    ),
    ("replkv", "fitness", "virtual", 32): (
        "8b404a063d0b4e5158b6b2bf6489877188f7d8f37f2d5e177daeb0a33c473ece"
    ),
    ("replkv", "fitness", "threads", 8): (
        "213460e9e71d9e60c8ee852e0a2f533332f612375eb9872e6dc35dcbf0b995b8"
    ),
    ("replkv", "fitness", "processes", 8): (
        "213460e9e71d9e60c8ee852e0a2f533332f612375eb9872e6dc35dcbf0b995b8"
    ),
    ("replkv", "random", "serial", 1): (
        "46e20b97de8dd76f3ab9ce7fab33b1b85e6d90c393f477aa33cdb2045b857cb2"
    ),
    ("replkv", "random", "serial", 8): (
        "46e20b97de8dd76f3ab9ce7fab33b1b85e6d90c393f477aa33cdb2045b857cb2"
    ),
    ("replkv", "random", "virtual", 8): (
        "c00f34e4a04c0fd4bdd4402cac8c8921318311a6703fa471760b99e39f13a32a"
    ),
    ("replkv", "random", "virtual", 32): (
        "c00f34e4a04c0fd4bdd4402cac8c8921318311a6703fa471760b99e39f13a32a"
    ),
    ("replkv", "random", "threads", 8): (
        "c00f34e4a04c0fd4bdd4402cac8c8921318311a6703fa471760b99e39f13a32a"
    ),
    ("replkv", "random", "processes", 8): (
        "c00f34e4a04c0fd4bdd4402cac8c8921318311a6703fa471760b99e39f13a32a"
    ),
}

#: online quality on (fitness search acts on novelty only when opted in,
#: so these pin the stage's bookkeeping around the same trajectory).
FROZEN_QUALITY = {
    ("minidb", "serial", 1): (
        "b6f83f5d18c0695b07b32781f391bed2392d75ca62fb41c7ac877f4805dfe547"
    ),
    ("minidb", "virtual", 8): (
        "0d051383368d0f49831052464af882e4feb875dbbaa2f9d341806f2eec919688"
    ),
}

#: arms whose campaign is also killed mid-way and resumed; the resumed
#: history must land on the uninterrupted arm's frozen digest.
RESUMED = [("replkv", "serial", 8), ("replkv", "virtual", 8)]


@functools.lru_cache(maxsize=None)
def _space(target_name: str):
    fault_model, _ = TARGETS[target_name]
    return model_space(target_by_name(target_name), fault_model, max_call=2)


@pytest.fixture(scope="module")
def engines():
    """One warm engine per (target, fabric) — campaigns share it."""
    built: dict[tuple[str, str], CampaignEngine] = {}

    def get(target_name: str, fabric: str) -> CampaignEngine:
        key = (target_name, fabric)
        if key not in built:
            fault_model, _ = TARGETS[target_name]
            built[key] = CampaignEngine(
                target_by_name(target_name),
                fabric=fabric,
                workers=1 if fabric == "serial" else 2,
                name="frozen",
                injector=model_injector(fault_model),
                injector_factory=functools.partial(
                    model_injector, fault_model),
                target_factory=functools.partial(
                    target_by_name, target_name),
            )
        return built[key]

    yield get
    for engine in built.values():
        engine.close()


def _explore(engines, target_name, strategy, fabric, batch_size, **kwargs):
    engine = engines(target_name, fabric)
    _, seed = TARGETS[target_name]
    return engine.explore(
        _space(target_name), strategy_by_name(strategy),
        iterations=kwargs.pop("iterations", ITERATIONS), seed=seed,
        batch_size=batch_size, **kwargs,
    )


@pytest.mark.parametrize("key", sorted(FROZEN), ids=lambda key: "-".join(map(str, key)))
def test_campaign_digest_is_frozen(engines, key):
    target_name, strategy, fabric, batch_size = key
    run = _explore(engines, target_name, strategy, fabric, batch_size)
    assert run.digest == FROZEN[key]


@pytest.mark.parametrize("key", sorted(FROZEN_QUALITY), ids=lambda key: "-".join(map(str, key)))
def test_online_quality_digest_is_frozen(engines, key):
    target_name, fabric, batch_size = key
    run = _explore(engines, target_name, "fitness", fabric, batch_size,
                   online_quality=True)
    assert run.quality is not None
    assert run.digest == FROZEN_QUALITY[key]


@pytest.mark.parametrize("key", RESUMED, ids=lambda key: "-".join(map(str, key)))
def test_kill_and_resume_digest_is_frozen(engines, key, tmp_path):
    target_name, fabric, batch_size = key
    path = tmp_path / "frozen.ckpt"
    # The "killed" campaign: stops after 48 tests, leaving a checkpoint.
    _explore(engines, target_name, "fitness", fabric, batch_size,
             iterations=48, checkpoint_path=path, checkpoint_every=16)
    assert load_checkpoint(path).iterations == 48
    resumed = _explore(engines, target_name, "fitness", fabric, batch_size,
                       resume_from=path)
    assert resumed.digest == FROZEN[(target_name, "fitness", fabric,
                                     batch_size)]
