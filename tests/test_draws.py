"""The sampled bucket's generator: numpy's ``default_rng(seed).integers``
stream, bit for bit, computed without ``numpy.random``."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi_extract import _draws
from renyi_extract._draws import integer_blocks, integers

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDS = [0, 1, 2**32, 2**70 + 3] + [
    random.Random(f"draws/{i}").getrandbits(8 * i + 1) for i in range(20)
]
# 2^31 + 1 rejects about half its 32-bit words, so refills run; 2^32 takes
# raw words, and above it each draw reads a 64-bit output.
HIGHS = [1, 2, 3, 7, 3**8, 2**24, 2**24 + 1, 2**31 + 1, 2**32, 2**32 + 1, 3**21,
         2**62, 2**63]


@pytest.mark.parametrize("high", HIGHS)
@pytest.mark.parametrize("size", [300, (40, 7)], ids=["n", "n-by-D"])
def test_matches_numpy(high, size):
    for seed in SEEDS:
        want = np.random.default_rng(seed).integers(0, high, size)
        got = integers(seed, high, size)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want), (seed, high)


@pytest.mark.parametrize("high", [3, 2**31 + 1, 2**40])
def test_matches_numpy_over_several_blocks(high):
    n = 2 * _draws._BLOCK + 123
    assert np.array_equal(integers(5, high, n), np.random.default_rng(5).integers(0, high, n))


@pytest.mark.parametrize("high", HIGHS)
@pytest.mark.parametrize("size", [1, 7, 64, 299, 300, 1000])
def test_blocks_concatenate_to_the_draws(high, size):
    # The stream in blocks of ``size`` draws, the last one shorter: both word
    # paths, on the numpy comparison cases.
    for seed in SEEDS[:8]:
        blocks = list(integer_blocks(seed, high, 300, size))
        assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= size
        got = np.concatenate(blocks)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.random.default_rng(seed).integers(0, high, 300))


@pytest.mark.parametrize("high", [3, 2**31 + 1, 2**40])
@pytest.mark.parametrize(
    "size", [_draws._BLOCK - 1, _draws._BLOCK + 1, 3 * _draws._BLOCK + 5, 1000]
)
def test_blocks_straddle_the_output_blocks(high, size):
    n = 3 * _draws._BLOCK + 123
    blocks = list(integer_blocks(5, high, n, size))
    assert max(len(b) for b in blocks) == min(size, n)
    assert np.array_equal(np.concatenate(blocks), integers(5, high, n))


def test_blocks_of_nothing():
    assert list(integer_blocks(3, 5, 0, 4)) == []


def test_refills_after_rejections(monkeypatch):
    # Refills continue from the last state: draws that need a second block
    # still match numpy.
    blocks, outputs = [], _draws._outputs

    def counted(*args):
        blocks.append(0)
        for out in outputs(*args):
            blocks[-1] += 1
            yield out

    monkeypatch.setattr(_draws, "_outputs", counted)
    for seed in SEEDS:
        want = np.random.default_rng(seed).integers(0, 2**31 + 1, 50)
        assert np.array_equal(integers(seed, 2**31 + 1, 50), want)
    assert max(blocks) > 1


def test_raw_outputs_match_numpy():
    gen = _draws._outputs(*_draws._seeded(12345), 1000)
    with np.errstate(over="ignore"):
        got = np.concatenate([next(gen) for _ in range(5)])
    assert np.array_equal(got, np.random.default_rng(12345).bit_generator.random_raw(5000))


# Recorded from numpy 2.4's default_rng, so the stream stays pinned whatever
# numpy is installed.
KNOWN = [
    ((0, 2**24, 8), [14271106, 10686443, 8575447, 4526269, 5164520, 687421, 1262320,
                     277287]),
    ((1, 2, (3, 5)), [[0, 1, 1, 1, 0], [0, 1, 1, 0, 0], [1, 0, 0, 1, 0]]),
    ((2**32, 3**8, 6), [3425, 5837, 6514, 3655, 1987, 5254]),
    ((2**70 + 3, 3**21, 5), [4397397747, 2990339839, 1111654352, 3105942596,
                             3966210256]),
    ((7, 2**63, 4), [5765488047046174021, 8275336682942969162, 7154437704795913393,
                     2077169698657866657]),
    ((11, 2**32, 6), [574671950, 552204816, 3423435367, 2144382090, 2534171772,
                      2583415774]),
    ((5, 2**31 + 1, 6), [1440510676, 1728730615, 48647418, 1353417275, 596836679,
                         823278402]),
    ((9, 2**62, (2, 3)), [[4013316086496403912, 1322710912993444104, 2781529890633132271],
                          [3585743059053749950, 3302311357493332641, 4221445703212451547]]),
    ((3, 1, 4), [0, 0, 0, 0]),
]


@pytest.mark.parametrize("args,want", KNOWN, ids=[str(a) for a, _ in KNOWN])
def test_known_answers(args, want):
    assert integers(*args).tolist() == want


def test_known_seeding_and_raw_outputs():
    state, inc = _draws._seeded(0)
    assert (state, inc) == (35399562948360463058890781895381311971,
                            87136372517582989555478159403783844777)
    with np.errstate(over="ignore"):
        raw = next(_draws._outputs(state, inc, 4)).tolist()
    assert raw == [11749869230777074271, 4976686463289251617, 755828109848996024,
                   304881062738325533]


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="rng seed must be >= 0, got -1"):
        integers(-1, 5, 3)


# A sampled bucket through the CLI, in a fresh interpreter: does numpy.random
# load?  Some numpy versions import it with numpy itself.
BUCKET_PROBE = """
import json, sys
import numpy
by_numpy = "numpy.random" in sys.modules
from renyi_extract.cli import main
status = main(["bucket", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"status": status, "numpy_random_by_numpy": by_numpy,
                  "numpy_random": "numpy.random" in sys.modules}))
"""


def test_sampled_bucket_leaves_numpy_random_unloaded(tmp_path):
    config = tmp_path / "bucket.json"
    config.write_text(json.dumps({
        "family": {"q": 2, "n": 8, "k": 3, "m": 4},
        "source": {"preset": "uniform"},
        "bucket": {"subset": list(range(0, 256, 8)), "mode": "sampled", "samples": 100},
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", BUCKET_PROBE, str(config), str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    assert probe["status"] == 0
    if probe["numpy_random_by_numpy"]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not probe["numpy_random"]
