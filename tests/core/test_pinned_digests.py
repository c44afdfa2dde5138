"""Run digests pinned to the values commit 2b2da58 produced.

Both engines share the pending pools, the cost ledger and the drop and
arrival phases of :class:`~repro.core.simulator.Simulator`, and the
serve path adds its own wire decoder and admission code on top.  The
reference-vs-incremental oracle cannot see a change to any of that
shared code; these pins can.  Every value below was computed at commit
2b2da58 and must never move: a change that moves one changed behaviour.

Every job carries an explicit uid, so the process-wide ``Job.uid``
counter (which other tests advance) cannot move a digest.  The colors
cover the cases where the pool heap key and the per-color ledger
counters are easiest to get wrong:

- ``1``, ``1.0`` and ``True`` compare equal, share one pool and one
  ledger key, but sort differently (likewise ``0``, ``0.0``, ``-0.0``);
- int ``1`` and string ``"1"`` are different colors with the same
  ``str``, which the digest's per-color table merges in insertion order.

Each value is ``"ledger schedule events run"``, the first 16 hex digits
of each component digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.digest import component_digests
from repro.core.engine import ENGINES, make_simulator
from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.policies import make_policy
from repro.serve.protocol import decode_frame, encode_frame, job_from_wire, job_to_wire
from repro.serve.session import ShardedSession

#: palette and per-color delay bound (equal colors share one bound).
PALETTES = {
    "int": ([0, 1, 2, 3, 4, 5], {0: 2, 1: 3, 2: 1, 3: 4, 4: 2, 5: 3}),
    "str": (["a", "b", "c", "d", "e"], {"a": 2, "b": 3, "c": 1, "d": 4, "e": 2}),
    "tuple": (
        [(0, 0), (0, 1), (1, 0), (1, "x"), ((2, 3), 1)],
        {(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, "x"): 4, ((2, 3), 1): 2},
    ),
    "mixed-equal": (
        [1, 1.0, True, 0, 0.0, -0.0, 2, 2.0, 3, "z", (1, 1.0), (True, 1)],
        {1: 3, 0: 2, 2: 1, 3: 4, "z": 2, (1, 1): 3},
    ),
    "int-vs-str": ([1, "1", 2, "2", 3], {1: 2, "1": 3, 2: 4, "2": 1, 3: 2}),
}
POLICIES = ("edf", "dlru-edf")
SPEEDS = (1, 2)
#: (load, shards, speed) of the ShardedSession replays.
SESSION_CASES = [
    (load, shards, 1)
    for load in ("heavy", "mixed-equal", "int-vs-str", "tuple")
    for shards in (1, 2)
] + [("heavy", 2, 2), ("mixed-equal", 2, 2)]
N = 4
DELTA = 2


def pinned_instance(palette: str, rounds: int = 24, seed: int = 5) -> Instance:
    colors, bounds = PALETTES[palette]
    rng = random.Random(f"{palette}:{seed}")
    jobs = []
    for rnd in range(rounds):
        for _ in range(rng.randint(0, 7)):
            color = rng.choice(colors)
            jobs.append(Job(color, rnd, bounds[color], uid=1_000 + len(jobs)))
    sequence = RequestSequence(jobs, horizon=rounds + max(bounds.values()) + 1)
    return Instance(sequence, DELTA, name=f"pinned-{palette}")


def heavy_load(rounds: int = 16, colors: int = 64, seed: int = 7) -> Instance:
    """The shape of the serve-heavy benchmark load: 64 int colors, about
    eight jobs per color per round, Delta 4, delay bounds 1 to 4."""
    rng = random.Random(seed)
    bounds = {color: 1 + color % 4 for color in range(colors)}
    jobs = []
    for rnd in range(rounds):
        for color in range(colors):
            for _ in range(rng.randint(4, 12)):
                jobs.append(Job(color, rnd, bounds[color], uid=50_000 + len(jobs)))
    return Instance(RequestSequence(jobs), 4, name="pinned-heavy")


def _short(digests: dict[str, str]) -> str:
    return " ".join(digests[k][:16] for k in ("ledger", "schedule", "events", "run"))


def engine_digests(palette: str, policy: str, speed: int, engine: str) -> str:
    instance = pinned_instance(palette)
    sim = make_simulator(
        instance,
        make_policy(policy, DELTA),
        N,
        engine=engine,
        speed=speed,
    )
    result = sim.run()
    return _short(component_digests(
        result.ledger, result.schedule, result.events,
        result.executed_uids, result.dropped_uids,
    ))


def session_digests(load: str, shards: int, speed: int, engine: str) -> list[str]:
    """Replay ``load`` through the wire codec and a ShardedSession.

    Returns each shard's digests, then a digest of every tick's result
    frame (which the server sends to its clients as is).
    """
    instance = heavy_load() if load == "heavy" else pinned_instance(load)
    delta = instance.delta
    session = ShardedSession(
        n=16,
        delta=delta,
        policy_factory=lambda: make_policy("dlru-edf", delta),
        shards=shards,
        speed=speed,
        engine=engine,
    )
    frames = []
    for rnd in range(instance.horizon):
        wire = decode_frame(encode_frame({
            "type": "submit",
            "jobs": [job_to_wire(job) for job in instance.sequence.request(rnd)],
        }))
        jobs = [job_from_wire(obj, session.round) for obj in wire["jobs"]]
        if jobs:
            session.submit(jobs)
        frames.append(session.tick())
    while session.round < session.drain_horizon():
        frames.append(session.tick())
    ticks = hashlib.sha256(json.dumps(frames, sort_keys=True).encode()).hexdigest()
    return [_short(shard.digests()) for shard in session.shards] + [ticks[:16]]


ENGINE_PINS: dict[tuple[str, str, int], str] = {
    ('int', 'edf', 1): 'ee3c84b7ddda3121 e579afd6fd46074c f06d1b19134055e3 db31617b3ee90f83',
    ('int', 'edf', 2): '398d5c320dc5453d d8a28a3bdb21c334 1e64f46cd1dafee9 d4625209bf093423',
    ('int', 'dlru-edf', 1): 'c1bda71ca62f4269 a656815b7fbb5e3c 0217a3d313cdc7e8 700f6cf353bc4164',
    ('int', 'dlru-edf', 2): 'e59ab04f47f72617 9804f9660f14ad09 86413b38a0504355 98e20aaf95996771',
    ('str', 'edf', 1): 'fa40ce7c11f74584 d7a6a64dc67d61d9 3956df76ec34d1ef 29f55f82c1a24610',
    ('str', 'edf', 2): '8296b3a615bd78cb ca4e32fc561e8a6a 3d539270e7e9f29b 679325003bec8f5b',
    ('str', 'dlru-edf', 1): 'f766a9214687040a 1c614cd2da01060c 83e5ba5c1946cfdf 5508d78eb62a070a',
    ('str', 'dlru-edf', 2): 'b20f75fb7b425014 d275f08df1289f3b 91a1a803dc6c6233 310c6bb7520238a7',
    ('tuple', 'edf', 1): '6dcdd7c421084f7b 22704e048a1aa883 3c3432ca4d5e74c3 c1a41c3ff7a022bf',
    ('tuple', 'edf', 2): '8f8946a23b191825 3e2b20bf4a774359 1e2925f9379f9a65 ad57331e2def6c55',
    ('tuple', 'dlru-edf', 1): '86a22e43a2ffecae 16327a8114a39fae 79ea115e5918eee8 39a1376e190d343f',
    ('tuple', 'dlru-edf', 2): '56f39f39fd3d8c98 380b9877432f52e9 b8bcb228339d1263 9ed641be335a0fdc',
    ('mixed-equal', 'edf', 1): 'f3f0081710e48b85 7edcdc391e7e3b21 26b89a40281b2a1a 975dcd19bfcec89a',
    ('mixed-equal', 'edf', 2): '543d81e16be039a8 63be44de945406a9 f2931f2d5c238121 c4a14c5895fc36aa',
    ('mixed-equal', 'dlru-edf', 1): '947dd943c6ff0287 41b23c454fae1077 b8a792acde47a059 de3b4a9d2d6c1c04',
    ('mixed-equal', 'dlru-edf', 2): '4de510abd84a649a 045a004fb4bc6663 2815f2cc161dedd7 7f512eb07b6e88bd',
    ('int-vs-str', 'edf', 1): '8b609856d3f31798 31d467dc86b3aa2b a778bed2fa5b6880 eba0efeac7c0d290',
    ('int-vs-str', 'edf', 2): '0f9848557eb3d22a 3a8fe528c6e885cc c03d3d49d7d7b400 bfbb81d462aecfbb',
    ('int-vs-str', 'dlru-edf', 1): '18c649026be9cf48 58484a78d8fcbb36 874fe1c229e438b5 ddb33705e3e4993b',
    ('int-vs-str', 'dlru-edf', 2): '9f6dd079e3a557d1 339af387f0e815e1 2dff5565a391d054 cd908ca989fbaf97',
}

SESSION_PINS: dict[tuple[str, int, int], list[str]] = {
    ('heavy', 1, 1): [
        'abcaa5135c0f4cbd 67480293aee1c2da 6ae47b6c03b9906e 677906a852743d27',
        '6b8ce75324cb5ecb',
    ],
    ('heavy', 2, 1): [
        '9167b9e04da93d60 9cf5818e9ad42a0a fd848e657be2feb5 bfe7b6e9561d4201',
        'a5874d7200ea94cc 7dcfa1eabe003025 5817d408c77085d5 b08edb2ae1ed1857',
        'c6fdb13b8975284c',
    ],
    ('mixed-equal', 1, 1): [
        'de424218cd44b8c3 599e7436dff81a56 571aeaf44fc2e6e3 320445cf022bfa78',
        'e87baea2a1171e6d',
    ],
    ('mixed-equal', 2, 1): [
        '5433409f005dd4f6 b5b33f476de14042 66b16536bcb42c03 8b783702817af386',
        '11938a8b9f614b3f 77dbcbc8165627f6 a7074765c5530d6f cca07cfae714c062',
        'e87baea2a1171e6d',
    ],
    ('int-vs-str', 1, 1): [
        'f5fab55095db9a33 3ca6d93c98f7280a e6020cb21d0c314f e82445b4704d29c1',
        'aa7eadbe11ecc59a',
    ],
    ('int-vs-str', 2, 1): [
        '8ff58060d6a47576 a97e5b6bc81c2bec 48d1cfedc1b2f96e 0b2f4ebfc4a2c018',
        '6cfdaa462e628181 3c2810d5136d5d9a 4fa5cdd9a675cb85 7101d1a3f6e4315c',
        'aa7eadbe11ecc59a',
    ],
    ('tuple', 1, 1): [
        'f8d22aa046ddbfbb cc6e171883517f75 74aec054d5437ae2 b02d81ab3e122f4e',
        '90ccbc7e65c5a455',
    ],
    ('tuple', 2, 1): [
        '4f79573cf629c504 c0f14e91cebbef9d bdf8c2aa7a9eeb44 b931824ad80ae56e',
        '9dd49575bce8c0ff c29f67f6e963d5b9 1cce959c96de924f 277ddde83d1e9953',
        '90ccbc7e65c5a455',
    ],
    ('heavy', 2, 2): [
        'a5a327e8f22a7e5b 8a6985f86c99f070 b8bf955f5306475b fb9c99e560ad01b1',
        'c0a57b8ae8ad2759 9563d56bc448a7f0 2db51cc3b4d9e5bf f48ab055c6e35b97',
        '6930baf2f0b1dd93',
    ],
    ('mixed-equal', 2, 2): [
        '5433409f005dd4f6 f02c875b21324761 6dc765e39e88f2c2 589859b330b08756',
        '11938a8b9f614b3f fe7dd9e7580b2b05 6fd17187724c9f7e d96fac12eacc4a14',
        'd23cd39a05041045',
    ],
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", sorted(ENGINE_PINS), ids=lambda k: "-".join(map(str, k)))
def test_engine_digests_match_pins(key, engine):
    palette, policy, speed = key
    assert engine_digests(palette, policy, speed, engine) == ENGINE_PINS[key]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", sorted(SESSION_PINS), ids=lambda k: "-".join(map(str, k)))
def test_session_digests_match_pins(key, engine):
    load, shards, speed = key
    assert session_digests(load, shards, speed, engine) == SESSION_PINS[key]


def test_pins_cover_every_case():
    assert set(ENGINE_PINS) == {
        (palette, policy, speed)
        for palette in PALETTES
        for policy in POLICIES
        for speed in SPEEDS
    }
    assert set(SESSION_PINS) == set(SESSION_CASES)


if __name__ == "__main__":
    # Prints the pin tables for the checkout on PYTHONPATH (used once, at
    # the commit the pins name).
    print("ENGINE_PINS = {")
    for palette in PALETTES:
        for policy in POLICIES:
            for speed in SPEEDS:
                values = {
                    engine_digests(palette, policy, speed, engine)
                    for engine in ENGINES
                }
                assert len(values) == 1, values
                print(f"    ({palette!r}, {policy!r}, {speed}): {values.pop()!r},")
    print("}")
    print("SESSION_PINS = {")
    for load, shards, speed in SESSION_CASES:
        values = {
            tuple(session_digests(load, shards, speed, engine))
            for engine in ENGINES
        }
        assert len(values) == 1, values
        print(f"    ({load!r}, {shards}, {speed}): {list(values.pop())!r},")
    print("}")
