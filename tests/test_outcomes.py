"""Outcome digests: one sha256 per shape over seeded decodes.

Each shape draws its code and instances as `sumrankdec trial` does (the
code from the seed (seed, 0xC0DE), instance i from the seed (seed, i)) and
decodes every instance.  The digest covers each outcome: a report's C_hat, E_hat,
A_hat, B_hat, t_hat and per_block_t, or a failure's type, stage and fields.
The syndrome S and the failure messages are left out.  A change that keeps
every outcome keeps every digest; one that changes an outcome on purpose
re-pins the digest it changes.  The digests also pin numpy's Generator
streams, as test_cli's golden files do.

The shapes are the failure-path probes whose support stage checks the
rows below the annihilator's slice, the trials that CI runs through the console
script, and codes of the benchmark's sumrank-large and hamming-wide shapes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from sumrankdec.code import InterleavedCode, random_code, random_instance
from sumrankdec.decoder import DecodingFailure, decode
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import Inconsistent, NonUniqueSolution
from sumrankdec.sumrank import LengthPartition

# (p, m, partition, k, s, t, d_min, full_rank, trials, sha256): the code is
# certified to distance d_min unless it is None
SHAPES = {
    # failure-path probes: errors not of full rank, with the slice-first
    # rule falling through or a later failure running the completion
    "gf3-64x2-fail": (3, 1, (2,) * 64, 40, 2, 4, None, False, 20,
                      "38a173fac34e0a222dc42e87eb5c6f3eef4e25156873265ed79377e6a32f53d7"),
    "gf4-64x2-fail": (2, 2, (2,) * 64, 64, 6, 6, None, False, 20,
                      "ea31345d416c804b7fd3de94851a4d7955662e2a0184ca407b5aeca05caa3337"),
    "gf25-64x4-fail": (5, 2, (4,) * 64, 128, 8, 12, None, False, 20,
                       "7dad71f5e666cbc8fffe7b4a557416da3d6f79ab62b9651d5291e585c3d18156"),
    # the console-script trials of CI
    "gf25-unequal": (5, 2, (1, 2, 3, 4) * 4, 4, 4, 4, 6, True, 20,
                     "2a27a5edc353f7a3aa1205160a14546f25a05a911a4905fa0f05ba8f9b8ab760"),
    "gf2m21-16x1": (2, 21, (1,) * 16, 4, 4, 4, None, False, 5,
                    "97b8d4b2821126b6bcefac9f2958e5ed18361f4e049e5dad68dc7df1c65c0d14"),
    "gf3m13-8x2": (3, 13, (2,) * 8, 4, 4, 4, None, False, 5,
                   "cc5e45c1761900d80b2f2353ca5284c8610b55f26f0b58356d8145d402e20504"),
    "gf1021-n16": (1021, 1, (1,) * 16, 4, 4, 4, None, False, 10,
                   "75a16d592d62e015844aca3c22937a5b81eebf195e5d134790c0a67253ccc7ec"),
    "gf1021-n17": (1021, 1, (1,) * 17, 4, 4, 4, None, False, 10,
                   "935aa9e9396b16d3c4944f4e836d121bf38632e8303ac47c509d875575dd7970"),
    # the benchmark's large shapes, errors of full rank
    "sumrank-large": (5, 2, (4,) * 64, 128, 8, 8, None, True, 10,
                      "b8af2badab2678bc169ff29ae2361d3581df346939dcf3e19a77f2300f4b585f"),
    "hamming-wide": (2, 12, (1,) * 128, 64, 8, 8, None, True, 10,
                     "bb41df7abfe8fc4cc8fc873a36b9cdcf9135d65d8a35dbd7dd77fecbaf4b4590"),
}


def _outcome(icode: InterleavedCode, Y) -> dict:
    """One decode's outcome in canonical JSON-ready form."""
    try:
        rep = decode(icode, Y)
    except (DecodingFailure, NonUniqueSolution, Inconsistent) as ex:
        return {"type": type(ex).__name__, "fields": vars(ex)}
    return {
        "type": "Success",
        "t_hat": rep.t_hat,
        "per_block_t": rep.per_block_t,
        **{name: getattr(rep, name).array.tolist() for name in ("C_hat", "E_hat", "A_hat", "B_hat")},
    }


def outcome_digest(p, m, parts, k, s, t, d_min, full_rank, trials, seed=0) -> str:
    tower, partition = FieldTower.standard(p, m), LengthPartition(parts)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0DE)))
    code = random_code(tower, partition, k, rng=rng, d_min=d_min)
    icode = InterleavedCode(code, s)
    digest = hashlib.sha256()
    for i in range(trials):
        C, em = random_instance(icode, np.random.default_rng(np.random.SeedSequence((seed, i))),
                                t=t, require_full_rank=full_rank)
        out = _outcome(icode, C + em.E)
        # default=int: failure fields may hold numpy integers
        digest.update(json.dumps(out, sort_keys=True, default=int).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", SHAPES)
def test_outcome_digest(name):
    *shape, expected = SHAPES[name]
    assert outcome_digest(*shape) == expected
