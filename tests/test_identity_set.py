"""The identity gate's instance set stays as measured.

``tools/identity_digest.py`` runs the fixpoint on a fixed instance set so
that two versions of the sources can be compared output for output.  The
comparison only means something while the set itself stays fixed, so its
size and content are pinned here, and it must draw on every demand
profile.  The tool imports only the standard library at module level, so
it is loaded here by file path.
"""

import hashlib
from pathlib import Path

import pytest

import vecdom
import vecdom.selftest
from vecdom.toolkit import _PROFILES

from conftest import load_by_path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "identity_digest.py"


def load_digest():
    return load_by_path("identity_digest", DIGEST)


def test_identity_set_is_pinned():
    names = []
    h = hashlib.sha256()
    for name, inst in load_digest().identity_set(vecdom):
        names.append(name)
        h.update((name + vecdom.write(inst)).encode())
    assert len(names) == len(set(names)) == 1345
    assert h.hexdigest() == "11f430f39dd0977d76c8ef1c4f0949add488385a4786dd13e0897714c713b4eb"


def test_identity_set_uses_every_profile(monkeypatch):
    used = set()
    make_special_case = vecdom.make_special_case

    def recording(instance, profile, seed=None):
        used.add(profile.partition(":")[0].strip().lower())
        return make_special_case(instance, profile, seed=seed)

    monkeypatch.setattr(vecdom, "make_special_case", recording)
    monkeypatch.setattr(vecdom.selftest, "make_special_case", recording)
    for _ in load_digest().identity_set(vecdom):
        pass
    assert used == set(_PROFILES) | {"pids"}


@pytest.fixture(scope="module")
def digest_lines():
    """``(name, digest_line)`` for every identity-set instance, in set order,
    computed once for the output pins below."""
    digest = load_digest()
    return [
        (name, digest.digest_line(vecdom, name, inst))
        for name, inst in digest.identity_set(vecdom)
    ]


def hash_lines(lines, wanted=lambda name: True):
    """The sha256 of the digest lines whose names ``wanted`` accepts, and their count."""
    h = hashlib.sha256()
    count = 0
    for name, line in lines:
        if wanted(name):
            h.update(line.encode())
            count += 1
    return h.hexdigest(), count


def test_identity_set_outputs_are_pinned(digest_lines):
    """What the fixpoint makes of every identity-set instance stays as it was.

    The sha256 covers each instance's ``digest_line``: its kernel, event log
    and stats line.  A change that alters these outputs on purpose updates
    the pin and lists the changed lines in CHANGES.md; the tool locates
    which lines differ.
    """
    assert hash_lines(digest_lines) == (
        "e1649502fd06cbc488dc4127753ef99d070c1a8ce97a7fe3ed745d22ce5f518b", 1345
    )


def in_slice(name):
    """Corpus seeds 0-999, every ``pids-20`` graph, ``mixed/i`` for i % 8 == 0,
    and ``mixed/47``, the one identity-set run where rule 8 fires."""
    kind, _, rest = name.partition("/")
    if kind == "mixed":
        return int(rest) % 8 == 0 or rest == "47"
    return kind in ("corpus", "pids-20")


def test_identity_slice_outputs_are_pinned(digest_lines):
    """What the fixpoint makes of 1076 identity-set instances stays as it was.

    The sha256 covers each instance's ``digest_line``: its kernel, event log
    and stats line.  Rules 6, 7 and 8 fire in 34, 17 and 1 of these runs.
    A change that alters these outputs on purpose updates the pin and lists
    the changed lines in CHANGES.md; the full set is compared with the tool.
    """
    assert hash_lines(digest_lines, in_slice) == (
        "99ed1b3ab2101542db55685cf3fc6bd0cb7f58392767594479aa5bf1bd54e71c", 1076
    )


def test_local_sparse_outputs_are_pinned(digest_lines):
    """What the fixpoint makes of ``r1-300/s/k60``, s 0-4, stays as it was.

    These density-0.8 ``r:1`` graphs at n=300 are the shape of the
    benchmark's local-sparse workload, where rules 4 and 5 fire most
    (12-16 and 40-50 times a run here), and the slice above holds none of
    them.  The sha256 covers each instance's ``digest_line``.
    """
    wanted = {f"r1-300/{s}/k60" for s in range(5)}
    assert hash_lines(digest_lines, wanted.__contains__) == (
        "2694d8c1791d0d6303aa72482d7466dd04f60c9270394db3010bad5813bfa113", 5
    )
