"""Verify checks name the reproducer of their first failure."""

from __future__ import annotations

from dataclasses import replace

from batchq import distributions as dist
from batchq import percolation as perc
from batchq import verify
from batchq.streams import RandomStream


def test_percolation_exact_names_its_first_mismatch(monkeypatch):
    # two brute-force calls per field (pinned, then free): disagree on field 3, free
    calls = []

    def off_by_one_on_call_7(field, query):
        calls.append((field, query))
        dp = perc.first_passage(field, query)
        return dp + 1.0 if len(calls) == 8 else dp

    monkeypatch.setattr(perc, "enumerate_first_passage", off_by_one_on_call_7)
    check = verify.check_percolation_exact(5)[0]
    assert check["name"] == "dp_equals_bruteforce_1000_fields"
    assert not check["passed"] and check["observed"] == 1
    dp = perc.first_passage(*calls[7])
    assert not calls[7][1].pinned
    assert check["first_mismatch"] == {"substream": 3, "pinned": False, "dp": dp,
                                       "bruteforce": dp + 1.0}


def test_passing_checks_carry_no_reproducer():
    assert "first_failure" not in verify.check_identity(5)[0]


def test_identity_names_its_first_failure(monkeypatch):
    real = perc.tandem_identity_check
    bad = {RandomStream(5).substream(i).seed for i in (6, 9)}

    def unequal_on_two_instances(arrival, services, window, stream):
        res = real(arrival, services, window, stream)
        return replace(res, equal=False) if stream.seed in bad else res

    monkeypatch.setattr(perc, "tandem_identity_check", unequal_on_two_instances)
    check = verify.check_identity(5)[0]
    assert not check["passed"] and check["observed"] == 2
    # instance 6 runs 1 + 6 % 4 = 3 stages
    replay = real(dist.ber_geom(1 / 3, 2 / 3), [dist.ber_geom(1 / 2, 1 / 2)] * 3, 50,
                  RandomStream(5).substream(6))
    assert check["first_failure"] == {"instance": 6, "lhs": replay.lhs, "rhs": replay.rhs,
                                      "best_m": replay.best_m}
