"""Guards on the verification suites themselves: how much they check, and
that a planted fault in the kernel correspondence is reported, not raised."""

from fibpal import oracle, prefix, singular, verify

# checks per suite at run_suites(all, 2000, 5, 15); a faster suite must not check less
CHECKED_AT_2000 = {
    "floors": 2000,
    "cylinder": 150,
    "chain": 13284,
    "tau": 100090,
    "counts": 2000,
    "richness": 2000,
    "return-words": 8,
    "kernels": 3371,
}


def test_checked_counts_pinned():
    results = verify.run_suites(list(verify.SUITES), 2000, 5, 15)
    assert {r.name: r.checked for r in results} == CHECKED_AT_2000
    assert all(r.ok for r in results)


def test_verify_kernels_default_bounds():
    # every factor of length <= 50 (sum of L + 1) plus every word of length <= 10
    res = verify.verify_kernels()
    assert res.ok and res.checked == 3371 == sum(n + 1 for n in range(1, 51)) + 2**11 - 2


def test_verify_kernels_reports_wrong_offset(monkeypatch):
    real = singular.kernel

    def shifted(w, *args, **kwargs):
        res = real(w, *args, **kwargs)
        return singular.KernelResult(res.m, res.offset + 1) if w == "abaab" else res

    monkeypatch.setattr(singular, "kernel", shifted)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "abaab"}
    # "abaab" is the first factor of length 5: 2 + 3 + 4 + 5 factors and the
    # 2 + 4 + 8 + 16 words of lengths 1..4 pass before it
    assert res.checked == 14 + 30


def test_verify_kernels_short_kernel_list_is_a_failure(monkeypatch):
    real = oracle.occurrence_starts

    def truncated(s, w):
        starts = real(s, w)
        return starts[:2] if w == singular.singular_word(0) else starts

    monkeypatch.setattr(oracle, "occurrence_starts", truncated)
    res = verify.verify_kernels(prefix_n=1000)
    # "b" is its own kernel and occurs more than twice
    assert not res.ok and res.counterexample == {"factor": "b"} and res.checked == 1


def test_verify_kernels_reports_a_rejected_factor(monkeypatch):
    real = singular.kernel

    def rejecting(w):
        if w == "aba":
            raise singular.NotAFactorError(w)
        return real(w)

    monkeypatch.setattr(singular, "kernel", rejecting)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "aba", "is_factor": False}


def test_kernel_correspondence_shares_the_suite_comparison(monkeypatch):
    s, ker = prefix(1000), singular.kernel("abaab")
    starts_k = oracle.occurrence_starts(s, singular.singular_word(ker.m))
    assert oracle.starts_correspond(oracle.occurrence_starts(s, "abaab"), starts_k, ker.offset, 10)
    monkeypatch.setattr(oracle, "starts_correspond", lambda *args: False)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "a"}
