"""Shared fixtures."""

import pytest

from tracekit.sphere import GaussianStream


@pytest.fixture
def zero_rows(monkeypatch):
    """stub(spec, n, row, budget) makes every raw word of substream `spec`
    from vector `row` (of dimension n) on 2**63, whose normal is exactly 0,
    so those rows have norm 0.  The test fails once all streams together
    have handed out more than `budget` words, so a sampler that redraws
    such rows fails instead of looping.  Returns the list of word counts
    taken from `spec`."""
    original = GaussianStream.raw_words

    def stub(spec, n, row, budget):
        drawn, taken = [], []

        def raw_words(self, count):
            drawn.append(count)  # one append per call is safe across threads
            if sum(drawn) > budget:
                pytest.fail(f"the sampler took more than {budget} words")
            words = original(self, count)
            if self.spec == spec:
                start = self.__dict__.get("_stub_start", 0)
                self._stub_start = start + count
                taken.append(count)
                words[max(2 * n * row - start, 0):] = 2**63
            return words

        monkeypatch.setattr(GaussianStream, "raw_words", raw_words)
        return taken

    return stub
