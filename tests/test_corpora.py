"""The drawn test corpora keep their instances.

The corpora are selected by ``helpers.small_enough``, which repeats the
size rule of the exhaustive search that once computed their references by
listing every layer sequence.  Each digest below was recorded from that
search, with its ``SearchSpaceError`` as the selector, so the instances
(and for ``oracle_corpus`` their span optima) stay those the suite was
written against, whatever the exhaustive search now costs.
"""

import pytest

from helpers import corpus_digest, oracle_corpus, small_draws

ORACLE_DIGESTS = {
    (2024, 220): "44163f5a218a7149876226efda99f84229c329e4508f025b000e116362114269",
    (3, 25): "d51daa719c8cb9182f201180a22cff9f1d244ba5615527fd8b08abbc07a55552",
    (10, 40): "31b97dcd467ebedcbb7dfbac7ee299c868fbeb818b33420022030c49b465b465",
    (12, 30): "423c64dff102a35ba2b41c3b3148955842fc8f8c187cf33f85069338dd6d5806",
    (13, 15): "6a30b9c191ab555c2341cc2e86bb3d4ed8a4f385a0ba8f4c5085440c42aa5312",
    (14, 20): "b0925983c424df305a16a5e2d65a498e6ebd2757159924b8d138c09f0e34f1b9",
    (16, 25): "c0f5184da4ea8b4824f91f0658cd43362f66d6eb6bba1ea3bbeec12823687905",
    (17, 20): "312b7552f56cf525e4fbc65d67ac0fa68e3585777d2332babde13428eb7e4afa",
    (78, 10): "53ca401723b13ba6184a37f3339515a3fedee55e50912b17dd27638f4835a293",
}


@pytest.mark.parametrize("seed, count", list(ORACLE_DIGESTS))
def test_oracle_corpus_pinned(seed, count):
    assert corpus_digest(oracle_corpus(seed, count)) == ORACLE_DIGESTS[seed, count]


@pytest.mark.parametrize(
    "seed, modes, kwargs, digest",
    [
        # test_core: minimal activity never worse than span
        (8, ("span", "minimal"), {"draws": 30},
         "4bc7b3602ce073c9a9b7e8c53235dcc95f667dbe5d69e1da424e0115dca1e16a"),
        # test_formulations: ilp2 against the minimal-activity reference
        (11, ("minimal",), {"count": 25},
         "dc162d03afc23f65f614bd3f7d36d6f09d39248f8f7e7269bb6939f175fefb5c"),
        # test_formulations: ilp1ml/ilp2ml against chromatic-budget references
        (77, ("span", "minimal"), {"chromatic": True, "count": 20},
         "19f00ebd22f786dafe73fe3bdcec4fa7a553f549a3b54ae4110203462256ccc0"),
    ],
    ids=["seed8", "seed11", "seed77"],
)
def test_small_draws_pinned(seed, modes, kwargs, digest):
    drawn = small_draws(seed, modes, **kwargs)
    assert corpus_digest([inst for inst, _budgets in drawn]) == digest
