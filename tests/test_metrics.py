"""Metric tests against hand values and independent oracles."""

import math
import random

import pytest

from oracles import oracle_f1, oracle_ndcg, oracle_recall

from memaug import EmptyGoldError, MetricReport, ndcg_at_k, recall_at_k, token_f1
from memaug.metrics import normalize_title


class TestRecallAtK:
    def test_hit_at_rank_one(self):
        assert recall_at_k(["a", "b", "c"], {"a"}, 5) == 1.0

    def test_half_found(self):
        assert recall_at_k(["a", "x", "y", "z", "w"], {"a", "b"}, 5) == 0.5

    def test_miss(self):
        assert recall_at_k(["x", "y"], {"a"}, 5) == 0.0

    def test_window_limits(self):
        assert recall_at_k(["x", "a"], {"a"}, 1) == 0.0

    def test_empty_gold(self):
        with pytest.raises(EmptyGoldError):
            recall_at_k(["a"], set(), 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {k}$"):
            recall_at_k(["a"], {"a"}, k)

    @pytest.mark.parametrize("k", [1.5, True, "1"])
    def test_k_that_is_not_an_int_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {k!r}$"):
            recall_at_k(["a"], {"a"}, k)


class TestNdcgAtK:
    def test_perfect_single(self):
        assert ndcg_at_k(["a"], {"a"}, 1) == pytest.approx(1.0)

    def test_hit_at_rank_two(self):
        assert ndcg_at_k(["x", "a", "y", "z", "w"], {"a"}, 5) == pytest.approx(
            1.0 / math.log2(3), abs=1e-9
        )

    def test_no_hit(self):
        assert ndcg_at_k(["x", "y", "z"], {"a"}, 3) == 0.0

    def test_empty_gold_scores_zero(self):
        assert ndcg_at_k(["a"], set(), 3) == 0.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {k}$"):
            ndcg_at_k(["a"], {"a"}, k)

    @pytest.mark.parametrize("k", [1.5, True, "1"])
    def test_k_that_is_not_an_int_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {k!r}$"):
            ndcg_at_k(["a"], {"a"}, k)

    def test_one_iff_gold_ranked_first(self):
        rng = random.Random(4)
        for _ in range(300):
            items = [f"i{j}" for j in range(rng.randint(1, 12))]
            rng.shuffle(items)
            gold = set(rng.sample(items, rng.randint(1, len(items))))
            k = rng.randint(len(gold), 12)
            score = ndcg_at_k(items, gold, k)
            prefix_is_gold = all(item in gold for item in items[: len(gold)])
            if prefix_is_gold:
                assert score == pytest.approx(1.0)
            else:
                assert score < 1.0

    def test_repeated_gold_scores_once(self):
        assert ndcg_at_k(["heat", "heat", "heat"], {"heat"}, 5) == 1.0
        assert ndcg_at_k(["x", "heat", "heat", "a"], {"heat", "a"}, 5) == pytest.approx(
            (1 / math.log2(3) + 1 / math.log2(5)) / (1 + 1 / math.log2(3)), abs=1e-12
        )

    def test_repeats_score_as_non_gold_at_their_rank(self):
        rng = random.Random(9)
        for _ in range(300):
            pool = [f"i{j}" for j in range(6)]
            ranking = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
            gold = set(rng.sample(pool, rng.randint(1, 4)))
            k = rng.randint(1, 10)
            # Each repeat replaced by a distinct non-gold item.
            deduped = [
                item if item not in ranking[:i] else f"repeat{i}" for i, item in enumerate(ranking)
            ]
            score = ndcg_at_k(ranking, gold, k)
            assert 0.0 <= score <= 1.0
            assert score == pytest.approx(ndcg_at_k(deduped, gold, k), abs=1e-12)


class TestTokenF1:
    def test_exact_match(self):
        assert token_f1("paris", "paris") == 1.0

    def test_disjoint(self):
        assert token_f1("london", "paris") == 0.0

    def test_partial(self):
        assert token_f1("paris france", "paris") == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_case_folded(self):
        assert token_f1("PARIS", "paris") == 1.0

    def test_multiset_counts(self):
        # "a a b" vs "a b b": overlap multiset is {a, b} -> P = R = 2/3
        assert token_f1("a a b", "a b b") == pytest.approx(2.0 / 3.0)

    def test_empty_prediction(self):
        assert token_f1("", "paris") == 0.0

    def test_empty_gold(self):
        with pytest.raises(EmptyGoldError):
            token_f1("x", "   ")

    def test_symmetric_pr_structure(self):
        rng = random.Random(9)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(200):
            a = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            b = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            assert token_f1(a, b) == pytest.approx(token_f1(b, a), abs=1e-12)


class TestOracleAgreement:
    def test_random_cases(self):
        rng = random.Random(101)
        pool = [f"d{i}" for i in range(30)]
        words = ["red", "blue", "green", "left", "right", "up", "down"]
        for _ in range(500):
            retrieved = rng.sample(pool, rng.randint(0, 20))
            gold = set(rng.sample(pool, rng.randint(1, 8)))
            k = rng.randint(1, 12)
            assert recall_at_k(retrieved, gold, k) == pytest.approx(
                oracle_recall(retrieved, gold, k), abs=1e-12
            )
            assert ndcg_at_k(retrieved, gold, k) == pytest.approx(
                oracle_ndcg(retrieved, gold, k), abs=1e-12
            )
            pred = " ".join(rng.choices(words, k=rng.randint(0, 8)))
            ref = " ".join(rng.choices(words, k=rng.randint(1, 8)))
            assert token_f1(pred, ref) == pytest.approx(oracle_f1(pred, ref), abs=1e-12)


class TestNormalizeTitle:
    def test_strips_punctuation_and_case(self):
        assert normalize_title("The  Heat!") == "the heat"
        assert normalize_title("heat") == normalize_title("Heat.")


class TestMetricReport:
    def test_micro_average(self):
        scores = [("a", 1.0), ("a", 0.0), ("b", 1.0)]
        report = MetricReport.from_scores("recall", scores, k=5)
        assert report.overall == pytest.approx(2.0 / 3.0)
        assert report.per_category == {"a": 0.5, "b": 1.0}
        assert report.count == 3

    def test_empty(self):
        report = MetricReport.from_scores("recall", [])
        assert report.overall == 0.0
        assert report.count == 0

    def test_table_rendering(self):
        report = MetricReport.from_scores("recall", [("single_hop", 1.0)], k=5)
        table = report.as_table()
        assert "recall@5" in table
        assert "single_hop" in table
        assert "overall" in table
        assert "1.0000" in table

    def test_dict_shape(self):
        report = MetricReport.from_scores("token_f1", [("x", 0.5)])
        data = report.to_dict()
        assert data["metric"] == "token_f1"
        assert data["k"] is None
        assert data["per_category"] == {"x": 0.5}
