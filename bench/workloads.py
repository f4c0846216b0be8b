"""The three benchmark workloads.

Each workload generates its inputs from the seed before anything is timed.
:meth:`measure` then runs its set-ups and timed work and returns the metrics
together with the state :meth:`check` compares against the oracles. A traced
run calls :meth:`measure` a second time with the tracer installed.

* ``ingest-20k``: the ``memaug augment`` + ``memaug index`` path over 20,000
  entity items whose pairs are mostly distinct (embedder cache mostly misses).
* ``serve-20k``: one closed-loop client against a loaded 20,000-item store
  and index: embedding queries, attribute queries and writes.
* ``qa-pipeline``: augment -> index -> eval QA over 4,000 dialogue turns and
  1,000 questions (embedder cache mostly hits).
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

import adapter
import gen
from hostspeed import HostSpeed, timed
from oracles import Checks, ExactIndex, attribute_topk, same_hits

DIMENSION = 256
PARALLELISM = 2  # mining threads: one per core of the two-core benchmark host
K = 5
CHAT_DELAY_S = 0.001  # injected wait per chat call, on every workload
SETUP_REPEATS = 3  # set-ups per run at least, and
SETUP_MIN_S = 1.0  # at least this long, so cheap set-ups get a steady median
# The host's speed swings with its neighbours, so the bounded timings are
# reported at a reference speed (see hostspeed.py), from probes sampled
# through the run: before and after each set-up, between the phases of a
# pass, and every PROBE_INTERVAL_S of the serve loop. Probe time is not
# counted as work.
PROBE_INTERVAL_S = 0.5
MINED_PAIR_SAMPLE = 200
ORACLE_EVERY = 8  # serve checks every 8th query of each kind
QA_ORACLE_EVERY = 25

ENTITY_ITEMS = 20_000
SERVE_FIXTURE_SEED = 0
QA_SESSIONS, QA_TURNS, QA_QUESTIONS = 200, 20, 1_000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sample_indices(seed: int, population: int, size: int) -> list[int]:
    return random.Random(seed).sample(range(population), min(size, population))


def self_check(checks: Checks, backend, rules) -> None:
    """The delayed backend must answer exactly as the bare mock does."""
    wrong = backend.mismatches(adapter.mock(rules))
    checks.record("chat_self_check", True, len(backend.sample) - wrong)
    checks.record("chat_self_check", False, wrong)


def setup_metrics(times: list[float], speed: HostSpeed) -> dict:
    """setup_s (at the reference speed), with the raw median beside it."""
    raw = statistics.median(times)
    return {
        "setup_s": (raw / speed.ratio(), "s"),
        "setup_raw_s": (raw, "s"),
        **speed.metrics("setup_"),
    }


def overshoot_metrics(backends) -> dict:
    """How much longer than nominal the injected waits took, per call."""
    calls = waited = 0.0
    for backend in backends:
        n, w = backend.totals()
        calls, waited = calls + n, waited + w
    return {"chat_overshoot_ms": ((waited / calls - CHAT_DELAY_S) * 1000 if calls else 0.0, "ms")}


def augment_and_index(store, miner, backend, workdir: Path, speed: HostSpeed | None = None) -> dict:
    """Mine and save the store, then build and save its index (both timed).

    ``backend`` is the miner's, if it injects waits; ``speed``, if given, is
    sampled between the two phases.
    """
    store_path, index_path = workdir / "store.jsonl", workdir / "index.json"
    embed = adapter.embedder(DIMENSION)
    with timed(backend, PARALLELISM) as augment:
        failures = adapter.augment(store, miner)
        adapter.save_store(store, store_path)
    if speed is not None:
        speed.sample()
    with timed() as indexing:
        index, skipped = adapter.build_index(store, embed)
        adapter.save_index(index, index_path)
    return {
        "augment": augment, "indexing": indexing, "index": index,
        "embed": embed, "failed": len(failures) + len(skipped),
        "store_bytes": store_path.stat().st_size, "index_bytes": index_path.stat().st_size,
        "indexed": len(adapter.index_rows(index)[0]),
    }


class Workload:
    name = ""
    phases: tuple[str, ...] = ()  # the timed phases of a pass, in order

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, speed: HostSpeed) -> dict:
        """One timed pass; ``speed`` is sampled between its phases."""
        raise NotImplementedError

    def setups(self):
        """Set up SETUP_REPEATS times and for SETUP_MIN_S, probing around each.

        Returns (set-up metrics, last state).
        """
        speed = HostSpeed()
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            speed.sample(1)
            start = clock()
            state = self.setup()
            times.append(clock() - start)
            speed.sample(1)
        return setup_metrics(times, speed), state

    def passes(self, seconds: float, tracer):
        """Set up, then run passes until ``seconds`` have gone.

        Every pass starts from a fresh set-up; the first pass uses the last
        of the timed ones. Returns (set-up metrics, pass results, host speed).
        """
        setups, state = self.setups()
        speed = HostSpeed()
        results = []
        spent = 0.0
        while not results or spent < seconds:
            if results:
                state = self.setup()
            if tracer is not None:
                tracer.op += 1
            speed.sample()
            result = self.run_pass(state, speed)
            spent += sum(result[phase].seconds for phase in self.phases)
            results.append(result)
        speed.sample()
        return setups, results, speed

    def rate(self, count: int, results, phases, ratio: float | None = None) -> float:
        """``count`` over the median time of ``phases`` in a pass.

        Raw wall time, or at the reference speed when ``ratio`` is given.
        """
        def seconds(timing):
            return timing.seconds if ratio is None else timing.at_reference(ratio)

        return count / statistics.median(sum(seconds(r[p]) for p in phases) for r in results)

    def batch_metrics(self, count: int, items: int, results, speed: HostSpeed) -> dict:
        """Timings of a batch workload: ``count`` results from ``items`` mined items.

        The bounded ones are at the reference speed, with their raw values beside them.
        """
        ratio = speed.ratio()
        return {
            "throughput_per_s": (self.rate(count, results, self.phases, ratio), "1/s"),
            "throughput_raw_per_s": (self.rate(count, results, self.phases), "1/s"),
            "augment_items_per_s": (self.rate(items, results, ["augment"], ratio), "1/s"),
            "augment_raw_items_per_s": (self.rate(items, results, ["augment"]), "1/s"),
            "index_items_per_s": (self.rate(items, results, ["indexing"]), "1/s"),
            **speed.metrics(),
            **overshoot_metrics(r["backend"] for r in results),
        }


# -- ingest-20k ----------------------------------------------------------------


class Ingest(Workload):
    name = "ingest-20k"
    phases = ("augment", "indexing")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.corpus = gen.entity_corpus(seed, ENTITY_ITEMS)
        self.raw_path = workdir / "items.jsonl"
        self.corpus.write_jsonl(self.raw_path)

    def inputs(self) -> dict:
        tokens, distinct, hit = gen.token_sharing(self.corpus.pair_tokens())
        return {"items": len(self.corpus.items), "pair_tokens": tokens,
                "distinct_pair_tokens": distinct, "embed_token_hit_ratio": round(hit, 4)}

    def setup(self):
        return adapter.load_store(self.raw_path)

    def run_pass(self, store, speed) -> dict:
        backend = adapter.latency_backend(self.corpus.rules, CHAT_DELAY_S)
        miner = adapter.entity_miner(backend, PARALLELISM)
        built = augment_and_index(store, miner, backend, self.workdir, speed)
        return dict(built, rss=peak_rss_mb(), store=store, backend=backend)

    def measure(self, seconds, tracer=None) -> dict:
        setups, results, speed = self.passes(seconds, tracer)
        n = len(self.corpus.items)
        last = results[-1]
        metrics = {
            **setups,
            **self.batch_metrics(n, n, results, speed),
            "index_bytes_per_item": (last["index_bytes"] / last["indexed"], "bytes"),
            "peak_rss_mb": (results[0]["rss"], "MB"),
        }
        return {
            "metrics": metrics, "attempted": n * len(results),
            "failed": sum(r["failed"] for r in results), "results": results,
            "store_bytes_per_item": last["store_bytes"] / n,
        }

    def check(self, measured) -> Checks:
        """Mined pairs on a sample, then bitwise store and index round trips."""
        checks = Checks()
        last = measured["results"][-1]
        store, index = last["store"], last["index"]
        ids = adapter.store_ids(store)
        for i in sample_indices(self.seed, len(ids), MINED_PAIR_SAMPLE):
            checks.record("mined_pairs", adapter.pairs_of(store, ids[i]) == self.corpus.expected(i))
        store_path = self.workdir / "store.jsonl"
        again = self.workdir / "store.again.jsonl"
        reloaded = adapter.load_store(store_path)
        adapter.save_store(reloaded, again)
        checks.record(
            "store_round_trip",
            again.read_bytes() == store_path.read_bytes() and adapter.same_entries(store, reloaded),
        )
        del reloaded
        before = adapter.index_rows(index)
        after = adapter.index_rows(adapter.load_index(self.workdir / "index.json"))
        checks.record(
            "index_round_trip",
            before[0] == after[0] and before[2:] == after[2:]
            and before[1].tobytes() == after[1].tobytes(),
        )
        for r in measured["results"]:
            self_check(checks, r["backend"], self.corpus.rules)
        return checks


# -- serve-20k -----------------------------------------------------------------


def fixture_dir(root: Path) -> Path:
    """Cache directory of the serve fixture, keyed by everything that builds it."""
    digest = hashlib.sha256()
    digest.update(repr((SERVE_FIXTURE_SEED, ENTITY_ITEMS, DIMENSION)).encode())
    bench = Path(__file__).resolve().parent
    for path in sorted(adapter.PACKAGE_DIR.rglob("*.py")) + sorted(bench.glob("*.py")):
        digest.update(path.read_bytes())
    return root / f"serve-fixture-{digest.hexdigest()[:16]}"


def build_serve_fixture(target: Path) -> None:
    """Mine, store and index the serve corpus with the undelayed mock."""
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    corpus = gen.entity_corpus(SERVE_FIXTURE_SEED, ENTITY_ITEMS)
    corpus.write_jsonl(tmp / "items.jsonl")
    store = adapter.load_store(tmp / "items.jsonl")
    augment_and_index(store, adapter.entity_miner(adapter.mock(corpus.rules), PARALLELISM), None, tmp)
    os.replace(tmp, target)


class Serve(Workload):
    """The corpus is one fixed fixture, cached per checkout; the seed drives the requests."""

    name = "serve-20k"

    def __init__(self, seed, workdir, fixture: Path):
        super().__init__(seed, workdir)
        if not fixture.is_dir():
            # A child process builds it, so its memory does not count here.
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
                 "--build-serve-fixture", str(fixture)],
                check=True, timeout=600,
            )
        self.fixture = fixture
        self.corpus = gen.entity_corpus(SERVE_FIXTURE_SEED, ENTITY_ITEMS)
        self.hot = gen.add_query_rules(self.corpus, seed)
        # Attribute names each stored item holds, in store order.
        self.base_entries = [
            (item["id"], {name for name, _ in self.corpus.expected(i)})
            for i, item in enumerate(self.corpus.items)
        ]

    def inputs(self) -> dict:
        tokens, distinct, hit = gen.token_sharing(self.corpus.pair_tokens())
        return {"items": len(self.corpus.items), "pair_tokens": tokens,
                "distinct_pair_tokens": distinct, "embed_token_hit_ratio": round(hit, 4),
                "query_pair_tokens": len(self.hot)}

    def setup(self):
        store = adapter.load_store(self.fixture / "store.jsonl")
        index = adapter.load_index(self.fixture / "index.json")
        return store, index

    def loop(self, state, tracer, seconds: float) -> dict:
        """One closed-loop client: the next request goes out when the last returns."""
        store, index = state
        backend = adapter.latency_backend(self.corpus.rules, CHAT_DELAY_S)
        miner = adapter.entity_miner(backend, PARALLELISM)
        embed = adapter.embedder(DIMENSION)
        if tracer is not None:
            tracer.active = False
        # Warm the token cache with every word a query can contain.
        for word in ["what", "do", "we", "know", "about", "and", *gen.ENTITY_NAMES, *self.hot]:
            embed.embed(word)
        if tracer is not None:
            tracer.active = True
        ops = gen.serve_ops(self.corpus, self.hot, self.seed)
        speed = HostSpeed()
        records = []
        written = 0
        probed = 0.0  # loop time spent in probes, not counted as work
        next_probe = 0.0
        start = clock()
        while clock() - start - probed < seconds:
            if clock() - start - probed >= next_probe:
                probed += speed.sample(1)
                next_probe += PROBE_INTERVAL_S
            op = next(ops)
            if tracer is not None:
                tracer.op += 1
            error, result = None, None
            with timed(backend) as timing:
                try:
                    if op.kind == "write":
                        result = adapter.write_item(store, miner, op.item_id, op.text)
                    else:
                        result = adapter.ask(store, miner, op.text, op.kind, index, embed, K)
                except adapter.OP_ERRORS as exc:
                    error = repr(exc)
            records.append((op, timing, result, error, written))
            if op.kind == "write" and result is not None:
                written += 1
        pass_s = clock() - start - probed
        speed.sample()
        return {"pass_s": pass_s, "records": records, "rss": peak_rss_mb(), "speed": speed,
                "index": index, "embed": embed, "backend": backend}

    def measure(self, seconds, tracer=None) -> dict:
        setups, state = self.setups()
        if tracer is not None:
            tracer.op += 1
        result = self.loop(state, tracer, seconds)
        records = result["records"]
        latency = {kind: [r[1].seconds * 1000 for r in records if r[0].kind == kind]
                   for kind in ("embed", "attr", "write")}
        if not all(latency.values()):
            raise RuntimeError("the serve loop missed an operation kind; raise --seconds")
        speed = result["speed"]
        ratio = speed.ratio()
        ops = len(records)
        writes = [r[1] for r in records if r[0].kind == "write"]
        index_bytes = (self.fixture / "index.json").stat().st_size
        metrics = {
            **setups,
            "throughput_per_s": (ops / sum(r[1].at_reference(ratio) for r in records), "1/s"),
            "throughput_raw_per_s": (ops / sum(r[1].seconds for r in records), "1/s"),
            **speed.metrics(),
            **overshoot_metrics([result["backend"]]),
            "ops_per_s": (ops / result["pass_s"], "1/s"),
            "embed_query_p50_ms": (percentile(latency["embed"], 50), "ms"),
            "embed_query_p99_ms": (percentile(latency["embed"], 99), "ms"),
            "attr_query_p50_ms": (percentile(latency["attr"], 50), "ms"),
            "attr_query_p99_ms": (percentile(latency["attr"], 99), "ms"),
            "write_p50_ms": (percentile(latency["write"], 50), "ms"),
            "augment_items_per_s": (1 / percentile([w.at_reference(ratio) for w in writes], 50), "1/s"),
            "augment_raw_items_per_s": (1000 / percentile(latency["write"], 50), "1/s"),
            "index_bytes_per_item": (index_bytes / len(adapter.index_rows(result["index"])[0]), "bytes"),
            "peak_rss_mb": (result["rss"], "MB"),
        }
        return {
            "metrics": metrics, "attempted": len(records),
            "failed": sum(1 for r in records if r[3] is not None), "results": [result],
            "samples": {kind: len(values) for kind, values in latency.items()},
            "store_bytes_per_item": (self.fixture / "store.jsonl").stat().st_size / ENTITY_ITEMS,
        }

    def check(self, measured) -> Checks:
        """Mined names and pairs on every op; top-k and attribute oracles on a sample.

        The store only grows, so an attribute query issued after ``written``
        writes must match a scan of the fixture plus those first writes.
        """
        checks = Checks()
        result = measured["results"][0]
        ids, vectors, _, _ = adapter.index_rows(result["index"])
        exact = ExactIndex(ids, vectors)
        entries = list(self.base_entries)
        seen = {"embed": 0, "attr": 0}
        for op, _, got, error, written in result["records"]:
            if error is not None:
                continue
            if op.kind == "write":
                checks.record("mined_pairs", got == list(op.expected))
                if got is not None:
                    entries.append((op.item_id, {name for name, _ in op.expected}))
                continue
            names = list(dict.fromkeys(name for name, _ in op.expected))
            attributes, hits = got
            checks.record("mined_question", list(attributes) == names)
            seen[op.kind] += 1
            if seen[op.kind] % ORACLE_EVERY:
                continue
            if op.kind == "embed":
                vector = adapter.query_vector(op.text, attributes, result["index"], result["embed"])
                checks.record("embed_topk", exact.is_topk(vector, hits, K))
            else:
                visible = entries[: len(self.base_entries) + written]
                checks.record("attr_topk", same_hits(hits, attribute_topk(visible, names, K)))
        self_check(checks, result["backend"], self.corpus.rules)
        return checks


# -- qa-pipeline ---------------------------------------------------------------


class QAPipeline(Workload):
    name = "qa-pipeline"
    phases = ("augment", "indexing", "qa")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.conv = gen.conversation(seed, QA_SESSIONS, QA_TURNS, QA_QUESTIONS)
        self.dataset_path = workdir / "dataset.json"
        self.conv.write_json(self.dataset_path)

    def inputs(self) -> dict:
        tokens, distinct, hit = gen.token_sharing(self.conv.pair_tokens())
        return {"turns": len(self.conv.turn_texts), "questions": QA_QUESTIONS,
                "pair_tokens": tokens, "distinct_pair_tokens": distinct,
                "embed_token_hit_ratio": round(hit, 4)}

    def setup(self):
        dataset = adapter.load_dataset(self.dataset_path)
        return dataset, adapter.store_from_sessions(dataset)

    def run_pass(self, state, speed) -> dict:
        dataset, store = state
        backend = adapter.latency_backend(self.conv.rules, CHAT_DELAY_S)
        miner = adapter.turn_miner(backend, PARALLELISM)
        built = augment_and_index(store, miner, backend, self.workdir, speed)
        speed.sample()
        with timed(backend) as qa:
            recall, rows = adapter.run_qa(
                dataset, store, miner, backend, built["index"], built["embed"], K
            )
        return dict(built, qa=qa, recall=recall, rows=rows, rss=peak_rss_mb(), store=store,
                    backend=backend)

    def measure(self, seconds, tracer=None) -> dict:
        setups, results, speed = self.passes(seconds, tracer)
        turns = len(self.conv.turn_texts)
        last = results[-1]
        metrics = {
            **setups,
            **self.batch_metrics(QA_QUESTIONS, turns, results, speed),
            "qa_examples_per_s": (self.rate(QA_QUESTIONS, results, ["qa"]), "1/s"),
            "pipeline_s": (QA_QUESTIONS / self.rate(QA_QUESTIONS, results, self.phases), "s"),
            "qa_recall_at_5": (last["recall"], "ratio"),
            "index_bytes_per_item": (last["index_bytes"] / last["indexed"], "bytes"),
            "peak_rss_mb": (results[0]["rss"], "MB"),
        }
        row_errors = sum(1 for r in results for row in r["rows"] if row[2] is not None)
        return {
            "metrics": metrics, "attempted": (turns + QA_QUESTIONS) * len(results),
            "failed": sum(r["failed"] for r in results) + row_errors, "results": results,
            "store_bytes_per_item": last["store_bytes"] / turns,
        }

    def check(self, measured) -> Checks:
        """Mined pairs on a sample of turns; top-k oracle on a sample of questions."""
        checks = Checks()
        for r in measured["results"]:
            store = r["store"]
            ids = adapter.store_ids(store)
            for i in sample_indices(self.seed, len(ids), MINED_PAIR_SAMPLE):
                want = gen.expected_pairs(self.conv.turn_texts[ids[i]], self.conv.rules)
                checks.record("mined_pairs", adapter.pairs_of(store, ids[i]) == want)
            index_ids, vectors, _, _ = adapter.index_rows(r["index"])
            exact = ExactIndex(index_ids, vectors)
            for q, (question, retrieved, error) in enumerate(r["rows"]):
                if error is not None or q % QA_ORACLE_EVERY:
                    continue
                names = [name for name, _ in gen.expected_pairs(question, self.conv.rules)]
                vector = adapter.query_vector(question, names, r["index"], r["embed"])
                scores = exact.scores(vector)
                # QA rows carry ids only, so order and membership are what is checked.
                hits = [(item_id, float(scores[exact.position[item_id]])) for item_id in retrieved]
                checks.record("embed_topk", exact.is_topk(vector, hits, K))
            self_check(checks, r["backend"], self.conv.rules)
        return checks


WORKLOADS = {cls.name: cls for cls in (Ingest, Serve, QAPipeline)}
