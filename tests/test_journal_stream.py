"""Streaming journal tails: monotone prefixes under every failure mode.

The invariant under test (repro.service.progress.JournalTail): the
record sequence a tail has yielded is always a monotonically growing
prefix of the journal — records are never yielded twice, never skipped,
and never yielded torn, under torn tails, concurrent appends and any
``REPRO_JOURNAL_FLUSH`` batching.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.harness.parallel import (
    ResultCache,
    SimJob,
    SweepJournal,
    journal_flush_interval,
    register_job_kind,
    run_jobs,
    sweep_id,
)
from repro.service.progress import JournalTail


def _record(index):
    return {"event": "job_done", "key": f"k{index:03d}", "attempt": 1}


def _write_lines(path, records, tail_fragment=""):
    body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    path.write_text(body + tail_fragment, encoding="utf-8")


register_job_kind("stream_double", lambda p: {"doubled": p["value"] * 2})


def _jobs(count):
    return [
        SimJob(kind="stream_double", params={"value": index})
        for index in range(count)
    ]


class TestTornTail:
    def test_missing_file_is_empty_poll(self, tmp_path):
        tail = JournalTail(tmp_path / "absent.jsonl")
        assert tail.poll() == []
        assert tail.progress() == {"completed": 0, "total": None, "done": False}

    def test_unterminated_line_left_for_next_poll(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        records = [_record(0), _record(1)]
        torn = json.dumps(_record(2), sort_keys=True)[:-7]  # mid-append
        _write_lines(path, records, tail_fragment=torn)

        tail = JournalTail(path)
        assert tail.poll() == records
        assert tail.poll() == [], "torn tail must not be consumed"

        # The writer finishes the append: exactly the completed record
        # arrives, no duplicate of the earlier ones.
        _write_lines(path, records + [_record(2)])
        assert tail.poll() == [_record(2)]
        assert tail.completed() == 3

    def test_terminated_garbage_stops_consumption(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_record(0), sort_keys=True) + "\n")
            handle.write("{torn-but-terminated\n")
            handle.write(json.dumps(_record(1), sort_keys=True) + "\n")
        tail = JournalTail(path)
        # Only the clean prefix: the reader never guesses past damage.
        assert tail.poll() == [_record(0)]
        assert tail.poll() == []


class TestConcurrentAppend:
    def test_reader_sees_monotone_prefix_of_live_writer(self, tmp_path):
        path = tmp_path / "live.jsonl"
        total = 200
        stop = threading.Event()
        observed = []

        def writer():
            journal = SweepJournal(path, fsync_interval=7)
            for index in range(total):
                journal.append(_record(index))
            journal.close()
            stop.set()

        def reader():
            tail = JournalTail(path)
            while not stop.is_set():
                observed.extend(tail.poll())
            observed.extend(tail.poll())  # final catch-up

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        # Exactly every record, in order, exactly once.
        assert observed == [_record(index) for index in range(total)]


class TestFlushBoundaries:
    @pytest.mark.parametrize("flush", ["1", "5", "1000"])
    def test_sweep_journal_streams_under_any_fsync_batching(
        self, tmp_path, monkeypatch, flush
    ):
        monkeypatch.setenv("REPRO_JOURNAL_FLUSH", flush)
        cache = ResultCache(tmp_path)
        jobs = _jobs(6)
        path = cache.root / "journals" / f"{sweep_id(jobs)}.jsonl"
        tail = JournalTail(path)

        seen = [tail.poll()]  # before the sweep: nothing
        run_jobs(jobs, workers=1, cache=cache)
        seen.append(tail.poll())

        assert seen[0] == []
        events = [record["event"] for record in seen[1]]
        assert events[0] == "sweep_start"
        assert events.count("job_done") == 6
        assert events[-1] == "sweep_complete"
        assert tail.progress() == {"completed": 6, "total": 6, "done": True}

        # A second tail from scratch replays the identical sequence:
        # the journal itself is complete regardless of fsync batching.
        replay = JournalTail(path)
        assert replay.poll() == tail.records

    def test_unparsable_flush_interval_warns_and_falls_back(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_JOURNAL_FLUSH", "often")
        with caplog.at_level("WARNING", logger="repro.harness.parallel"):
            assert journal_flush_interval(default=7) == 7
        warnings = [
            r for r in caplog.records if "REPRO_JOURNAL_FLUSH" in r.message
        ]
        assert len(warnings) == 1 and "'often'" in warnings[0].message

    def test_mid_sweep_polls_grow_monotonically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_FLUSH", "3")
        cache = ResultCache(tmp_path)
        jobs = _jobs(8)
        path = cache.root / "journals" / f"{sweep_id(jobs)}.jsonl"
        tail = JournalTail(path)
        lengths = []

        original = SweepJournal.append

        def spying_append(self, record):
            original(self, record)
            if self.path == path:
                tail.poll()
                lengths.append(len(tail.records))

        monkeypatch.setattr(SweepJournal, "append", spying_append)
        run_jobs(jobs, workers=1, cache=cache)

        # Polled after every append: lengths never decrease and records
        # arrive in journal order (flushed per append even when fsync is
        # batched, so a live reader is at most one append behind).
        assert lengths == sorted(lengths)
        assert tail.records == SweepJournal.load(path)
        assert tail.completed() == 8 and tail.done()
