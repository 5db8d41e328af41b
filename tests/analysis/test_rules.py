"""Fixture-snippet tests: every rule fires on a known-bad snippet.

Each positive fixture is modeled on a real bug from this repo's
history (the PR 6 blocking-I/O-in-handler bug, the PR 7 flush race);
each negative fixture is the shape the fix landed in.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Module, parse_suppressions, run_check
from repro.analysis.rules import all_rules, get_rule, select_rules


def _module(source: str, display: str = "snippet.py") -> Module:
    source = textwrap.dedent(source)
    return Module(
        path=Path(display),
        display=display,
        source=source,
        tree=ast.parse(source),
        suppressions=parse_suppressions(source),
    )


def _check(rule_id: str, source: str, display: str = "snippet.py"):
    rule = get_rule(rule_id)
    module = _module(source, display)
    findings = list(rule.check_module(module))
    findings.extend(rule.check_project([module]))
    return findings


# ----------------------------------------------------------------------
# RA001 — blocking calls in async bodies
# ----------------------------------------------------------------------
class TestNoBlockingInAsync:
    def test_pr6_blocking_io_in_handler(self):
        # The PR 6 bug shape: a request handler doing disk I/O inline
        # on the event loop instead of pushing it to a worker thread.
        findings = _check(
            "RA001",
            """\
            async def handle_frame(self, body):
                payload = open(self.corpus_path, "rb").read()
                return payload
            """,
        )
        assert len(findings) == 1
        assert "open(...)" in findings[0].message
        assert findings[0].line == 2

    def test_time_sleep_and_socket_ops(self):
        findings = _check(
            "RA001",
            """\
            async def poll(sock):
                time.sleep(0.1)
                sock.sendall(b"ping")
                return sock.recv(4)
            """,
        )
        assert [f.line for f in findings] == [2, 3, 4]

    def test_sync_lock_in_async_def(self):
        findings = _check(
            "RA001",
            """\
            async def bump(self):
                with self.counters_lock:
                    self.requests += 1
            """,
        )
        assert len(findings) == 1
        assert "counters_lock" in findings[0].message

    def test_lock_acquire_in_async_def(self):
        findings = _check(
            "RA001",
            """\
            async def bump(self):
                self.lock.acquire()
                self.lock.release()
            """,
        )
        assert len(findings) == 1
        assert "acquire" in findings[0].message

    def test_to_thread_wrapped_is_clean(self):
        # The PR 6 fix shape: the blocking work is *referenced*, not
        # called, and runs on a worker thread.
        assert not _check(
            "RA001",
            """\
            async def handle_frame(self, body):
                return await asyncio.to_thread(self._handle_get, body)
            """,
        )

    def test_nested_sync_helper_not_scanned(self):
        assert not _check(
            "RA001",
            """\
            async def outer(self):
                def helper():
                    time.sleep(1)
                return await asyncio.to_thread(helper)
            """,
        )

    def test_sync_function_untouched(self):
        assert not _check(
            "RA001",
            """\
            def warm(path):
                return open(path, "rb").read()
            """,
        )

    def test_cache_facade_calls_on_the_loop(self):
        # The sweep service's bug shape: end summaries and skip errors
        # read through the cache facade inline, so a worker holding the
        # cache lock across a hung remote round trip stalls the loop.
        findings = _check(
            "RA001",
            """\
            async def sweep_events(self, explorer, fingerprint):
                summary = self.cache.stats_dict()
                error = explorer.cache.get_error(fingerprint)
                self._cache.store_many({})
                return summary, error
            """,
        )
        assert [f.line for f in findings] == [2, 3, 4]
        assert "self.cache.stats_dict(...)" in findings[0].message
        assert "explorer.cache.get_error(...)" in findings[1].message

    def test_cache_facade_through_to_thread_is_clean(self):
        # The fix shape: the facade method is referenced, not called,
        # and non-facade methods or non-cache receivers stay quiet.
        assert not _check(
            "RA001",
            """\
            async def sweep_events(self, fingerprints):
                summary = await asyncio.to_thread(self.cache.stats_dict)
                self.pending.clear()
                self.queue.flush()
                return summary, self.cache.max_entries
            """,
        )


# ----------------------------------------------------------------------
# RA002 — lock held across await / blocking I/O
# ----------------------------------------------------------------------
class TestNoLockAcrossAwait:
    def test_await_under_with_lock(self):
        findings = _check(
            "RA002",
            """\
            async def serve(self):
                with self.lock:
                    await self.backend.get(1)
            """,
        )
        assert len(findings) == 1
        assert "await" in findings[0].message

    def test_pr7_flush_race_fixture(self):
        # The PR 7 write-behind flush race: flush() slept *inside* the
        # state lock while the background flusher needed it.
        findings = _check(
            "RA002",
            """\
            def flush(self, timeout=None):
                with self._state_lock:
                    if not self._push(self._take_batch_locked()):
                        time.sleep(self.retry_seconds)
            """,
        )
        assert len(findings) == 1
        assert "_state_lock" in findings[0].message
        assert "time.sleep" in findings[0].message

    def test_pr7_fix_shape_is_clean(self):
        # The landed fix: take the batch under the lock, sleep outside.
        assert not _check(
            "RA002",
            """\
            def flush(self, timeout=None):
                with self._state_lock:
                    batch = self._take_batch_locked()
                if not self._push(batch):
                    time.sleep(self.retry_seconds)
            """,
        )

    def test_bare_acquire_tracked_until_release(self):
        findings = _check(
            "RA002",
            """\
            def push(self):
                self._io_lock.acquire()
                self.sock.sendall(b"x")
                self._io_lock.release()
                self.sock.sendall(b"y")
            """,
        )
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_async_with_and_async_for_flagged(self):
        findings = _check(
            "RA002",
            """\
            async def stream(self):
                with self.lock:
                    async with self.session:
                        pass
            """,
        )
        assert len(findings) == 1
        assert "async with" in findings[0].message

    def test_non_lock_with_is_clean(self):
        assert not _check(
            "RA002",
            """\
            async def load(self):
                with self.tracer:
                    await self.backend.get(1)
            """,
        )


# ----------------------------------------------------------------------
# RA003 — lock-ordering consistency
# ----------------------------------------------------------------------
class TestLockOrderConsistency:
    def test_opposite_orders_flagged(self):
        rule = get_rule("RA003")
        module_a = _module(
            """\
            def close(self):
                with self.pool_lock:
                    with self.cache_lock:
                        pass
            """,
            "a.py",
        )
        module_b = _module(
            """\
            def evaluate(self):
                with self.cache_lock:
                    with self.pool_lock:
                        pass
            """,
            "b.py",
        )
        findings = list(rule.check_project([module_a, module_b]))
        assert len(findings) == 1
        assert "inconsistent lock order" in findings[0].message
        assert "pool_lock" in findings[0].message
        assert "cache_lock" in findings[0].message

    def test_consistent_nesting_is_clean(self):
        rule = get_rule("RA003")
        module_a = _module(
            """\
            def rpc(self):
                with self._io_lock:
                    with self._state_lock:
                        pass

            def other(self):
                with self._io_lock:
                    self._state_lock.acquire()
            """,
            "a.py",
        )
        assert not list(rule.check_project([module_a]))

    def test_self_nesting_flagged(self):
        # `with lock: with lock:` deadlocks unless the lock is an
        # RLock — the cycle detector treats it as a one-node cycle.
        rule = get_rule("RA003")
        module = _module(
            """\
            def reenter(self):
                with self.lock:
                    with self.lock:
                        pass
            """,
        )
        findings = list(rule.check_project([module]))
        assert len(findings) == 1

    def test_acquire_under_with_contributes_edge(self):
        rule = get_rule("RA003")
        module = _module(
            """\
            def one(self):
                with self.a_lock:
                    self.b_lock.acquire()

            def two(self):
                with self.b_lock:
                    self.a_lock.acquire()
            """,
        )
        assert len(list(rule.check_project([module]))) == 1


# ----------------------------------------------------------------------
# RA004 — protocol/codec cross-consistency
# ----------------------------------------------------------------------
_DECL = """\
COMPACT_MAGIC = b"\\x93RPC"
_U32 = struct.Struct("<I")
RECORD_VERSION = 3
"""

_CONS = """\
HELLO_MAGIC = b"\\x93RCS"
_U32 = struct.Struct("<I")
OP_GET = 2
OP_PUT = 3
STATUS_OK = 0
STATUS_ERROR = 1
"""


class TestProtocolConsistency:
    @staticmethod
    def _modules(decl: str, cons: str):
        return [
            _module(decl, "src/repro/costs/report.py"),
            _module(cons, "src/repro/cacheserver/protocol.py"),
        ]

    @classmethod
    def _run(cls, decl: str, cons: str):
        rule = get_rule("RA004")
        modules = [
            _module(decl, "src/repro/costs/report.py"),
            _module(cons, "src/repro/cacheserver/protocol.py"),
        ]
        # check_project locates the two files by path suffix.
        for module, suffix in zip(
            modules, (("costs", "report.py"), ("cacheserver", "protocol.py"))
        ):
            assert module.path.parts[-2:] == suffix
        return list(rule.check_project(modules))

    def test_matching_tables_clean(self):
        assert not self._run(_DECL, _CONS)

    def test_shared_struct_format_mismatch(self):
        bad = _CONS.replace('_U32 = struct.Struct("<I")', '_U32 = struct.Struct(">I")')
        findings = self._run(_DECL, bad)
        assert len(findings) == 1
        assert "_U32" in findings[0].message

    def test_duplicate_opcode(self):
        bad = _CONS.replace("OP_PUT = 3", "OP_PUT = 2")
        findings = self._run(_DECL, bad)
        assert len(findings) == 1
        assert "must be unique" in findings[0].message

    def test_duplicate_status(self):
        bad = _CONS.replace("STATUS_ERROR = 1", "STATUS_ERROR = 0")
        findings = self._run(_DECL, bad)
        assert len(findings) == 1

    def test_magic_collision(self):
        bad = _CONS.replace('b"\\x93RCS"', 'b"\\x93RPC"')
        findings = self._run(_DECL, bad)
        assert len(findings) == 1
        assert "byte prefix" in findings[0].message

    def test_inactive_without_both_files(self):
        rule = get_rule("RA004")
        assert not list(
            rule.check_project([_module(_DECL, "src/repro/costs/report.py")])
        )


# ----------------------------------------------------------------------
# RA005 — CacheBackend implementer contract
# ----------------------------------------------------------------------
_BACKEND_BODY = """\
    def get(self, key):
        return None

    def put(self, key, value):
        pass

    def clear(self):
        pass

    def __len__(self):
        return 0
"""


class TestBackendContract:
    def test_missing_bulk_hooks(self):
        findings = _check(
            "RA005",
            "class SlowBackend:\n" + _BACKEND_BODY,
        )
        assert len(findings) == 2
        hooks = {
            ("lookup_many" in f.message, "store_many" in f.message)
            for f in findings
        }
        assert hooks == {(True, False), (False, True)}

    def test_full_surface_is_clean(self):
        source = (
            "class GoodBackend:\n"
            + _BACKEND_BODY
            + """\

    def lookup_many(self, keys):
        return {}

    def store_many(self, entries):
        pass
"""
        )
        assert not _check("RA005", source)

    def test_oracle_call_flagged(self):
        source = (
            "class CheatingBackend:\n"
            + _BACKEND_BODY
            + """\

    def lookup_many(self, keys):
        return {k: run_pmm(self.requests[k]) for k in keys}

    def store_many(self, entries):
        pass
"""
        )
        findings = _check("RA005", source)
        assert len(findings) == 1
        assert "oracle" in findings[0].message

    def test_protocol_class_exempt(self):
        assert not _check(
            "RA005",
            "class CacheBackend(Protocol):\n" + _BACKEND_BODY,
        )

    def test_partial_class_not_a_backend(self):
        # A mapping-ish class that lacks the full backend surface is
        # not held to the backend contract.
        assert not _check(
            "RA005",
            """\
            class Index:
                def get(self, key):
                    return None

                def __len__(self):
                    return 0
            """,
        )


# ----------------------------------------------------------------------
# RA006 — swallowed exceptions
# ----------------------------------------------------------------------
class TestNoSwallowedExceptions:
    @pytest.mark.parametrize(
        "handler",
        ["except Exception:", "except BaseException:", "except:"],
    )
    def test_broad_swallow_flagged(self, handler):
        findings = _check(
            "RA006",
            f"""\
            def flush_loop(self):
                try:
                    self._push()
                {handler}
                    pass
            """,
        )
        assert len(findings) == 1

    def test_tuple_with_broad_member_flagged(self):
        findings = _check(
            "RA006",
            """\
            def flush_loop(self):
                try:
                    self._push()
                except (OSError, Exception):
                    pass
            """,
        )
        assert len(findings) == 1

    def test_narrow_handler_exempt(self):
        assert not _check(
            "RA006",
            """\
            def close_socket(sock):
                try:
                    sock.close()
                except OSError:
                    pass
            """,
        )

    def test_counter_increment_is_handling(self):
        # The PR 9 _discard_pool fix shape: the failure is counted.
        assert not _check(
            "RA006",
            """\
            def discard(self, pool):
                try:
                    pool.shutdown(wait=False)
                except Exception:
                    self._pool_discard_failures += 1
            """,
        )

    def test_logging_is_handling(self):
        assert not _check(
            "RA006",
            """\
            def flush_loop(self):
                try:
                    self._push()
                except Exception:
                    log.warning("push failed")
            """,
        )

    def test_reraise_is_handling(self):
        assert not _check(
            "RA006",
            """\
            def flush_loop(self):
                try:
                    self._push()
                except Exception:
                    raise
            """,
        )


# ----------------------------------------------------------------------
# RA007 — strategies never evaluate inside propose()
# ----------------------------------------------------------------------
class TestStrategyProposePurity:
    def test_oracle_call_in_propose(self):
        # The layering inversion the PR 10 driver refactor forbids: a
        # strategy running the oracle itself while nominating points.
        findings = _check(
            "RA007",
            """\
            class EagerStrategy:
                def propose(self, state):
                    result = run_pmm(self.program, self.budget)
                    return [result.point]

                def observe(self, records):
                    pass
            """,
        )
        assert len(findings) == 1
        assert "the oracle" in findings[0].message
        assert "EagerStrategy" in findings[0].message

    def test_evaluate_many_in_propose(self):
        findings = _check(
            "RA007",
            """\
            class PeekingStrategy:
                def propose(self, state):
                    records = self.explorer.evaluate_many(self.batch, "peek")
                    return [r.point for r in records if r.cache_hit]

                def observe(self, records):
                    pass
            """,
        )
        assert len(findings) == 1
        assert "the evaluation engine" in findings[0].message

    def test_cache_backend_in_propose_helper(self):
        # Hiding the probe in a same-class helper does not evade the
        # rule: propose's reachable slice is scanned transitively.
        findings = _check(
            "RA007",
            """\
            class ProbingStrategy:
                def propose(self, state):
                    return self._warm_points()

                def _warm_points(self):
                    return [
                        point
                        for point in self.pending
                        if self.cache.get(self.keys[point]) is not None
                    ]

                def observe(self, records):
                    pass
            """,
        )
        assert len(findings) == 1
        assert "the cache backend" in findings[0].message
        assert "via helper '_warm_points'" in findings[0].message

    def test_clean_strategy_passes(self):
        # The shape the real strategies landed in: propose nominates,
        # observe digests, evaluation stays in the driver.
        findings = _check(
            "RA007",
            """\
            class LazySweep:
                def propose(self, state):
                    size = self.batch_size
                    remaining = state.remaining_points()
                    if remaining is not None:
                        size = min(size, max(1, remaining))
                    batch = list(itertools.islice(self._iterator, size))
                    return batch or None

                def observe(self, records):
                    for record in records:
                        self._seen[record.point] = record
            """,
        )
        assert findings == []

    def test_observe_may_touch_sessions_and_dict_get(self):
        # observe() logging to a session and plain dict .get calls in
        # propose are both fine — only oracle/engine/backend surfaces
        # inside propose's slice are flagged.
        findings = _check(
            "RA007",
            """\
            class DecidingStrategy:
                def propose(self, state):
                    return [p for p in self.pending if self._seen.get(p) is None]

                def observe(self, records):
                    for record in records:
                        self.session.log_record(record)
                    self.session.choose(self.step, records[0].label)
            """,
        )
        assert findings == []

    def test_non_strategy_classes_exempt(self):
        # A class without the propose/observe pair is not a strategy;
        # the evaluation engine itself calls the oracle by design.
        findings = _check(
            "RA007",
            """\
            class Explorer:
                def propose(self, state):
                    return run_pmm(self.program, self.budget)
            """,
        )
        assert findings == []

    def test_real_strategies_are_clean(self):
        rule = get_rule("RA007")
        path = (
            Path(__file__).resolve().parents[2]
            / "src"
            / "repro"
            / "explore"
            / "strategies.py"
        )
        source = path.read_text(encoding="utf-8")
        module = _module(source, "src/repro/explore/strategies.py")
        assert list(rule.check_module(module)) == []


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_pack_is_complete(self):
        assert [r.rule_id for r in all_rules()] == [
            "RA001",
            "RA002",
            "RA003",
            "RA004",
            "RA005",
            "RA006",
            "RA007",
        ]

    def test_metadata_present(self):
        for rule in all_rules():
            assert rule.name and rule.title
            assert rule.rationale, f"{rule.rule_id} has no historical bug"
            assert rule.explain

    def test_lookup_by_id_and_name(self):
        assert get_rule("RA002") is get_rule("no-lock-across-await")
        with pytest.raises(KeyError):
            get_rule("RA999")

    def test_select_rules(self):
        assert select_rules(None) == all_rules()
        subset = select_rules(["RA001", "no-swallowed-exceptions"])
        assert [r.rule_id for r in subset] == ["RA001", "RA006"]


def test_full_check_applies_suppressions(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "async def f(sock):\n"
        "    sock.sendall(b'x')  # repro: allow[RA001] fixture: loopback only\n"
        "    time.sleep(1)\n",
        encoding="utf-8",
    )
    report = run_check([tmp_path], all_rules())
    assert len(report.findings) == 2
    suppressed = [f for f in report.findings if f.suppressed]
    assert len(suppressed) == 1
    assert suppressed[0].reason == "fixture: loopback only"
    assert not report.ok  # the unsuppressed time.sleep still fails
