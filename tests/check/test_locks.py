"""The lock-discipline analyzer: seeded defects, suppressions, and the
real tree's clean bill."""

import textwrap

from repro.check import check_lock_discipline, default_lock_paths


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return check_lock_discipline([path])


def test_unguarded_access_fires_chk601(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock

            def bump(self):
                self.hits += 1

            def bump_safely(self):
                with self._lock:
                    self.hits += 1
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]
    assert "hits" in diags[0].message
    assert "mod.py:10" == diags[0].location


def test_suppression_and_init_are_exempt(tmp_path):
    assert lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock
                self.hits = 1  # construction happens-before sharing

            def racy_read(self):
                return self.hits  # unguarded-ok
        """,
    ) == []


def test_standalone_comment_annotates_next_line_only(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                # guarded-by: _lock
                self.hits = 0
                self.safe_to_read = True  # NOT annotated

            def bad(self):
                return self.hits

            def fine(self):
                return self.safe_to_read
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]


def test_nested_function_starts_with_no_locks(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock

            def bump_later(self):
                with self._lock:
                    def callback():
                        self.hits += 1  # runs after the with exits
                    return callback
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]


def test_attribute_chains_resolve_through_unique_annotations(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.deduped = 0  # guarded-by: _lock

        class Service:
            def __init__(self):
                self.stats = Stats()

            def good(self):
                with self.stats._lock:
                    self.stats.deduped += 1

            def bad(self):
                self.stats.deduped += 1

            def out_of_scope(self, outcome):
                return outcome.deduped  # not self-rooted
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]
    assert diags[0].location.endswith(":18")


def test_conflicting_annotations_fire_chk602(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading

        class Confused:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self.x = 0  # guarded-by: _a
                self.x = 1  # guarded-by: _b
        """,
    )
    assert [d.code for d in diags] == ["CHK602"]


def test_dataclass_fields_annotate_in_class_body(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class Stats:
            started: int = 0  # guarded-by: _lock
            _lock: threading.Lock = field(default_factory=threading.Lock)

            def bump(self):
                self.started += 1
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]


def test_method_calls_on_guarded_fields_check_the_receiver(tmp_path):
    diags = lint_source(
        tmp_path,
        """
        import threading
        from collections import OrderedDict

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._memory = OrderedDict()  # guarded-by: _lock

            def bad(self, key):
                self._memory.move_to_end(key)

            def good(self, key):
                with self._lock:
                    self._memory.move_to_end(key)
        """,
    )
    assert [d.code for d in diags] == ["CHK601"]
    assert "_memory" in diags[0].message


def test_default_paths_cover_serve_and_cache():
    names = {p.name for p in default_lock_paths()}
    assert "server.py" in names
    assert "singleflight.py" in names
    assert "cache.py" in names
    assert "manager.py" in names


def test_real_tree_is_clean():
    assert check_lock_discipline() == []
