"""Incremental ``Workspace.save()``: byte oracle and fast-path structure.

``save()`` keeps every entry's JSON text from its last write and re-reads
``profiles.json`` only when the file's signature changed.  The oracle
below is the full-rewrite ``save()`` it replaced, kept verbatim: after
every step of a multi-writer session the two must leave identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.workspace as workspace_mod
from repro import MoELayerSpec, Workspace
from repro import testbed_b as make_testbed_b
from repro.api.codec import canonical_json, digest, digest_canonical, encode
from repro.api.workspace import WORKSPACE_SCHEMA_VERSION, _atomic_write
from repro.systems.registry import get_system


class ReferenceWorkspace(Workspace):
    """A workspace whose ``save()`` is the original full rewrite."""

    def save(self) -> None:
        with self._io_lock, self._workspace_lock():
            data = self._read_profiles_file()
            merged = self._decode_entries(data) if data is not None else {}
            merged.update(self.store.entries())
            entries = [
                {"k": encode(key), "v": encode(value)}
                for key, value in merged.items()
            ]
            payload = {
                "schema_version": WORKSPACE_SCHEMA_VERSION,
                "entries": entries,
            }
            _atomic_write(self.profiles_path, json.dumps(payload))


def layer(seq_len: int, embed_dim: int = 512) -> MoELayerSpec:
    return MoELayerSpec(
        batch_size=1, seq_len=seq_len, embed_dim=embed_dim,
        num_experts=8, num_heads=8,
    )


class Pair:
    """The same session driven twice: new ``save()`` and the oracle."""

    def __init__(self, tmp_path) -> None:
        self.roots = (tmp_path / "new", tmp_path / "ref")
        self.main = self.open_sessions()
        self.cluster = make_testbed_b()
        self.system = get_system("tutel")

    def open_sessions(self) -> tuple[Workspace, ReferenceWorkspace]:
        return Workspace(self.roots[0]), ReferenceWorkspace(self.roots[1])

    def plan(self, sessions, spec: MoELayerSpec) -> None:
        for ws in sessions:
            ws.plan((spec,), self.system, self.cluster)  # autosaves

    def save(self, sessions) -> None:
        for ws in sessions:
            ws.save()

    def files(self, name: str = "profiles.json") -> tuple[bytes | None, ...]:
        return tuple(
            (root / name).read_bytes() if (root / name).exists() else None
            for root in self.roots
        )

    def assert_same_bytes(self) -> None:
        new, ref = self.files()
        assert new is not None and new == ref
        new_bad, ref_bad = self.files("profiles.json.corrupt")
        assert new_bad == ref_bad

    def rewrite_in_place(self, transform) -> None:
        """Apply one text edit to both files without renaming them."""
        for root in self.roots:
            path = root / "profiles.json"
            path.write_text(transform(path.read_text()))


def keep_first_entry(text: str) -> str:
    data = json.loads(text)
    data["entries"] = data["entries"][:1]
    return json.dumps(data)


class TestSaveOracle:
    def test_scripted_session_matches_full_rewrite(self, tmp_path):
        pair = Pair(tmp_path)
        main = pair.main

        pair.plan(main, layer(256))
        pair.assert_same_bytes()
        pair.plan(main, layer(512))  # fast path: nobody else wrote
        pair.assert_same_bytes()

        # A second session on the same root plans and saves in between.
        second = pair.open_sessions()
        pair.plan(second, layer(1024))
        pair.assert_same_bytes()
        pair.plan(main, layer(256, 1024))  # must merge second's entries
        pair.assert_same_bytes()
        pair.save(second)  # second is now the stale one
        pair.assert_same_bytes()

        # An in-place rewrite keeps the inode; size and mtime change.
        pair.rewrite_in_place(keep_first_entry)
        pair.save(main)
        pair.assert_same_bytes()
        pair.plan(main, layer(768))
        pair.assert_same_bytes()

        # Deleted file: the next save writes this session's entries.
        for root in pair.roots:
            (root / "profiles.json").unlink()
        pair.save(main)
        pair.assert_same_bytes()

        # Truncated file: quarantined exactly as the full rewrite does.
        pair.rewrite_in_place(lambda text: text[: len(text) // 2])
        with pytest.warns(UserWarning, match="unreadable"):
            pair.save(main)
        pair.assert_same_bytes()
        assert pair.files("profiles.json.corrupt")[0] is not None
        pair.plan(main, layer(384))
        pair.assert_same_bytes()

        # A fresh session reads back every entry the last save wrote.
        reopened = Workspace(pair.roots[0])
        assert len(reopened.store) == len(
            json.loads(pair.files()[0])["entries"]
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_session_matches_full_rewrite(self, tmp_path, seed):
        rng = random.Random(seed)
        pair = Pair(tmp_path)
        second = pair.open_sessions()
        lens = [128, 256, 384, 512, 640, 768, 896, 1024]
        rng.shuffle(lens)
        pair.plan(pair.main, layer(lens.pop()))
        for _ in range(10):
            step = rng.choice(
                ["main", "second", "second_save", "edit", "delete"]
            )
            if step in ("main", "second") and lens:
                sessions = pair.main if step == "main" else second
                pair.plan(sessions, layer(lens.pop()))
            elif step == "second_save":
                pair.save(second)
            elif step == "edit":
                pair.rewrite_in_place(keep_first_entry)
                pair.save(pair.main)
            else:
                for root in pair.roots:
                    (root / "profiles.json").unlink(missing_ok=True)
                pair.save(pair.main)
            pair.assert_same_bytes()


class TestSaveFastPath:
    @staticmethod
    def counting_codec(monkeypatch) -> dict[str, list]:
        calls: dict[str, list] = {"encode": [], "decode": []}
        real_encode, real_decode = workspace_mod.encode, workspace_mod.decode

        def encode_spy(obj):
            calls["encode"].append(obj)
            return real_encode(obj)

        def decode_spy(data):
            calls["decode"].append(data)
            return real_decode(data)

        monkeypatch.setattr(workspace_mod, "encode", encode_spy)
        monkeypatch.setattr(workspace_mod, "decode", decode_spy)
        return calls

    def test_save_encodes_only_new_entries(self, tmp_path, monkeypatch):
        ws = Workspace(tmp_path / "ws", autosave=False)
        system, cluster = get_system("tutel"), make_testbed_b()
        ws.plan((layer(256),), system, cluster)
        ws.plan((layer(512),), system, cluster)
        ws.save()
        saved = ws.store.entries()
        ws.plan((layer(1024),), system, cluster)
        new = {k: v for k, v in ws.store.entries().items() if k not in saved}
        assert len(new) >= 1

        calls = self.counting_codec(monkeypatch)
        ws.save()
        assert calls["decode"] == []
        encoded = [id(obj) for obj in calls["encode"]]
        assert len(encoded) == 2 * len(new)
        assert set(encoded) == {id(k) for k in new} | {
            id(v) for v in new.values()
        }

        calls["encode"].clear()
        ws.save()  # nothing new: nothing encoded, nothing read
        assert calls == {"encode": [], "decode": []}

    def test_foreign_write_takes_the_merge_path(self, tmp_path, monkeypatch):
        root = tmp_path / "ws"
        system, cluster = get_system("tutel"), make_testbed_b()
        ws = Workspace(root, autosave=False)
        ws.plan((layer(256),), system, cluster)
        ws.save()
        Workspace(root).plan((layer(512),), system, cluster)
        path = root / "profiles.json"
        on_disk = len(json.loads(path.read_text())["entries"])

        calls = self.counting_codec(monkeypatch)
        ws.save()
        assert len(calls["decode"]) == 2 * on_disk  # key + value each
        assert len(json.loads(path.read_text())["entries"]) == on_disk


def reference_digest(encoded: object) -> str:
    """The plan-cache digest formula, spelled out independently."""
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class TestDigestOfCanonicalText:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_helper_matches_digest_on_random_keys(self, key):
        expected = reference_digest(key)
        assert digest(key) == expected
        assert digest_canonical(canonical_json(key)) == expected

    def test_plan_digests_are_unchanged(self, tmp_path):
        """Digests recorded with the code that dumped each key twice."""
        ws = Workspace(tmp_path / "ws")
        cluster = make_testbed_b()
        assert (
            ws.plan_digest((layer(256),), get_system("tutel"), cluster)
            == "1d7de73c86e6166867bc26198b985d20"
        )
        assert (
            ws.plan_digest(
                (layer(256),) * 2, get_system("fsmoe"), cluster,
                seed=3, noise=0.05,
            )
            == "323cb5e024497758982613ac6eb5db3c"
        )

    def test_plan_file_written_by_the_old_formula_hits_l2(self, tmp_path):
        root = tmp_path / "ws"
        system, cluster = get_system("tutel"), make_testbed_b()
        stack = (layer(256),)
        source = Workspace(tmp_path / "source")
        plan = source.plan(stack, system, cluster)
        (written,) = source.plans_dir.glob("*.json")
        key = json.loads(written.read_text())["key"]
        (root / "plans").mkdir(parents=True)
        document = json.dumps(
            {
                "schema_version": WORKSPACE_SCHEMA_VERSION,
                "key": key,
                "plan": plan.to_dict(),
            }
        )
        (root / "plans" / f"{reference_digest(key)}.json").write_text(document)

        fresh = Workspace(root)
        assert fresh.plan(stack, system, cluster) == plan
        stats = fresh.stats
        assert stats.cache.l2.hits == 1 and stats.plan_misses == 0
