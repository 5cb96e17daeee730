//! Fingerprinted config snapshots: the per-router texts a repair session
//! edits, each hashed once when it is created.
//!
//! A repair round edits one router, yet the verdict memos of
//! `cosynth::incremental` key whole sweeps and whole-network reports on
//! every config text. Hashing the 512-router snapshot's ~365 KB for each
//! key made a session pay for its network, not its edit. A
//! [`ConfigSnapshot`] keeps every text behind an `Arc` next to its
//! fingerprints, so
//!
//! * an edit ([`ConfigSnapshot::set`]) hashes one text;
//! * a whole-snapshot key ([`ConfigSnapshot::key`]) folds one `u64` per
//!   router instead of hashing the texts;
//! * a snapshot derived from the worker's reference snapshot shares every
//!   text it did not edit.
//!
//! Each text also carries its length and a second fingerprint from an
//! independent hasher (`TextPrint`): the per-device memos store that
//! pair beside every entry, and folded over the network it forms
//! [`ConfigSnapshot::confirmation`], which the whole-snapshot memos store
//! and compare on each hit.

use bdd::FxHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hasher as _};
use std::sync::Arc;

/// The FxHash fingerprint of a config text: the text half of every
/// per-device memo key.
pub(crate) fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// The fingerprints of one config text, computed in place (the text is
/// neither copied nor kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TextPrint {
    /// [`fx`] of the text — the text half of every per-device memo key.
    pub(crate) fx: u64,
    /// The text's length in bytes.
    pub(crate) len: usize,
    /// An independent second fingerprint (`std`'s `DefaultHasher`).
    pub(crate) check: u64,
}

impl TextPrint {
    pub(crate) fn of(text: &str) -> Self {
        let mut check = DefaultHasher::new();
        check.write(text.as_bytes());
        TextPrint {
            fx: fx(text.as_bytes()),
            len: text.len(),
            check: check.finish(),
        }
    }

    /// The confirmation a per-device memo entry stores and compares on
    /// every hit: length plus second fingerprint. Two texts with equal
    /// keys but different bytes differ here unless the independent hash
    /// collides too.
    pub(crate) fn confirmation(self) -> (usize, u64) {
        (self.len, self.check)
    }
}

/// One config text with its fingerprints, computed once when the text
/// is created.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotText {
    text: Arc<str>,
    pub(crate) print: TextPrint,
}

impl SnapshotText {
    pub(crate) fn new(text: String) -> Self {
        SnapshotText {
            print: TextPrint::of(&text),
            text: text.into(),
        }
    }

    /// A text whose fingerprints the caller already computed.
    pub(crate) fn printed(text: &str, print: TextPrint) -> Self {
        debug_assert_eq!(print, TextPrint::of(text));
        SnapshotText {
            text: text.into(),
            print,
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        &self.text
    }
}

/// The router names of one network in assignment order, plus the
/// reverse index — shared by every snapshot of that network.
#[derive(Debug)]
pub(crate) struct SnapshotLayout {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl SnapshotLayout {
    pub(crate) fn new(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        SnapshotLayout { names, index }
    }

    /// The position of `name` in assignment order.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// The per-router config texts of one network, in assignment order, each
/// with its fingerprints. Texts are `Arc`-shared: cloning a snapshot or
/// deriving one from the worker's reference copies no text.
///
/// A router of the network may have no text (it is missing from the map
/// the snapshot was built from); that keys differently from an empty
/// text. Names outside the network are kept for [`Self::to_map`] but
/// take no part in [`Self::key`] — no verdict reads them.
#[derive(Debug, Clone)]
pub struct ConfigSnapshot {
    layout: Arc<SnapshotLayout>,
    texts: Vec<Option<SnapshotText>>,
    others: BTreeMap<String, String>,
}

impl ConfigSnapshot {
    /// The snapshot of `configs` over the network whose routers are
    /// `routers`, in assignment order. Hashes every text once.
    pub fn from_map(
        routers: impl IntoIterator<Item = String>,
        configs: &BTreeMap<String, String>,
    ) -> Self {
        Self::with_layout(
            Arc::new(SnapshotLayout::new(routers.into_iter().collect())),
            configs,
        )
    }

    pub(crate) fn with_layout(
        layout: Arc<SnapshotLayout>,
        configs: &BTreeMap<String, String>,
    ) -> Self {
        let texts = layout
            .names
            .iter()
            .map(|n| configs.get(n).map(|t| SnapshotText::new(t.clone())))
            .collect();
        let others = configs
            .iter()
            .filter(|(n, _)| layout.index_of(n).is_none())
            .map(|(n, t)| (n.clone(), t.clone()))
            .collect();
        ConfigSnapshot {
            layout,
            texts,
            others,
        }
    }

    /// A snapshot of texts already fingerprinted, aligned with `layout`.
    pub(crate) fn from_texts(
        layout: Arc<SnapshotLayout>,
        texts: Vec<Option<SnapshotText>>,
    ) -> Self {
        debug_assert_eq!(layout.names.len(), texts.len());
        ConfigSnapshot {
            layout,
            texts,
            others: BTreeMap::new(),
        }
    }

    /// The text of router `name`, if the snapshot has one.
    pub fn get(&self, name: &str) -> Option<&str> {
        match self.layout.index_of(name) {
            Some(i) => self.texts[i].as_ref().map(SnapshotText::as_str),
            None => self.others.get(name).map(String::as_str),
        }
    }

    /// Replaces (or adds) router `name`'s text, hashing only that text.
    pub fn set(&mut self, name: &str, text: String) {
        match self.layout.index_of(name) {
            Some(i) => self.texts[i] = Some(SnapshotText::new(text)),
            None => {
                self.others.insert(name.to_string(), text);
            }
        }
    }

    /// The text at assignment position `i` with its fingerprints.
    pub(crate) fn text(&self, i: usize) -> Option<&SnapshotText> {
        self.texts[i].as_ref()
    }

    /// The assignment position of router `name`, if it is in the network.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.layout.index_of(name)
    }

    /// Whether the snapshot's positions follow `layout`.
    pub(crate) fn follows(&self, layout: &Arc<SnapshotLayout>) -> bool {
        Arc::ptr_eq(&self.layout, layout)
    }

    /// The fingerprint of every network text in order: the text half of
    /// the whole-sweep and whole-report memo keys. Folds one `u64` per
    /// router; hashes no text.
    pub fn key(&self) -> u64 {
        self.fold(|t| t.print.fx)
    }

    /// The confirmation stored beside a whole-snapshot memo entry: the
    /// total length of the network's texts and the fold of their second
    /// fingerprints. Two snapshots with equal keys but different texts
    /// differ here unless both independent hashes collide too.
    pub fn confirmation(&self) -> (usize, u64) {
        let len = self.texts.iter().flatten().map(|t| t.print.len).sum();
        (len, self.fold(|t| t.print.check))
    }

    fn fold(&self, fingerprint: impl Fn(&SnapshotText) -> u64) -> u64 {
        let mut h = FxHasher::default();
        for t in &self.texts {
            match t {
                Some(t) => {
                    h.write_u32(1);
                    h.write_u64(fingerprint(t));
                }
                None => h.write_u32(2),
            }
        }
        h.finish()
    }

    /// Every text the snapshot holds, keyed by router name.
    pub fn to_map(&self) -> BTreeMap<String, String> {
        let mut map = self.others.clone();
        for (name, t) in self.layout.names.iter().zip(&self.texts) {
            if let Some(t) = t {
                map.insert(name.clone(), t.as_str().to_string());
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_sim::rng::SimRng;

    fn routers() -> Vec<String> {
        (0..6).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn edits_match_a_snapshot_rebuilt_from_the_edited_map() {
        // A seeded sequence of edits — network routers, one missing from
        // the starting map, and a name outside the network — must leave
        // the snapshot indistinguishable from one built from scratch.
        let mut map: BTreeMap<String, String> = routers()
            .into_iter()
            .filter(|n| n != "r3")
            .map(|n| (n.clone(), format!("hostname {n}\n!\n")))
            .collect();
        map.insert("stub".into(), "hostname stub\n".into());
        let mut snapshot = ConfigSnapshot::from_map(routers(), &map);
        assert_eq!(snapshot.get("r3"), None);
        let mut rng = SimRng::seed_from_u64(16);
        let names = ["r0", "r1", "r3", "r5", "outside", "r3"];
        for step in 0..40 {
            let name = names[rng.index(names.len())];
            let text = if rng.index(5) == 0 {
                String::new()
            } else {
                format!("hostname {name}\n! edit {step}\n")
            };
            snapshot.set(name, text.clone());
            map.insert(name.to_string(), text);
            let rebuilt = ConfigSnapshot::from_map(routers(), &map);
            assert_eq!(snapshot.key(), rebuilt.key(), "step {step}");
            assert_eq!(snapshot.confirmation(), rebuilt.confirmation());
            assert_eq!(snapshot.to_map(), map, "step {step}");
            assert_eq!(snapshot.get(name), Some(map[name].as_str()));
        }
    }

    #[test]
    fn a_missing_router_keys_differently_from_an_empty_text() {
        let map = BTreeMap::from([("r0".to_string(), "a".to_string())]);
        let missing = ConfigSnapshot::from_map(routers(), &map);
        let mut empty = missing.clone();
        empty.set("r1", String::new());
        assert_ne!(missing.key(), empty.key());
        assert_ne!(missing.confirmation().1, empty.confirmation().1);
        // Names outside the network never move the key.
        let mut outside = missing.clone();
        outside.set("stub", "hostname stub\n".into());
        assert_eq!(outside.key(), missing.key());
        assert_eq!(outside.confirmation(), missing.confirmation());
    }
}
