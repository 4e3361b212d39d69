//! The one per-object table of the crate: [`DomNode`](crate::DomNode) keeps
//! its per-object protocol record in one, [`ClientPlanner`](crate::ClientPlanner)
//! its per-object planning record in another.

use doma_core::ObjectId;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// A catalog of objects, stored densely: ids sorted ascending with one
/// record per object in the matching *slot*.
///
/// An [`ObjectId`] is resolved to its slot once ([`ObjectCatalog::slot`])
/// and the record is indexed by slot from there on. For a contiguous
/// catalog — the common case; every multi-object generator produces
/// `0..objects` — the slot is one subtraction and a bounds check;
/// non-contiguous catalogs fall back to binary search over the sorted
/// ids.
#[derive(Debug, Clone)]
pub(crate) struct ObjectCatalog<T> {
    /// Object ids, ascending.
    ids: Vec<ObjectId>,
    /// Per-object record, aligned with `ids`.
    records: Vec<T>,
    /// `ids[0]`, the offset of the contiguous fast path.
    base: u64,
    /// Whether `ids` is exactly `base..base + ids.len()`.
    contiguous: bool,
}

impl<T> ObjectCatalog<T> {
    pub(crate) fn from_map(map: BTreeMap<ObjectId, T>) -> Self {
        let ids: Vec<ObjectId> = map.keys().copied().collect();
        let records: Vec<T> = map.into_values().collect();
        let base = ids.first().map_or(0, |o| o.0);
        let contiguous = ids
            .iter()
            .enumerate()
            .all(|(i, o)| o.0 == base.wrapping_add(i as u64));
        ObjectCatalog {
            ids,
            records,
            base,
            contiguous,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The dense slot of `object`, if catalogued.
    #[inline]
    pub(crate) fn slot(&self, object: ObjectId) -> Option<usize> {
        if self.contiguous {
            let idx = usize::try_from(object.0.checked_sub(self.base)?).ok()?;
            (idx < self.ids.len()).then_some(idx)
        } else {
            self.ids.binary_search(&object).ok()
        }
    }

    /// The object held in `slot`.
    #[inline]
    pub(crate) fn id(&self, slot: usize) -> ObjectId {
        self.ids[slot]
    }

    /// Every `(object, record)`, ascending by object.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, &T)> {
        self.ids.iter().copied().zip(&self.records)
    }

    /// Every record, in slot order.
    pub(crate) fn records_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.records.iter_mut()
    }
}

impl<T> Index<usize> for ObjectCatalog<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.records[slot]
    }
}

impl<T> IndexMut<usize> for ObjectCatalog<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.records[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(ids: &[u64]) -> ObjectCatalog<u64> {
        ObjectCatalog::from_map(ids.iter().map(|&id| (ObjectId(id), !id)).collect())
    }

    /// Every catalogued id resolves to the slot holding its own record,
    /// slots follow id order, and `absent` ids resolve to nothing.
    fn assert_resolves(ids: &[u64], absent: &[u64]) {
        let c = catalog(ids);
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(c.len(), sorted.len());
        for (slot, &id) in sorted.iter().enumerate() {
            assert_eq!(c.slot(ObjectId(id)), Some(slot), "{id} in {ids:?}");
            assert_eq!(c.id(slot), ObjectId(id));
            assert_eq!(c[slot], !id);
        }
        let listed: Vec<(ObjectId, u64)> = c.iter().map(|(o, r)| (o, *r)).collect();
        let expected: Vec<(ObjectId, u64)> = sorted.iter().map(|&id| (ObjectId(id), !id)).collect();
        assert_eq!(listed, expected);
        for &id in absent {
            assert_eq!(c.slot(ObjectId(id)), None, "{id} in {ids:?}");
        }
    }

    #[test]
    fn contiguous_from_zero_is_offset_arithmetic() {
        let c = catalog(&[0, 1, 2, 3]);
        assert!(c.contiguous);
        assert_resolves(&[0, 1, 2, 3], &[4, 5, u64::MAX]);
    }

    #[test]
    fn contiguous_from_a_non_zero_base_rejects_ids_on_both_sides() {
        let c = catalog(&[7, 8, 9]);
        assert!(c.contiguous);
        assert_eq!(c.base, 7);
        // Below `base` (the subtraction would underflow) and past the end.
        assert_resolves(&[7, 8, 9], &[0, 6, 10, u64::MAX]);
    }

    #[test]
    fn sparse_ids_fall_back_to_binary_search() {
        let c = catalog(&[u64::MAX, 3, 7]);
        assert!(!c.contiguous);
        assert_resolves(&[u64::MAX, 3, 7], &[0, 4, 5, 6, 8, u64::MAX - 1]);
        // The top of the id space is an ordinary contiguous run.
        assert_resolves(&[u64::MAX - 1, u64::MAX], &[0, u64::MAX - 2]);
    }

    #[test]
    fn an_empty_catalog_resolves_nothing() {
        let c = catalog(&[]);
        assert_eq!(c.len(), 0);
        assert_resolves(&[], &[0, 1, u64::MAX]);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn records_are_mutable_by_slot_and_in_bulk() {
        let mut c = catalog(&[4, 5]);
        c[1] = 1;
        for record in c.records_mut() {
            *record /= 2;
        }
        assert_eq!(c[0], !4 / 2);
        assert_eq!(c[1], 0);
    }
}
